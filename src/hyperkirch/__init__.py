"""Exact combinatorics of oriented multigraphs.

Forest-complement polynomials through two independent engines, weighted
cycle lattices and their component groups, residue-field volumes with a
brute-force integration oracle, and the stability stratification of
edge orbit data. Everything is exact: integers and fractions only.

The package namespace is lazy: importing it loads no submodule, and each
public name loads the submodule that defines it on first access.
"""

import sys

# the public names, by the submodule that defines them. A name's submodule is
# imported on its first access, and the name is looked up there on every
# access, never stored here: a caller that replaces a submodule's function (a
# profiler's wrapper, a test's patch) reaches users of the package name too,
# and stops reaching them once it puts the original back.
_SOURCES = {
    "graphs": (
        "BudgetExceededError", "DomainError", "Edge", "LoopContractionError", "Multigraph",
        "UnknownEdgeError", "betti1", "boundary", "classify_edge", "contract", "cycle_basis",
        "delete", "enumeration_budget", "fragment", "spanning_forests",
    ),
    "kirchhoff": ("psi_delcon", "psi_det", "psi_enum", "matrix_tree_dual"),
    "lattice": (
        "ComponentGroup", "IntMatrix", "TropTorus", "component_group", "tau_matrix",
        "smith_normal_form", "tropical_jacobian",
    ),
    "poly": ("MultilinearPoly", "equal", "evaluate"),
    "stability": (
        "CharRange", "EdgeOrbit", "StabilityParam", "StrataComplex", "delta_membership",
        "generic_orbit", "is_generic", "is_semistable", "orbit_char_set", "point_orbit",
        "segment_orbit", "strata_complex",
    ),
    "volumes": (
        "LocalFieldParams", "central_fibre_point_count", "fibre_volume", "total_volume",
        "total_volume_padic_oracle", "trop_volume_check", "valuation_stratum_measure",
        "valuation_tail_measure",
    ),
}
_MODULE = {name: f"{__name__}.{mod}" for mod, names in _SOURCES.items() for name in names}


def __getattr__(name):
    try:
        module = _MODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    mod = sys.modules.get(module)
    if mod is None:
        import importlib

        mod = importlib.import_module(module)
    return getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_MODULE})


__version__ = "0.1.0"

__all__ = sorted([*_MODULE, "__version__"])
