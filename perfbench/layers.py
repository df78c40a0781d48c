"""The hyperkirch layers the traced run wraps, and the per-layer metrics.

Module-level functions are replaced at every place they are looked up: the
defining module, the package namespace, and every module that imported the
name (kirchhoff imports _det_bareiss and tau_matrix, volumes imports the two
polynomial engines, stability imports smith_normal_form, cli imports the io
helpers). Methods are replaced on their class, which also covers the
module-level functional forms in graphs and poly that delegate to them.
"""

from __future__ import annotations

import math

import hyperkirch
from hyperkirch import cli, graphs, io, kirchhoff, lattice, poly, stability, volumes

from spans import Tracer
from workloads import DeadlineMiss

MODULES = (hyperkirch, graphs, kirchhoff, poly, lattice, volumes, stability, io, cli)


def _forests_after(tr, out, args, kwargs):
    g = args[0]
    nonloop = sum(1 for e in g.edges if e.head != e.tail)
    size = len(g.vertices) - g.n_components()
    tr.count("graphs.spanning_forests.forests", len(out))
    tr.count("graphs.spanning_forests.candidates", math.comb(nonloop, size) if 0 <= size <= nonloop else 0)


def _poly_after(tr, out, args, kwargs):
    tr.count("poly.terms", len(out.terms))


def _smith_after(tr, out, args, kwargs):
    u, _, v = out
    bits = max((abs(x).bit_length() for m in (u, v) for row in m.entries for x in row), default=0)
    tr.record_max("lattice.smith_normal_form.cert_bits", bits)


def _smith_error(tr, exc):
    if isinstance(exc, DeadlineMiss):
        tr.count("lattice.smith_normal_form.deadline_misses")


def _strata_after(tr, out, args, kwargs):
    tr.count("stability.strata_complex.nodes", len(out.nodes))
    tr.count("stability.strata_complex.adjacency", len(out.adjacency))
    tr.count("stability.strata_complex.faces", sum(len(f) for f in out.faces))


def _recursion_error(tr, exc):
    if isinstance(exc, RecursionError):
        tr.count("stability.recursion_errors")


def _oracle_after(tr, out, args, kwargs):
    graph, params = args[0], args[1]
    if kwargs.get("monte_carlo"):
        tr.count("volumes.oracle.classes", kwargs.get("samples", 20000))
    else:
        tr.count("volumes.oracle.classes", params.p ** (params.k * graph.betti1()))


PARSE = ("load_json_arg", "graph_from_doc", "int_map_from_doc", "orbit_spec_from_doc", "eta_from_doc", "parse_rational")
RENDER = ("dump_json", "poly_to_doc", "strata_to_doc", "strata_to_dot", "matrix_to_doc", "graph_to_doc", "format_rational")


def _table():
    """(layer, owner, attribute, after hook, error hook) for every wrapped callable."""
    mg, im, mp = graphs.Multigraph, lattice.IntMatrix, poly.MultilinearPoly
    rows = [
        ("graphs.minor", mg, "delete", None, None),
        ("graphs.minor", mg, "contract", None, None),
        ("graphs.classify_edge", mg, "classify_edge", None, None),
        ("graphs.components", mg, "components", None, None),
        ("graphs.spanning_forests", mg, "spanning_forests", _forests_after, None),
        ("graphs.cycle_basis", mg, "cycle_basis", None, None),
        ("graphs.fragment", mg, "fragment", None, None),
        ("kirchhoff.psi_delcon", kirchhoff, "psi_delcon", _poly_after, None),
        ("kirchhoff.psi_enum", kirchhoff, "psi_enum", _poly_after, None),
        ("kirchhoff.psi_det", kirchhoff, "psi_det", None, None),
        ("kirchhoff.matrix_tree_dual", kirchhoff, "matrix_tree_dual", None, None),
        ("poly.evaluate", mp, "evaluate", None, None),
        ("lattice.smith_normal_form", lattice, "smith_normal_form", _smith_after, _smith_error),
        ("lattice.matmul", im, "__matmul__", None, None),
        ("lattice.det", lattice, "_det_bareiss", None, None),
        ("lattice.tau_matrix", lattice, "tau_matrix", None, None),
        ("lattice.component_group", lattice, "component_group", None, None),
        ("lattice.tropical_jacobian", lattice, "tropical_jacobian", None, None),
        ("volumes.total_volume", volumes, "total_volume", None, None),
        ("volumes.fibre_volume", volumes, "fibre_volume", None, None),
        ("volumes.central_fibre_point_count", volumes, "central_fibre_point_count", None, None),
        ("volumes.trop_volume_check", volumes, "trop_volume_check", None, None),
        ("volumes.oracle", volumes, "total_volume_padic_oracle", _oracle_after, None),
        ("stability.is_semistable", stability, "is_semistable", None, _recursion_error),
        ("stability.is_generic", stability, "is_generic", None, _recursion_error),
        ("stability.strata_complex", stability, "strata_complex", _strata_after, _recursion_error),
        ("cli.run", cli, "run", None, None),
    ]
    rows += [("io.parse", io, name, None, None) for name in PARSE]
    rows += [("io.render", io, name, None, None) for name in RENDER]
    return rows


def install(tracer: Tracer) -> None:
    for layer, owner, attr, after, on_error in _table():
        original = getattr(owner, attr)
        wrapper = tracer.wrap(layer, original, after, on_error)
        if isinstance(owner, type):
            tracer.patch(owner, attr, wrapper)
            continue
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, name, wrapper)


SELF_TIME_LAYERS = (
    "graphs.minor", "graphs.classify_edge", "graphs.components", "graphs.spanning_forests",
    "graphs.cycle_basis", "kirchhoff.psi_delcon", "kirchhoff.psi_enum", "kirchhoff.psi_det",
    "kirchhoff.matrix_tree_dual", "poly.evaluate", "lattice.smith_normal_form", "lattice.matmul",
    "lattice.det", "lattice.tau_matrix", "lattice.component_group", "volumes.total_volume",
    "volumes.fibre_volume", "volumes.oracle", "stability.is_semistable", "stability.is_generic",
    "stability.strata_complex", "io.parse", "io.render",
)
CALL_LAYERS = (
    "graphs.minor", "graphs.classify_edge", "graphs.components", "lattice.smith_normal_form",
    "stability.is_semistable",
)
PER_PASS_COUNTERS = (
    "poly.terms", "lattice.smith_normal_form.deadline_misses", "stability.strata_complex.nodes",
    "stability.strata_complex.adjacency", "stability.strata_complex.faces",
    "stability.recursion_errors", "volumes.oracle.classes",
)
SHARES = {
    "share.minor_recursion": ("kirchhoff.psi_delcon", "volumes.total_volume"),
    "share.smith_normal_form": ("lattice.smith_normal_form",),
    "share.stability": ("stability.strata_complex", "stability.is_semistable", "stability.is_generic"),
}


def layer_metrics(tr: Tracer, passes: int, traced_wall: float, scale: float) -> dict[str, float]:
    """Per-layer metrics, each a per-pass mean except ratios, maxima and shares.

    Self times are multiplied by scale, the reference-speed factor of the
    traced passes. traced_wall is their summed raw wall time; a share is the
    raw time inside the outermost spans of its layers divided by it.
    """
    ids = {name: i for i, name in enumerate(tr.layers)}
    out: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = tr.self_s[ids[layer]] * scale / passes if layer in ids else 0.0
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = tr.calls[ids[layer]] / passes if layer in ids else 0.0
    for name in PER_PASS_COUNTERS:
        out[name] = tr.counters.get(name, 0) / passes
    out["kirchhoff.psi_delcon.minors"] = tr.child_count("graphs.minor", "kirchhoff.psi_delcon") / passes
    out["volumes.total_volume.minors"] = tr.child_count("graphs.minor", "volumes.total_volume") / passes
    candidates = tr.counters.get("graphs.spanning_forests.candidates", 0)
    out["graphs.spanning_forests.yield_frac"] = (
        tr.counters.get("graphs.spanning_forests.forests", 0) / candidates if candidates else 0.0
    )
    out["lattice.smith_normal_form.cert_bits"] = tr.counters.get("lattice.smith_normal_form.cert_bits", 0)
    for name, layers in SHARES.items():
        out[name] = tr.outermost_time(layers) / traced_wall if traced_wall > 0 else 0.0
    return out


# the per-layer metrics each workload exists to exercise; a traced run in which
# one of them reads zero fails, because the wrappers no longer reach that layer.
# Failure counters (smith_normal_form.deadline_misses, recursion_errors) are left
# out: they read non-zero only while the known defects last, and a fix that
# takes them to zero must not break the benchmark.
EXERCISED = {
    "forests": (
        "graphs.minor.calls", "graphs.minor.self_s", "graphs.classify_edge.calls",
        "graphs.classify_edge.self_s", "graphs.components.calls", "graphs.components.self_s",
        "kirchhoff.psi_delcon.self_s", "kirchhoff.psi_delcon.minors", "volumes.total_volume.self_s",
        "volumes.total_volume.minors", "share.minor_recursion", "graphs.spanning_forests.self_s",
        "graphs.spanning_forests.yield_frac", "kirchhoff.psi_enum.self_s", "poly.evaluate.self_s",
        "poly.terms", "volumes.fibre_volume.self_s", "graphs.cycle_basis.self_s",
    ),
    "lattice": (
        "lattice.smith_normal_form.calls", "lattice.smith_normal_form.self_s",
        "lattice.smith_normal_form.cert_bits", "share.smith_normal_form", "lattice.matmul.self_s",
        "lattice.component_group.self_s", "lattice.tau_matrix.self_s", "lattice.det.self_s",
        "kirchhoff.psi_det.self_s", "kirchhoff.matrix_tree_dual.self_s",
    ),
    "strata": (
        "stability.strata_complex.self_s", "stability.strata_complex.nodes",
        "stability.strata_complex.adjacency", "stability.strata_complex.faces",
        "stability.is_semistable.calls", "stability.is_semistable.self_s",
        "stability.is_generic.self_s", "share.stability",
    ),
    "cli": (
        "volumes.oracle.self_s", "volumes.oracle.classes", "io.parse.self_s", "io.render.self_s",
        "cli.startup_ms", "cli.psi.p50_ms", "cli.tamagawa.p50_ms", "cli.volume.p50_ms",
        "cli.total-volume.p50_ms", "cli.point-count.p50_ms", "cli.stability.p50_ms",
        "cli.generic.p50_ms", "cli.strata.p50_ms", "cli.trop.p50_ms", "cli.fragment.p50_ms",
    ),
}
