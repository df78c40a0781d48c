"""Command line front end.

Every subcommand reads JSON documents (inline or by file path), writes one
JSON document to stdout (sorted keys, two-space indent), and exits 0 on
success, 1 on a domain error (reported as a JSON error record on stdout),
2 on a usage error. Output is byte-deterministic for fixed inputs.

Each subcommand imports the library modules it calls when it runs, so a
process loads and compiles only those.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .graphs import DomainError, Multigraph, charge, check_int, check_keys
from .io import (
    dump_json,
    eta_from_doc,
    format_rational,
    graph_from_doc,
    graph_to_doc,
    int_map_from_doc,
    load_json_arg,
    matrix_to_doc,
    orbit_spec_from_doc,
    poly_to_doc,
    strata_to_doc,
    strata_to_dot,
)


def _graph_arg(args) -> Multigraph:
    return graph_from_doc(load_json_arg(args.graph))


def _warn_small_scale(n: int) -> None:
    if n == 1:
        print(
            "warning: box scale N = 1 makes every divisibility constraint vacuous",
            file=sys.stderr,
        )


def _run_psi(args):
    from .kirchhoff import psi_delcon, psi_enum
    from .poly import equal as poly_equal

    graph = _graph_arg(args)
    if args.method == "enum":
        poly = psi_enum(graph)
    else:
        poly = psi_delcon(graph)
    doc = poly_to_doc(poly)
    doc["method"] = args.method
    doc["degree"] = poly.degree()
    if args.method == "both":
        doc["engines_agree"] = poly_equal(poly, psi_enum(graph))
    if args.weights is not None:
        weights = int_map_from_doc(load_json_arg(args.weights), "weights")
        check_keys(weights, graph.edge_ids, "weight")
        doc["value"] = format_rational(poly.evaluate(weights))
    return doc


def _run_tamagawa(args):
    from .lattice import component_group, tau_matrix

    graph = _graph_arg(args)
    weights = int_map_from_doc(load_json_arg(args.weights), "weights")
    gram = tau_matrix(graph, weights)
    group = component_group(graph, weights)
    return {
        "determinant": gram.det(),
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
    }


def _run_volume(args):
    from fractions import Fraction

    from .volumes import fibre_volume

    graph = _graph_arg(args)
    nu = int_map_from_doc(load_json_arg(args.weights), "weights")
    vol = fibre_volume(graph, nu, args.q)
    betti1 = graph.betti1()
    # the volume is (1 - 1/q)^betti1 Psi(nu), so Psi(nu) is read back from it
    psi_value = vol / Fraction(args.q - 1, args.q) ** betti1
    assert psi_value.denominator == 1
    return {
        "betti1": betti1,
        "kirchhoff_value": psi_value.numerator,
        "q": args.q,
        "volume": format_rational(vol),
    }


def _run_total_volume(args):
    from .volumes import LocalFieldParams, total_volume, total_volume_padic_oracle

    graph = _graph_arg(args)
    total = total_volume(graph)
    doc = {"total_volume": total}
    if args.oracle:
        if args.p is None or args.k is None:
            raise DomainError("--oracle needs --p and --k")
        params = LocalFieldParams(q=args.p, p=args.p, k=args.k)
        estimate, bound = total_volume_padic_oracle(
            graph,
            params,
            budget=args.budget,
            monte_carlo=args.monte_carlo,
            samples=args.samples,
            seed=args.seed,
        )
        doc["oracle"] = {
            "p": args.p,
            "precision": args.k,
            "method": "monte-carlo" if args.monte_carlo else "exhaustive",
            "estimate": format_rational(estimate),
            "error_bound": format_rational(bound),
            "within_bound": abs(estimate - total) <= bound,
        }
    return doc


def _run_point_count(args):
    from .volumes import central_fibre_point_count

    graph = _graph_arg(args)
    points = central_fibre_point_count(graph, args.q)
    betti1 = graph.betti1()
    return {
        "betti1": betti1,
        "forest_count": points // args.q**betti1,
        "point_count": points,
        "q": args.q,
    }


def _run_stability(args):
    from .stability import StabilityParam, is_semistable

    graph = _graph_arg(args)
    eta = eta_from_doc(load_json_arg(args.eta), graph)
    spec = orbit_spec_from_doc(load_json_arg(args.orbits))
    _warn_small_scale(args.n)
    param = StabilityParam(eta=eta, N=args.n)
    return {"N": args.n, "semistable": is_semistable(graph, param, spec)}


def _run_generic(args):
    from .stability import StabilityParam, _genericity, is_generic

    graph = _graph_arg(args)
    _warn_small_scale(args.n)
    if args.search is None:
        if args.eta is None:
            raise DomainError("generic needs --eta unless --search is given")
        eta = eta_from_doc(load_json_arg(args.eta), graph)
        param = StabilityParam(eta=eta, N=args.n)
        return {"N": args.n, "generic": is_generic(graph, param, budget=args.budget)}
    radius = args.search
    if radius < 0:
        raise DomainError("--search radius must be nonnegative")
    verts = sorted(graph.vertices)
    checked = 0
    found = None
    free = max(len(verts) - 1, 0)
    # charged as one scan of the 2^(V-1) bond candidates per candidate weight,
    # though the bonds are listed once and shared by every candidate
    charge(
        (2 * radius + 1) ** free * 2**free,
        "genericity search bond candidates",
        args.budget,
    )
    check_int(args.n, "N", 1)
    verdict = _genericity(graph, args.budget)
    for head in itertools.product(range(-radius, radius + 1), repeat=free):
        last = -sum(head)
        if verts and not -radius <= last <= radius:
            continue
        values = list(head) + [last] if verts else []
        eta = dict(zip(verts, values))
        checked += 1
        if verdict(eta, args.n):
            found = eta
            break
    doc = {"N": args.n, "checked": checked, "found": found is not None, "radius": radius}
    if found is not None:
        doc["eta"] = found
    return doc


def _run_strata(args):
    from .stability import StabilityParam, strata_complex

    graph = _graph_arg(args)
    eta = eta_from_doc(load_json_arg(args.eta), graph)
    _warn_small_scale(args.n)
    param = StabilityParam(eta=eta, N=args.n)
    complex_ = strata_complex(graph, param, budget=args.budget)
    if args.format == "dot":
        return strata_to_dot(complex_)
    return strata_to_doc(complex_)


def _run_trop(args):
    from fractions import Fraction

    from .lattice import tropical_jacobian
    from .volumes import fibre_volume

    graph = _graph_arg(args)
    weights = int_map_from_doc(load_json_arg(args.weights), "weights")
    torus = tropical_jacobian(graph, weights)
    doc = {
        "rank": torus.rank,
        "gram": matrix_to_doc(torus.gram),
        "covolume": torus.covolume,
    }
    if args.q is not None:
        # trop_volume_check's comparison on the torus already built: Psi
        # against the Gram determinant, two different matrices
        volume = fibre_volume(graph, weights, args.q)
        doc["volume_check"] = {
            "q": args.q,
            "fibre_volume": format_rational(volume),
            "agrees": volume == Fraction(args.q - 1, args.q) ** torus.rank * torus.covolume,
        }
    return doc


def _run_fragment(args):
    graph = _graph_arg(args)
    counts = int_map_from_doc(load_json_arg(args.counts), "counts")
    return graph_to_doc(graph.fragment(counts))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperkirch",
        description="Exact combinatorics of oriented multigraphs: forest-complement "
        "polynomials, component groups, residue volumes, stability strata.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, fmt=("json", "table")):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="graph document (inline JSON or path)")
        p.add_argument("--format", choices=fmt, default="json")
        p.set_defaults(run=run)
        return p

    p = add("psi", _run_psi, "forest-complement polynomial of a graph")
    p.add_argument("--method", choices=("delcon", "enum", "both"), default="delcon")
    p.add_argument("--weights", help="optional integer weights to evaluate at")

    p = add("tamagawa", _run_tamagawa, "weighted cycle Gram determinant and component group")
    p.add_argument("--weights", required=True, help="positive integer edge weights")

    p = add("volume", _run_volume, "fibre volume at an edge valuation")
    p.add_argument("--weights", required=True, help="positive integer edge valuations")
    p.add_argument("--q", type=int, required=True, help="residue field size")

    p = add("total-volume", _run_total_volume, "integer total volume (forest count)")
    p.add_argument("--oracle", action="store_true", help="also run the residue-class oracle")
    p.add_argument("--p", type=int, help="oracle prime")
    p.add_argument("--k", type=int, help="oracle precision")
    p.add_argument("--monte-carlo", action="store_true")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)

    p = add("point-count", _run_point_count, "residue point count of the central fibre")
    p.add_argument("--q", type=int, required=True, help="residue field size")

    p = add("stability", _run_stability, "semistability of an orbit assignment")
    p.add_argument("--eta", required=True, help="integer vertex weights summing to zero")
    p.add_argument("--n", type=int, required=True, help="box scale N")
    p.add_argument("--orbits", required=True, help="edge orbit assignment document")

    p = add("generic", _run_generic, "genericity of a vertex weight")
    p.add_argument("--eta", help="integer vertex weights summing to zero")
    p.add_argument("--n", type=int, required=True, help="box scale N")
    p.add_argument("--search", type=int, help="scan weights with entries in [-R, R]")
    p.add_argument("--budget", type=int)

    p = add("strata", _run_strata, "quotient complex of semistable boxes",
            fmt=("json", "table", "dot"))
    p.add_argument("--eta", required=True, help="integer vertex weights summing to zero")
    p.add_argument("--n", type=int, required=True, help="box scale N")
    p.add_argument("--budget", type=int)

    p = add("trop", _run_trop, "tropical quotient torus of a weighted graph")
    p.add_argument("--weights", required=True, help="positive integer edge weights")
    p.add_argument("--q", type=int, help="also compare against the fibre volume")

    p = add("fragment", _run_fragment, "subdivide edges into paths")
    p.add_argument("--counts", required=True, help="edge id to positive part count")

    return parser


def _render(doc, fmt: str) -> str:
    if isinstance(doc, str):
        return doc
    if fmt == "table":
        lines = []
        for key in sorted(doc):
            value = doc[key]
            text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
            lines.append(f"{key}\t{text}")
        return "\n".join(lines) + "\n"
    return dump_json(doc)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc = args.run(args)
    except DomainError as exc:
        sys.stdout.write(
            dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 1
    sys.stdout.write(_render(doc, args.format))
    return 0


main = run


if __name__ == "__main__":
    sys.exit(main())
