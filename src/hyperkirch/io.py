"""JSON document codecs for graphs, maps, orbit data, and results.

Graph documents look like

    {"vertices": ["a", "b"],
     "edges": [{"id": "e1", "head": "a", "tail": "b"}]}

with all ids as nonempty strings so that map documents (weights, valuations,
vertex characters) can key them directly. Rational numbers travel as strings
in "p/q" or plain integer form.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .graphs import DomainError, Edge, Multigraph, check_int, check_keys

if TYPE_CHECKING:  # annotations only: the CLI loads these modules per subcommand
    from fractions import Fraction

    from .lattice import IntMatrix
    from .poly import MultilinearPoly
    from .stability import EdgeOrbit, StrataComplex


def load_json_arg(text: str):
    """Parse inline JSON, falling back to reading the named file."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"argument is neither inline JSON nor a readable file: {exc}")
    except ValueError as exc:
        raise DomainError(f"file {text!r} does not contain valid JSON: {exc}")


def _check_id(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise DomainError(f"{what} must be a nonempty string, got {value!r}")
    return value


def graph_from_doc(doc) -> Multigraph:
    if not isinstance(doc, dict):
        raise DomainError("graph document must be a JSON object")
    extra = set(doc) - {"vertices", "edges"}
    if extra:
        raise DomainError(f"unexpected graph document keys: {sorted(extra)}")
    if "vertices" not in doc or "edges" not in doc:
        raise DomainError("graph document needs 'vertices' and 'edges'")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise DomainError("'vertices' and 'edges' must be arrays")
    vertices = [_check_id(v, "vertex id") for v in doc["vertices"]]
    edges = []
    for item in doc["edges"]:
        if not isinstance(item, dict) or set(item) != {"id", "head", "tail"}:
            raise DomainError(
                "each edge must be an object with exactly 'id', 'head', 'tail'"
            )
        edges.append(
            Edge(
                _check_id(item["id"], "edge id"),
                _check_id(item["head"], "edge head"),
                _check_id(item["tail"], "edge tail"),
            )
        )
    return Multigraph(vertices, edges)


def graph_to_doc(graph: Multigraph) -> dict:
    return {
        "vertices": sorted(graph.vertices),
        "edges": [
            {"id": e.id, "head": e.head, "tail": e.tail}
            for e in sorted(graph.edges)
        ],
    }


def int_map_from_doc(doc, what: str) -> dict:
    """Decode a JSON object of integers; values may be ints or digit strings.

    A digit string is ASCII digits with an optional leading minus sign.
    """
    if not isinstance(doc, dict):
        raise DomainError(f"{what} must be a JSON object")
    out = {}
    for key, value in doc.items():
        if isinstance(value, str):
            # int() alone would also take "1_000", " 7 ", "+7" and non-ASCII digits
            if not (value.isascii() and value.removeprefix("-").isdigit()):
                raise DomainError(f"{what}[{key!r}] is not an integer: {value!r}")
            value = int(value)
        out[key] = check_int(value, f"{what} for {key!r}")
    return out


def orbit_spec_from_doc(doc) -> dict[str, EdgeOrbit]:
    """Decode {"e": "generic" | {"segment": n} | {"point": n}}."""
    from .stability import EdgeOrbit

    if not isinstance(doc, dict):
        raise DomainError("orbit spec must be a JSON object")
    out = {}
    for eid, value in doc.items():
        if value == "generic":
            out[eid] = EdgeOrbit("generic")
            continue
        if isinstance(value, dict) and len(value) == 1:
            (kind, level), = value.items()
            if kind in ("segment", "point"):
                out[eid] = EdgeOrbit(kind, level)
                continue
        raise DomainError(
            f"orbit for {eid!r} must be \"generic\", {{\"segment\": n}} or {{\"point\": n}}"
        )
    return out


def format_rational(value) -> str:
    """Exact decimal string for integers, 'p/q' otherwise."""
    from fractions import Fraction  # off the start-up path of every subcommand

    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    if not isinstance(text, str):
        raise DomainError(f"rational must be a string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {text!r} ({exc})")


def matrix_to_doc(matrix: IntMatrix) -> dict:
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [list(row) for row in matrix.entries],
    }


def poly_to_doc(poly: MultilinearPoly) -> dict:
    monomials = [
        {"support": sorted(mono), "coefficient": coeff}
        for mono, coeff in poly.terms.items()
    ]
    monomials.sort(key=lambda item: item["support"])
    return {"variables": sorted(poly.variables), "monomials": monomials}


def strata_to_doc(complex_: StrataComplex) -> dict:
    return {
        "edge_order": list(complex_.edge_order),
        "node_count": len(complex_.nodes),
        "nodes": [
            {
                "index": i,
                "vector": list(vec),
                "faces": [
                    {"face": list(face), "dimension": dim}
                    for face, dim in complex_.faces[i]
                ],
            }
            for i, vec in enumerate(complex_.nodes)
        ],
        "adjacency": [
            {
                "left": left,
                "right": right,
                "left_vector": list(lvec),
                "right_vector": list(rvec),
            }
            for left, right, lvec, rvec in complex_.adjacency
        ],
        "connected": complex_.connected,
    }


def strata_to_dot(complex_: StrataComplex) -> str:
    """Undirected DOT rendering: one node per class, one edge per orbit."""
    lines = ["graph strata {"]
    for i, vec in enumerate(complex_.nodes):
        label = ",".join(str(x) for x in vec)
        lines.append(f'  n{i} [label="({label})"];')
    for left, right, _, _ in complex_.adjacency:
        lines.append(f"  n{left} -- n{right};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def eta_from_doc(doc, graph: Multigraph) -> dict:
    eta = int_map_from_doc(doc, "eta")
    check_keys(eta, graph.vertices, "eta")
    return eta
