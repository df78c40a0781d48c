"""JSON codec round trips and rejection of malformed documents."""

import json
from fractions import Fraction

import pytest

from conftest import loop_graph, theta_graph
from hyperkirch import (
    DomainError,
    MultilinearPoly,
    StabilityParam,
    psi_delcon,
    strata_complex,
)
from hyperkirch.io import (
    dump_json,
    eta_from_doc,
    format_rational,
    graph_from_doc,
    graph_to_doc,
    int_map_from_doc,
    load_json_arg,
    matrix_to_doc,
    orbit_spec_from_doc,
    parse_rational,
    poly_to_doc,
    strata_to_doc,
    strata_to_dot,
)
from hyperkirch.lattice import IntMatrix
from hyperkirch.stability import EdgeOrbit


def test_load_json_arg_inline_and_file(tmp_path):
    assert load_json_arg('{"a": 1}') == {"a": 1}
    assert load_json_arg("[1, 2]") == [1, 2]
    path = tmp_path / "doc.json"
    path.write_text('{"b": [true]}')
    assert load_json_arg(str(path)) == {"b": [True]}
    with pytest.raises(DomainError):
        load_json_arg("no/such/file.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(DomainError):
        load_json_arg(str(bad))


def test_graph_doc_round_trip():
    g = theta_graph()
    doc = graph_to_doc(g)
    assert graph_from_doc(doc) == g
    assert doc["vertices"] == ["u", "v"]
    assert [e["id"] for e in doc["edges"]] == ["e1", "e2", "e3"]


def test_graph_doc_rejections():
    ok = {"vertices": ["a"], "edges": []}
    graph_from_doc(ok)
    with pytest.raises(DomainError):
        graph_from_doc([1, 2])
    with pytest.raises(DomainError):
        graph_from_doc({"vertices": ["a"]})
    with pytest.raises(DomainError):
        graph_from_doc({**ok, "color": "red"})
    with pytest.raises(DomainError):
        graph_from_doc({"vertices": "a", "edges": []})
    with pytest.raises(DomainError):
        graph_from_doc({"vertices": [""], "edges": []})
    with pytest.raises(DomainError):
        graph_from_doc({"vertices": ["a"], "edges": [{"id": "e"}]})
    with pytest.raises(DomainError):
        graph_from_doc(
            {"vertices": ["a"], "edges": [{"id": "e", "head": "a", "tail": "zz"}]}
        )
    with pytest.raises(DomainError):
        graph_from_doc(
            {
                "vertices": ["a"],
                "edges": [
                    {"id": "e", "head": "a", "tail": "a"},
                    {"id": "e", "head": "a", "tail": "a"},
                ],
            }
        )


def test_int_map_decoding():
    doc = {"a": 3, "b": "-7", "c": "0"}
    assert int_map_from_doc(doc, "weights") == {"a": 3, "b": -7, "c": 0}
    with pytest.raises(DomainError):
        int_map_from_doc([1], "weights")
    with pytest.raises(DomainError):
        int_map_from_doc({"a": True}, "weights")
    with pytest.raises(DomainError):
        int_map_from_doc({"a": 1.5}, "weights")
    for bad in ("three", "1_000", " 7 ", "+7", "\u0663", "-", "--7", ""):
        with pytest.raises(DomainError, match=r"weights\['a'\] is not an integer"):
            int_map_from_doc({"a": bad}, "weights")


def test_orbit_spec_decoding():
    doc = {"e1": "generic", "e2": {"segment": -2}, "e3": {"point": 0}}
    spec = orbit_spec_from_doc(doc)
    assert spec == {
        "e1": EdgeOrbit("generic"),
        "e2": EdgeOrbit("segment", -2),
        "e3": EdgeOrbit("point", 0),
    }
    for bad in (
        ["generic"],
        {"e": "free"},
        {"e": {"segment": True}},
        {"e": {"segment": 1, "point": 2}},
        {"e": {"corner": 1}},
        {"e": 3},
    ):
        with pytest.raises(DomainError):
            orbit_spec_from_doc(bad)


def test_rational_strings():
    assert format_rational(5) == "5"
    assert format_rational(Fraction(6, 7)) == "6/7"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert parse_rational("6/7") == Fraction(6, 7)
    assert parse_rational("5") == 5
    assert parse_rational(format_rational(Fraction(22, 8))) == Fraction(11, 4)
    with pytest.raises(DomainError):
        parse_rational("six sevenths")
    with pytest.raises(DomainError):
        parse_rational("1/0")
    with pytest.raises(DomainError):
        parse_rational(7)


def test_matrix_doc():
    m = IntMatrix([[2, -1], [-1, 2]])
    assert matrix_to_doc(m) == {"rows": 2, "cols": 2, "entries": [[2, -1], [-1, 2]]}


def test_poly_doc_sorted():
    poly = psi_delcon(theta_graph())
    doc = poly_to_doc(poly)
    assert doc["variables"] == ["e1", "e2", "e3"]
    assert doc["monomials"] == [
        {"support": ["e1", "e2"], "coefficient": 1},
        {"support": ["e1", "e3"], "coefficient": 1},
        {"support": ["e2", "e3"], "coefficient": 1},
    ]
    empty = poly_to_doc(MultilinearPoly.from_terms(frozenset(), {}))
    assert empty == {"variables": [], "monomials": []}


def test_strata_docs():
    sc = strata_complex(loop_graph(), StabilityParam({"v1": 0}, 2))
    doc = strata_to_doc(sc)
    assert doc["node_count"] == 2
    assert doc["edge_order"] == ["e1"]
    assert len(doc["adjacency"]) == 2
    assert doc["connected"] is True
    for node in doc["nodes"]:
        assert {"face", "dimension"} == set(node["faces"][0])
    dot = strata_to_dot(sc)
    lines = dot.splitlines()
    assert lines[0] == "graph strata {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "--" in ln) == 2
    assert sum(1 for ln in lines if "label=" in ln) == 2
    assert dot.endswith("}\n")


def test_dump_json_canonical():
    assert dump_json({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    # key order in the input must not matter
    assert dump_json({"a": [2], "b": 1}) == dump_json({"b": 1, "a": [2]})


def test_eta_doc_checks_vertex_cover():
    g = theta_graph()
    assert eta_from_doc({"u": -1, "v": 1}, g) == {"u": -1, "v": 1}
    with pytest.raises(DomainError):
        eta_from_doc({"u": -1}, g)
    with pytest.raises(DomainError):
        eta_from_doc({"u": -1, "v": 1, "w": 0}, g)
