"""Command line behaviour: golden outputs, exit codes, determinism."""

import json
import subprocess
import sys

from conftest import cli_env, complete_graph, cycle_graph, path_graph, theta_graph
from hyperkirch import cli, stability
from hyperkirch.cli import run
from hyperkirch.io import graph_to_doc

LOOP = json.dumps({"vertices": ["v"], "edges": [{"id": "e", "head": "v", "tail": "v"}]})
THETA = json.dumps(graph_to_doc(theta_graph()))
CYCLE3 = json.dumps(graph_to_doc(cycle_graph(3)))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_golden(capsys):
    code, out, err = invoke(capsys, "psi", "--graph", THETA, "--method", "both")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["engines_agree"] is True
    assert doc["degree"] == 2
    assert doc["monomials"] == [
        {"coefficient": 1, "support": ["e1", "e2"]},
        {"coefficient": 1, "support": ["e1", "e3"]},
        {"coefficient": 1, "support": ["e2", "e3"]},
    ]


def test_psi_evaluation(capsys):
    code, out, _ = invoke(
        capsys, "psi", "--graph", THETA, "--weights", '{"e1": 2, "e2": 3, "e3": 5}'
    )
    assert code == 0
    assert json.loads(out)["value"] == "31"


def test_psi_weights_reject_unknown_edge(capsys):
    code, out, _ = invoke(
        capsys, "psi", "--graph", THETA,
        "--weights", '{"e1": 2, "e2": 3, "e3": 5, "zz": 7}',
    )
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert doc["error"]["type"] == "DomainError"
    assert "'zz'" in doc["error"]["message"]


def test_volume_golden_bytes(capsys):
    code, out, err = invoke(
        capsys, "volume", "--graph", LOOP, "--weights", '{"e": 1}', "--q", "7"
    )
    assert code == 0 and err == ""
    assert out == (
        "{\n"
        '  "betti1": 1,\n'
        '  "kirchhoff_value": 1,\n'
        '  "q": 7,\n'
        '  "volume": "6/7"\n'
        "}\n"
    )


def test_volume_table_format(capsys):
    code, out, _ = invoke(
        capsys,
        "volume",
        "--graph", LOOP,
        "--weights", '{"e": 1}',
        "--q", "7",
        "--format", "table",
    )
    assert code == 0
    assert out == "betti1\t1\nkirchhoff_value\t1\nq\t7\nvolume\t6/7\n"


def test_weights_from_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"e": 2}')
    code, out, _ = invoke(
        capsys, "volume", "--graph", LOOP, "--weights", str(path), "--q", "3"
    )
    assert code == 0
    # (1 - 1/3) * psi(2) = 4/3, fibre densities may exceed one
    assert json.loads(out)["volume"] == "4/3"


def test_total_volume_with_oracle(capsys):
    code, out, _ = invoke(capsys, "total-volume", "--graph", CYCLE3)
    assert code == 0
    assert json.loads(out) == {"total_volume": 3}
    code, out, _ = invoke(
        capsys,
        "total-volume",
        "--graph", CYCLE3,
        "--oracle", "--p", "3", "--k", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_volume"] == 3
    assert doc["oracle"]["within_bound"] is True
    assert doc["oracle"]["method"] == "exhaustive"


def test_point_count(capsys):
    code, out, _ = invoke(capsys, "point-count", "--graph", THETA, "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["point_count"] == 27
    assert doc["forest_count"] == 3


def test_tamagawa(capsys):
    code, out, _ = invoke(
        capsys, "tamagawa", "--graph", THETA, "--weights", '{"e1":2,"e2":3,"e3":5}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"determinant": 31, "invariant_factors": [1, 31], "order": 31}


def test_trop(capsys):
    code, out, _ = invoke(
        capsys,
        "trop",
        "--graph", THETA,
        "--weights", '{"e1":1,"e2":1,"e3":1}',
        "--q", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["covolume"] == 3
    assert doc["volume_check"] == {"q": 2, "fibre_volume": "3/4", "agrees": True}


def test_stability_and_warning(capsys):
    orbits = '{"e1":"generic","e2":"generic","e3":"generic"}'
    code, out, err = invoke(
        capsys,
        "stability",
        "--graph", THETA,
        "--eta", '{"u":-1,"v":1}',
        "--n", "2",
        "--orbits", orbits,
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {"N": 2, "semistable": True}
    code, out, err = invoke(
        capsys,
        "stability",
        "--graph", THETA,
        "--eta", '{"u":0,"v":0}',
        "--n", "1",
        "--orbits", orbits,
    )
    assert code == 0
    assert json.loads(out) == {"N": 1, "semistable": True}
    assert "N = 1" in err


def test_stability_on_3000_edge_cycle(capsys):
    g = cycle_graph(3000)
    eta = {v: 0 for v in g.vertices}
    eta["v1"], eta["v1501"] = 1, -1
    orbits = {eid: {"segment": 0} for eid in g.edge_ids}
    code, out, _ = invoke(
        capsys,
        "stability",
        "--graph", json.dumps(graph_to_doc(g)),
        "--eta", json.dumps(eta),
        "--n", "1",
        "--orbits", json.dumps(orbits),
    )
    assert code == 0
    assert json.loads(out) == {"N": 1, "semistable": True}


def test_total_volume_on_1200_edge_path(capsys):
    doc = json.dumps(graph_to_doc(path_graph(1200)))
    code, out, _ = invoke(capsys, "total-volume", "--graph", doc)
    assert code == 0
    assert json.loads(out) == {"total_volume": 1}


def test_generic_direct_and_search(capsys):
    code, out, _ = invoke(
        capsys, "generic", "--graph", THETA, "--eta", '{"u":-1,"v":1}', "--n", "2"
    )
    assert code == 0
    assert json.loads(out) == {"N": 2, "generic": True}
    code, out, _ = invoke(
        capsys, "generic", "--graph", THETA, "--search", "1", "--n", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["eta"] == {"u": -1, "v": 1}
    assert doc["checked"] == 1
    code, out, _ = invoke(
        capsys, "generic", "--graph", THETA, "--search", "0", "--n", "2"
    )
    assert code == 0
    assert json.loads(out)["found"] is False


def test_strata_json_and_dot(capsys):
    code, out, _ = invoke(
        capsys, "strata", "--graph", LOOP, "--eta", '{"v":0}', "--n", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["node_count"] == 3
    assert len(doc["adjacency"]) == 3
    assert doc["connected"] is True
    code, dot, _ = invoke(
        capsys,
        "strata",
        "--graph", LOOP,
        "--eta", '{"v":0}',
        "--n", "3",
        "--format", "dot",
    )
    assert code == 0
    lines = dot.splitlines()
    assert lines[0] == "graph strata {"
    assert sum(1 for ln in lines if "label=" in ln) == 3
    assert sum(1 for ln in lines if " -- " in ln) == 3


def test_fragment_round_trip(capsys):
    code, out, _ = invoke(capsys, "fragment", "--graph", LOOP, "--counts", '{"e": 3}')
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 3
    assert len(doc["vertices"]) == 3
    code, out, _ = invoke(capsys, "total-volume", "--graph", json.dumps(doc))
    assert code == 0
    assert json.loads(out) == {"total_volume": 3}


def test_domain_error_record(capsys):
    code, out, err = invoke(
        capsys, "volume", "--graph", LOOP, "--weights", '{"e": 0}', "--q", "7"
    )
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"type", "message"}
    code, out, _ = invoke(capsys, "psi", "--graph", "no/such/file.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_errors(capsys):
    assert invoke(capsys, "volume", "--graph", LOOP, "--weights", "{}")[0] == 2
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "psi", "--graph", LOOP, "--format", "dot")[0] == 2


def _cli_bytes(argv, extra_env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperkirch.cli", *argv],
        capture_output=True,
        env=cli_env(extra_env),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_subprocess_byte_determinism():
    strata_args = ["strata", "--graph", THETA, "--eta", '{"u":-1,"v":1}', "--n", "2"]
    assert _cli_bytes(strata_args) == _cli_bytes(strata_args)
    oracle = [
        "total-volume", "--graph", CYCLE3, "--oracle", "--p", "2", "--k", "6",
    ]
    assert _cli_bytes(oracle) == _cli_bytes(oracle)
    mc = oracle + ["--monte-carlo", "--samples", "500", "--seed", "11"]
    assert _cli_bytes(mc) == _cli_bytes(mc)


def test_budget_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "2")
    code, out, _ = invoke(capsys, "psi", "--graph", THETA, "--method", "enum")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"
    code, out, _ = invoke(
        capsys, "strata", "--graph", THETA, "--eta", '{"u":-1,"v":1}', "--n", "2"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"


def test_generic_search_budget_checked_before_any_candidate(capsys, monkeypatch):
    """201^3 candidate weights on K4, each a scan of 2^3 bond candidates, is
    over the default budget and must be refused before the first is_generic
    call."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("is_generic ran before the budget check")

    monkeypatch.setattr(stability, "is_generic", never)
    monkeypatch.setattr(cli, "is_generic", never)
    k4 = json.dumps(graph_to_doc(complete_graph(4)))
    code, out, _ = invoke(capsys, "generic", "--graph", k4, "--n", "1", "--search", "100")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"
    assert calls == []
