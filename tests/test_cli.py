"""Command line behaviour: golden outputs, exit codes, determinism."""

import ast
import json
import subprocess
import sys
import time

import pytest

from conftest import cli_env, complete_graph, cycle_graph, path_graph, theta_graph
from hyperkirch import cli, kirchhoff, stability
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


def test_volume_builds_psi_once(capsys, monkeypatch):
    """The Kirchhoff value is read back from the one fibre volume, so one
    CLI volume call runs the deletion-contraction engine once."""
    delcon = kirchhoff._delcon
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return delcon(*args, **kwargs)

    monkeypatch.setattr(kirchhoff, "_delcon", counted)
    weights = '{"e1": 2, "e2": 3, "e3": 5}'
    code, out, _ = invoke(capsys, "volume", "--graph", THETA, "--weights", weights, "--q", "3")
    assert code == 0
    # Psi(2, 3, 5) = 6 + 10 + 15 and (2/3)^2 * 31 = 124/9
    assert json.loads(out) == {"betti1": 2, "kirchhoff_value": 31, "q": 3, "volume": "124/9"}
    assert len(calls) == 1
    code, out, _ = invoke(capsys, "volume", "--graph", THETA, "--weights", weights, "--q", "1")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "q must be an integer >= 2"


def test_trop_builds_psi_once(capsys, monkeypatch):
    """trop --q compares the one fibre volume with the covolume of the torus
    it has already built, so the deletion-contraction engine runs once."""
    delcon = kirchhoff._delcon
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return delcon(*args, **kwargs)

    monkeypatch.setattr(kirchhoff, "_delcon", counted)
    weights = '{"e1": 2, "e2": 3, "e3": 5}'
    code, out, _ = invoke(capsys, "trop", "--graph", THETA, "--weights", weights, "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["covolume"] == 31
    assert doc["volume_check"] == {"agrees": True, "fibre_volume": "124/9", "q": 3}
    assert len(calls) == 1


ISOLATED_52 = json.dumps({"vertices": [f"v{i}" for i in range(52)], "edges": []})
THETA2 = json.dumps(
    {"vertices": ["u", "v"], "edges": [{"id": f"e{i}", "head": "u", "tail": "v"} for i in (1, 2)]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["total-volume", "--graph", THETA, "--oracle", "--p", "3", "--k", "10000"],
        ["generic", "--graph", ISOLATED_52, "--n", "2", "--search", str(10**99 + 7)],
        ["total-volume", "--graph", THETA2, "--oracle", "--k", "1",
         "--p", str((10**12 + 39) * (10**12 + 61))],
        ["total-volume", "--graph", THETA2, "--oracle", "--k", "1", "--p", str(10**30 + 57)],
        ["fragment", "--graph", THETA2, "--counts", '{"e1": 10000000, "e2": 1}'],
        ["total-volume", "--graph", THETA, "--oracle", "--monte-carlo", "--p", "3",
         "--k", "3000000", "--samples", "2"],
    ],
    ids=["oracle-classes", "generic-search", "composite-p", "huge-p", "fragment",
         "monte-carlo-precision"],
)
def test_oversized_requests_refused_fast(capsys, argv):
    """Each request is refused with an error record, not a traceback, within
    a second: a need too long to print, a prime test past trial division's
    reach, a fragmentation too large to build, and an oracle precision whose
    error bound could not be printed."""
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err == ""
    assert json.loads(out)["error"]["type"] in ("BudgetExceededError", "DomainError")


def test_monte_carlo_samples_capped(capsys):
    code, out, _ = invoke(
        capsys, "total-volume", "--graph", CYCLE3, "--oracle", "--p", "2", "--k", "3",
        "--monte-carlo", "--samples", "3000000",
    )
    assert code == 1
    assert json.loads(out) == {
        "error": {
            "type": "BudgetExceededError",
            "message": "oracle samples: 3000000 needed, budget is 2000000",
        }
    }


def test_point_count(capsys):
    code, out, _ = invoke(capsys, "point-count", "--graph", THETA, "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["point_count"] == 27
    assert doc["forest_count"] == 3


def test_point_count_counts_forests_once(capsys, monkeypatch):
    """The forest count is read back from the point count, so one CLI
    point-count call runs the deletion-contraction engine once."""
    from hyperkirch import volumes

    delcon = volumes._delcon
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return delcon(*args, **kwargs)

    monkeypatch.setattr(volumes, "_delcon", counted)
    code, out, _ = invoke(capsys, "point-count", "--graph", CYCLE3, "--q", "5")
    assert code == 0
    assert json.loads(out) == {"betti1": 1, "forest_count": 3, "point_count": 15, "q": 5}
    assert len(calls) == 1
    code, out, _ = invoke(capsys, "point-count", "--graph", CYCLE3, "--q", "1")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "q must be an integer >= 2"


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


def test_argument_combinations_refused_as_domain_errors(capsys):
    """Options that argparse accepts but that do not fit together: exit 1,
    one JSON error record on stdout and nothing on stderr."""
    cases = [
        (("total-volume", "--oracle"), "--oracle needs --p and --k"),
        (("total-volume", "--oracle", "--p", "1", "--k", "2"), "p = 1 is not prime"),
        (("generic", "--n", "2"), "generic needs --eta unless --search is given"),
        (("generic", "--n", "2", "--search", "-1"), "--search radius must be nonnegative"),
    ]
    for (command, *options), message in cases:
        code, out, err = invoke(capsys, command, "--graph", THETA, *options)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "DomainError", "message": message}}


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
    over the default budget and must be refused before any bond or candidate
    is examined."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("bonds listed before the budget check")

    monkeypatch.setattr(stability, "_bonds", never)
    k4 = json.dumps(graph_to_doc(complete_graph(4)))
    code, out, _ = invoke(capsys, "generic", "--graph", k4, "--n", "1", "--search", "100")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceededError"
    assert calls == []


def test_generic_search_lists_bonds_once(capsys, monkeypatch):
    """Every candidate weight is judged against one listing of the bonds."""
    bonds = stability._bonds
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bonds(*args, **kwargs)

    monkeypatch.setattr(stability, "_bonds", counted)
    k4 = json.dumps(graph_to_doc(complete_graph(4)))
    code, out, _ = invoke(capsys, "generic", "--graph", k4, "--n", "1", "--search", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["checked"] > 1
    assert len(calls) == 1


def test_psi_and_volume_refuse_k9_before_the_engine(capsys):
    """K9 has 4,782,969 forests: CLI psi and volume exit 1 with one budget
    error record instead of running out of memory."""
    k9 = complete_graph(9)
    doc = json.dumps(graph_to_doc(k9))
    ones = json.dumps({e: 1 for e in k9.edge_ids})
    for argv in (
        ["psi", "--graph", doc],
        ["volume", "--graph", doc, "--weights", ones, "--q", "2"],
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "type": "BudgetExceededError",
                "message": "psi_delcon monomials: 4782969 needed, budget is 2000000",
            }
        }


# Runs each argument vector through cli.run in one fresh interpreter, after
# dropping every hyperkirch module and fractions that the previous vector
# loaded, and prints which watched modules the bare interpreter had and, per
# vector, the exit code and the hyperkirch and watched modules loaded by then.
_LOADED_MODULES = """
import contextlib, io, sys
watched = ("dataclasses", "fractions")
bare = [n for n in watched if n in sys.modules]
out = {}
for label, argv in VECTORS:
    for name in [n for n in sys.modules if n.partition(".")[0] == "hyperkirch"]:
        del sys.modules[name]
    if "fractions" not in bare:
        sys.modules.pop("fractions", None)
    from hyperkirch import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    out[label] = (code, sorted(n for n in sys.modules
                               if n.partition(".")[0] == "hyperkirch" or n in watched))
print(repr((bare, out)))
"""


def test_each_subcommand_loads_only_what_it_runs():
    """One child process, so one interpreter start for every subcommand.
    fragment and a usage error load no library module beyond graphs and io,
    psi loads no stability, no subcommand loads dataclasses, and psi
    without --weights, fragment, tamagawa, stability, generic, strata and a
    usage error load no fractions, each unless the bare interpreter already
    had it."""
    ones = json.dumps({"e1": 1, "e2": 1, "e3": 1})
    eta = '{"u": -1, "v": 1}'
    vectors = [
        ("psi", ["psi", "--graph", THETA, "--method", "both", "--weights", ones]),
        ("psi-unweighted", ["psi", "--graph", THETA, "--method", "both"]),
        ("tamagawa", ["tamagawa", "--graph", THETA, "--weights", ones]),
        ("volume", ["volume", "--graph", THETA, "--weights", ones, "--q", "2"]),
        ("total-volume", ["total-volume", "--graph", THETA, "--oracle", "--p", "2", "--k", "2"]),
        ("point-count", ["point-count", "--graph", THETA, "--q", "2"]),
        ("stability", ["stability", "--graph", THETA, "--eta", eta, "--n", "2",
                       "--orbits", '{"e1": "generic", "e2": {"segment": 0}, "e3": {"point": 1}}']),
        ("generic", ["generic", "--graph", THETA, "--n", "2", "--search", "1"]),
        ("strata", ["strata", "--graph", THETA, "--eta", eta, "--n", "2"]),
        ("trop", ["trop", "--graph", THETA, "--weights", ones, "--q", "2"]),
        ("fragment", ["fragment", "--graph", THETA, "--counts", '{"e1": 2, "e2": 1, "e3": 1}']),
        ("usage-error", ["psi", "--method", "nope"]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"VECTORS = {vectors!r}\n{_LOADED_MODULES}"],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    bare, loaded = ast.literal_eval(proc.stdout.decode())
    assert set(loaded) == {label for label, _ in vectors}
    for label, (code, modules) in loaded.items():
        assert code == (2 if label == "usage-error" else 0), label
        assert "dataclasses" in bare or "dataclasses" not in modules, label
    for label in ("psi-unweighted", "fragment", "tamagawa", "stability", "generic", "strata",
                  "usage-error"):
        assert "fractions" in bare or "fractions" not in loaded[label][1], label
    core = ["hyperkirch", "hyperkirch.cli", "hyperkirch.graphs", "hyperkirch.io"]
    assert [n for n in loaded["fragment"][1] if n not in bare] == core
    assert [n for n in loaded["usage-error"][1] if n not in bare] == core
    assert "hyperkirch.stability" not in loaded["psi"][1]
    assert "hyperkirch.volumes" not in loaded["psi"][1]
    assert "hyperkirch.kirchhoff" not in loaded["strata"][1]
