import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import weightscape
from weightscape.cli import _build_parser, run

from conftest import CACHE_TAMPERS, refuse_cache_read, tamper_chamber_cache


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


W5 = '{"genus":0,"weights":["1","1","1","1","1"]}'
W4 = '{"genus":0,"weights":["1","1","1","1"]}'
LM4 = '{"genus":0,"weights":["1","1","1/2","1/2"]}'
TREE4 = json.dumps({
    "vertices": [
        {"id": 1, "genus": 0, "classes": [[1], [2]],
         "node_supported": [False, False]},
        {"id": 2, "genus": 0, "classes": [[3], [4]],
         "node_supported": [False, False]},
    ],
    "edges": [[1, 2]],
})
THIRD6 = json.dumps({"t": ["1/3"] * 6})
LM5 = '{"genus":0,"weights":["1","1","1/3","1/3","1/3"]}'
# one call per subcommand, in the README's order
CLI_CALLS = {
    "validate": ["validate", "--weights", W4],
    "walls": ["walls", "--genus", "0", "--n", "5"],
    "chambers": ["chambers", "--genus", "0", "--n", "4"],
    "locate": ["locate", "--weights", W5],
    "perturb": ["perturb", "--weights", LM5],
    "ucurve": ["ucurve", "--weights", W4],
    "stabilize": ["stabilize", "--weights", W4, "--target", LM4,
                  "--tree", TREE4],
    "forget": ["forget", "--weights", W4, "--tree", TREE4, "--keep", "1,2,3"],
    "strata": ["strata", "--weights", W5, "--max-codim", "2"],
    "boundary": ["boundary", "--weights", LM4],
    "reduce": ["reduce", "--weights", W5, "--target", LM5],
    "git-stability": ["git-stability", "--linearization", THIRD6, "--config",
                      '{"classes":[[1,2,3],[4],[5],[6]]}'],
    "git-sstypes": ["git-sstypes", "--linearization", THIRD6],
    "tau": ["tau", "--weights",
            '{"genus":0,"weights":["1/2","1/2","1/2","1/2","1/2"]}'],
    "match-quotient": ["match-quotient", "--weights", W5, "--linearization",
                       json.dumps({"t": ["2/5"] * 5})],
    "lc-kapranov": ["lc-kapranov", "--n", "6", "--k", "1", "--alpha", "1/2"],
    "lc-keel": ["lc-keel", "--n", "6", "--alpha", "1/3", "--beta", "2/3"],
    "remark76": ["remark76"],
    "named-classify": ["named-classify", "--weights", LM5],
    "named-weights": ["named-weights", "--family", "W(1,2)", "--n", "6"],
    "blowup-seq": ["blowup-seq", "--family", "X", "--n", "6"],
}


def test_validate():
    payload = invoke_json(["validate", "--weights", W4])
    assert payload["valid"] and payload["weights"] == ["1", "1", "1", "1"]


def test_validate_failure_exit_code():
    code, _, err = invoke(["validate", "--weights",
                           '{"genus":0,"weights":["1/2","1/2","1/2","1/2"]}'])
    assert code == 1 and "2g-2" in err


def test_bool_weight_data_exit_code():
    for payload in ('{"genus":true,"weights":["1","1","1"]}',
                    '{"genus":0,"weights":[true,"1","1"]}'):
        code, out, err = invoke(["validate", "--weights", payload, "--json"])
        assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv, entry", [
    (["validate", "--weights", '{"genus":0,"weights":[0.5,1,1,1]}'], "a_1"),
    (["validate", "--weights", '{"genus":0,"weights":[1,1,1,"abc"]}'], "a_4"),
    (["validate", "--weights", '{"genus":0,"weights":[1,"1/0",1,1]}'], "a_2"),
    (["git-sstypes", "--linearization", '{"t":["1/2",0.5,"1/2","1/2"]}'],
     "t_2"),
])
def test_inexact_entry_is_domain_error(argv, entry):
    code, out, err = invoke(argv + ["--json"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {entry} = ") and "Traceback" not in err


def _tree4(edges=(), **vertex):
    """A one-vertex tree payload on markings 1..4, with vertex fields
    overridden."""
    entry = {"id": 1, "genus": 0, "classes": [[1], [2], [3], [4]], **vertex}
    return {"vertices": [entry], "edges": list(edges)}


def _stabilize4(tree):
    return ["stabilize", "--weights", W4, "--target", W4,
            "--tree", json.dumps(tree)]


def _git_stability(config):
    return ["git-stability", "--config", config, "--linearization",
            '{"t":["1/2","1/2","1/2","1/2"]}']


@pytest.mark.parametrize("argv, message", [
    (["validate", "--weights", '{"genus":0,"weights":"1111"}'],
     "a must be a list"),
    (["validate", "--weights", '{"genus":0,"weights":{"1":1,"2":1,"3":1}}'],
     "a must be a list"),
    (["validate", "--weights", '{"genus":0,"weights":5}'], "a must be a list"),
    (["git-sstypes", "--linearization", '{"t":"111111"}'], "t must be a list"),
    (["validate", "--weights", "[1,2]"], "a payload must be a JSON object"),
    (["git-sstypes", "--linearization", '["1/2","1/2","1/2","1/2"]'],
     "a payload must be a JSON object"),
    (["lc-kapranov", "--n", "6", "--k", "1", "--alpha", "abc"],
     "alpha = 'abc' is not an exact rational"),
    (["lc-keel", "--n", "7", "--alpha", "1/x", "--beta", "1/2"],
     "alpha = '1/x' is not an exact rational"),
    (["lc-keel", "--n", "7", "--alpha", "1/4", "--beta", "1/0"],
     "beta = '1/0' is not an exact rational"),
    (["validate", "--weights", '{"weights":[1,1,1]}'],
     "the payload has no key 'genus'"),
    (_stabilize4({"vertices": [{"id": 1, "genus": 0,
                                "classes": [[1], [2], [3], [4]]}]}),
     "the payload has no key 'edges'"),
    (_stabilize4(_tree4(node_supported=[False] * 3)),
     "node_supported must be a list of 4 bools"),
    (_stabilize4(_tree4(node_supported=[0] * 4)),
     "node_supported must be a list of 4 bools"),
    (_stabilize4(_tree4(id="a")), "vertex id must be an integer"),
    (_stabilize4(_tree4(id=True)), "vertex id must be an integer"),
    (_stabilize4(_tree4(genus=True)), "genus must be an integer"),
    (_stabilize4(_tree4(classes=[[1.7], [2], [3], [4]])),
     "marking must be an integer"),
    (_stabilize4(_tree4(classes=[[1], [2], [3], 4])),
     "classes must be a list of lists"),
    (_stabilize4({"vertices": [5], "edges": []}),
     "vertices must be a list of dicts"),
    (_stabilize4(_tree4(edges=[[1, 1, 1]])),
     "an edge must be a list of 2 ints"),
    (["forget", "--weights", W4, "--tree", json.dumps(_tree4()),
      "--keep", "1,a"], "--keep entry 'a' is not an integer"),
    (["strata", "--weights", W4, "--max-codim", "-1"],
     "max_codim must be nonnegative"),
    (["strata", "--weights", W4, "--max-codim", "1", "--limit", "-1"],
     "limit must be nonnegative"),
    (["chambers", "--genus", "0", "--n", "4", "--limit", "-1"],
     "limit must be nonnegative"),
    (_git_stability('{"classes":[[1,2],[3],[4.5]]}'),
     "marking must be an integer, got 4.5"),
    (_git_stability('{"classes":[[1,2],[3],["4"]]}'),
     "marking must be an integer, got '4'"),
    (_git_stability('{"classes":[[true],[2],[3],[4]]}'),
     "marking must be an integer, got True"),
    (_git_stability('{"classes":["a"]}'), "classes must be a list of lists"),
    (_git_stability('{"classes":5}'), "classes must be a list of lists"),
    (_git_stability('{"classes":[true]}'), "classes must be a list of lists"),
    (_git_stability('{"classes":[[1,2],[],[3],[4]]}'),
     "configuration classes must be nonempty"),
])
def test_input_grammar_errors(argv, message):
    code, out, err = invoke(argv + ["--json"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_deeply_nested_payload_is_domain_error():
    # json.loads gives up on this with a RecursionError
    code, out, err = invoke(["validate", "--weights", "[" * 100000, "--json"])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot parse JSON payload: ")
    assert "Traceback" not in err


def test_non_utf8_payload_file_is_domain_error(tmp_path):
    path = tmp_path / "weights.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(["locate", "--weights", str(path), "--json"])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot parse JSON payload: ")
    assert err.count("\n") == 1
    # the same through a fresh process, where an escaped exception would
    # print a traceback
    src = os.path.dirname(os.path.dirname(weightscape.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "weightscape.cli", "locate", "--weights",
         str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stdout, child.stderr) == (1, "", err)


def test_imports_only_the_standard_library():
    # `dependencies = []`: importing every module of the package in a fresh
    # process loads no top-level module outside the standard library.  The
    # package loads its modules on first use, so each is imported by name.
    # Modules the interpreter loaded before the import (site hooks) are
    # the environment's, not the package's.
    package = os.path.dirname(weightscape.__file__)
    modules = sorted(f"weightscape.{name[:-3]}" for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    assert {"weightscape.cli", "weightscape.curves"} <= set(modules)
    child = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys; before = set(sys.modules)\n"
         "for name in sys.argv[1:]: importlib.import_module(name)\n"
         "print(*sorted({m.partition('.')[0] for m in sys.modules\n"
         "               if m not in before}))", *modules],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(package)})
    loaded = set(child.stdout.split())
    assert "weightscape" in loaded
    assert loaded - {"weightscape"} <= sys.stdlib_module_names


LAZY = {"weightscape.curves", "weightscape.git", "weightscape.logcanon",
        "weightscape.named"}


@pytest.mark.parametrize("argv, loads", [
    (["walls", "--genus", "0", "--n", "5"], set()),
    (["validate", "--weights", W4], set()),
    (["locate", "--weights", W5], set()),
    (["chambers", "--genus", "0", "--n", "4", "--cache-dir", "{cold}"], set()),
    (["chambers", "--genus", "0", "--n", "4", "--cache-dir", "{warm}"], set()),
    (["strata", "--weights", W5, "--max-codim", "2"], {"weightscape.curves"}),
    (["boundary", "--weights", W4], {"weightscape.curves"}),
    (["reduce", "--weights", W4, "--target", LM4], {"weightscape.curves"}),
    (["stabilize", "--weights", W4, "--tree", TREE4, "--target", LM4],
     {"weightscape.curves"}),
    (["forget", "--weights", W4, "--tree", TREE4, "--keep", "1,2,3"],
     {"weightscape.curves"}),
    (CLI_CALLS["perturb"], set()),
    (CLI_CALLS["ucurve"], set()),
    (CLI_CALLS["git-stability"], {"weightscape.git"}),
    (CLI_CALLS["git-sstypes"], {"weightscape.git"}),
    (CLI_CALLS["tau"], {"weightscape.git"}),
    (CLI_CALLS["match-quotient"], {"weightscape.git"}),
    (CLI_CALLS["lc-kapranov"], {"weightscape.logcanon"}),
    (CLI_CALLS["lc-keel"], {"weightscape.logcanon"}),
    (CLI_CALLS["named-classify"], {"weightscape.named", "weightscape.curves"}),
    (CLI_CALLS["named-weights"], {"weightscape.named", "weightscape.curves"}),
    (CLI_CALLS["blowup-seq"], {"weightscape.named", "weightscape.curves"}),
    (CLI_CALLS["remark76"], LAZY),
], ids=["walls", "validate", "locate", "chambers-cold", "chambers-cache-hit",
        "strata", "boundary", "reduce", "stabilize", "forget", "perturb",
        "ucurve", "git-stability", "git-sstypes", "tau", "match-quotient",
        "lc-kapranov", "lc-keel", "named-classify", "named-weights",
        "blowup-seq", "remark76"])
def test_subcommand_loads_only_the_modules_it_uses(tmp_path, argv, loads):
    # a fresh process runs one subcommand, then lists the package modules
    # it loaded: curves, git, logcanon and named only where the call uses
    # them
    cache = {"{cold}": str(tmp_path / "cold"), "{warm}": str(tmp_path / "warm")}
    if "{warm}" in argv:  # the child's run is a cache hit
        assert invoke(["chambers", "--genus", "0", "--n", "4",
                       "--cache-dir", cache["{warm}"]])[0] == 0
    argv = [cache.get(arg, arg) for arg in argv]
    env = {key: value for key, value in os.environ.items()
           if key != "WEIGHTSCAPE_CACHE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(weightscape.__file__))
    child = subprocess.run(
        [sys.executable, "-c",
         "import io, sys\n"
         "from weightscape.cli import run\n"
         "code = run(sys.argv[1:], out=io.StringIO())\n"
         "print(code, *sorted(m for m in sys.modules\n"
         "                    if m.startswith('weightscape.')))", *argv],
        capture_output=True, text=True, check=True, env=env)
    code, *loaded = child.stdout.split()
    assert code == "0", child.stderr
    assert set(loaded) & LAZY == loads


def test_library_key_error_is_internal(monkeypatch):
    from weightscape import curves

    def broken(data):
        raise KeyError(7)

    monkeypatch.setattr(curves, "boundary_divisors", broken)
    code, out, err = invoke(["boundary", "--weights", W4])
    assert code == 3 and out == ""
    assert err.startswith("internal invariant breach")


def test_no_subcommand_prints_usage():
    code, out, err = invoke([])
    assert (code, out) == (1, "")
    assert err.startswith("usage: weightscape ")


def test_readme_lists_every_subcommand():
    # the README's "Subcommands:" paragraph, in the parser's order
    text = (Path(__file__).parent.parent / "README.md").read_text()
    paragraph = text.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert re.findall(r"`([^`]+)`", paragraph) == list(action.choices)


def test_unknown_subcommand():
    code, _, err = invoke(["no-such-command"])
    assert code == 1


def test_missing_flag_is_usage_error():
    code, _, err = invoke(["locate"])
    assert code == 1


def test_boundary_counts():
    payload = invoke_json(["boundary", "--weights", W5])
    assert payload["nodal_count"] == 10
    assert payload["coincidence_count"] == 0
    payload = invoke_json(["boundary", "--weights", LM4])
    assert (payload["nodal_count"], payload["coincidence_count"]) == (2, 1)


def test_stabilize_fixture():
    payload = invoke_json(["stabilize", "--weights", W4, "--target", LM4,
                           "--tree", TREE4])
    assert payload == {
        "vertices": [{"id": 1, "genus": 0, "classes": [[1], [2], [3, 4]],
                      "node_supported": [False, False, False]}],
        "edges": [],
    }


def test_forget():
    payload = invoke_json(["forget", "--weights", W5, "--keep", "1,2,3,4",
                           "--tree", json.dumps({
                               "vertices": [{"id": 1, "genus": 0,
                                             "classes": [[1], [2], [3], [4], [5]],
                                             "node_supported": [False] * 5}],
                               "edges": []})])
    assert payload["vertices"][0]["classes"] == [[1], [2], [3], [4]]


def test_remark76_json():
    payload = invoke_json(["remark76"])
    assert payload["ample_lc_range"]["lower_exclusive"] == "2/5"
    assert payload["ample_lc_range"]["upper_inclusive"] == "1/2"
    assert payload["semistable_type_count"] == 10


def test_json_is_byte_deterministic():
    first = invoke(["remark76", "--json"])
    second = invoke(["remark76", "--json"])
    assert first == second
    assert first[1].endswith("\n")


def test_table_output_derived_from_payload():
    code, table, _ = invoke(["remark76"])
    assert code == 0
    assert "semistable_type_count: 10" in table


def test_chambers_with_cache(tmp_path):
    cache = str(tmp_path)
    cold = invoke(["chambers", "--genus", "0", "--n", "4", "--cache-dir",
                   cache, "--json"])
    warm = invoke(["chambers", "--genus", "0", "--n", "4", "--cache-dir",
                   cache, "--json"])
    no_cache = invoke(["chambers", "--genus", "0", "--n", "4", "--json"])
    assert cold == warm == no_cache
    assert (tmp_path / "chambers-g0-n4-fine.json").read_text() == cold[1]


@pytest.mark.parametrize("kind", CACHE_TAMPERS)
def test_chambers_tampered_cache(tmp_path, kind):
    argv = ["chambers", "--genus", "0", "--n", "4", "--json"]
    cold = invoke(argv)
    path = tmp_path / "chambers-g0-n4-fine.json"
    path.write_text(json.dumps(tamper_chamber_cache(json.loads(cold[1]),
                                                    kind)))
    assert invoke(argv + ["--cache-dir", str(tmp_path)]) == cold
    assert cold[0] == 0 and path.read_text() == cold[1]


@pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
def test_chambers_unreadable_cache_entry(tmp_path, monkeypatch, error):
    argv = ["chambers", "--genus", "0", "--n", "4", "--json"]
    cold = invoke(argv)
    path = tmp_path / "chambers-g0-n4-fine.json"
    path.write_text("{not json")
    refuse_cache_read(monkeypatch, path, error)
    assert invoke(argv + ["--cache-dir", str(tmp_path)]) == cold
    assert cold[0] == 0 and path.read_text() == cold[1]


def test_chambers_limit_exit_code():
    code, _, err = invoke(["chambers", "--genus", "0", "--n", "9"])
    assert code == 2


def test_limit_flag_override():
    code, _, _ = invoke(["strata", "--weights", W4, "--max-codim", "0",
                         "--limit", "3"])
    assert code == 2  # n = 4 with limit 3 refuses


@pytest.mark.parametrize("n, granularity, sizes", [
    (5, "fine", (2, 3)), (6, "coarse", (3,)), (5, "coarse", ())])
def test_walls(n, granularity, sizes):
    # fine walls have 2 <= |S| <= n-2, coarse ones 2 < |S| < n-2, each
    # size in lexicographic order
    subsets = [list(s) for size in sizes
               for s in combinations(range(1, n + 1), size)]
    payload = invoke_json(["walls", "--genus", "0", "--n", str(n),
                           "--granularity", granularity])
    assert payload == {"genus": 0, "n": n, "granularity": granularity,
                       "count": len(subsets), "walls": subsets}


def test_locate():
    payload = invoke_json(["locate", "--weights", W4])
    assert payload["signs"] == "AAAAAA"


def test_perturb_and_ucurve():
    payload = invoke_json(["ucurve", "--weights", W4])
    assert payload["weights"] == ["1", "1", "1", "1", "1/2"]
    payload = invoke_json(["perturb", "--weights", W4])
    assert len(payload["weights"]) == 4


def test_git_subcommands():
    third = json.dumps({"t": ["1/3"] * 6})
    payload = invoke_json(["git-sstypes", "--linearization", third])
    assert payload["count"] == 10 and payload["typical"] is False
    payload = invoke_json(["git-stability", "--linearization", third,
                           "--config",
                           '{"classes":[[1,2,3],[4],[5],[6]]}'])
    assert payload["verdict"] == "StrictlySemistable"
    payload = invoke_json(["tau", "--weights",
                           '{"genus":0,"weights":["1/2","1/2","1/2","1/2","1/2"]}'])
    assert payload["t"] == ["2/5"] * 5
    payload = invoke_json(["match-quotient", "--weights", W5,
                           "--linearization", json.dumps({"t": ["2/5"] * 5})])
    assert payload["matches"] is False


def test_reduce():
    payload = invoke_json(["reduce", "--weights", W5, "--target",
                           '{"genus":0,"weights":["1","1","1/3","1/3","1/3"]}'])
    assert payload["is_isomorphism"] is False
    statuses = {f["status"] for f in payload["fates"]}
    assert statuses == {"preserved", "contracted", "becomes_coincidence"}


def test_ledger_subcommands():
    payload = invoke_json(["lc-kapranov", "--n", "6", "--k", "1",
                           "--alpha", "1/2"])
    assert payload["log_canonical"] is True
    assert payload["steps"][0]["discrepancy"] == "-1"
    payload = invoke_json(["lc-keel", "--n", "6", "--alpha", "1/3",
                           "--beta", "2/3"])
    assert payload["ample"] is True and payload["log_canonical"] is True


def test_named_subcommands():
    payload = invoke_json(["named-weights", "--family", "LM", "--n", "5"])
    assert payload["weights"] == ["1", "1", "1/3", "1/3", "1/3"]
    payload = invoke_json(["named-classify", "--weights",
                           '{"genus":0,"weights":["1","1","1/3","1/3","1/3"]}'])
    assert payload["families"] == ["LM"]
    payload = invoke_json(["blowup-seq", "--family", "X", "--n", "6"])
    assert [(s["source"], s["exceptional_count"]) for s in payload["steps"]] \
        == [("X(2)", 10), ("X(1)", 5)]


@pytest.mark.parametrize("family, tag, n, message", [
    ("Y", "Y(0)", "4", "the Y chain needs n >= 5"),
    ("W", "W(1,1)", "3", "the (r,s) tower needs n >= 4"),
    ("X", "X(0)", "3", "the X chain needs n >= 4"),
    ("X", "X(0)", "-5", "the X chain needs n >= 4"),
])
def test_blowup_seq_rejects_missing_family(family, tag, n, message):
    """Exit 1 with the error `named-weights` gives for the family at n."""
    expected = (1, "", f"error: {message}\n")
    assert invoke(["blowup-seq", "--family", family, "--n", n,
                   "--json"]) == expected
    assert invoke(["named-weights", "--family", tag, "--n", n]) == expected


@pytest.mark.parametrize("family", ["X", "W"])
def test_blowup_seq_single_member_has_no_steps(family):
    assert invoke_json(["blowup-seq", "--family", family, "--n", "4"]) == \
        {"steps": []}


def test_file_and_stdin_payloads(tmp_path, monkeypatch):
    path = tmp_path / "weights.json"
    path.write_text(W4)
    payload = invoke_json(["validate", "--weights", str(path)])
    assert payload["weights"] == ["1", "1", "1", "1"]
    import io as _io
    import sys
    monkeypatch.setattr(sys, "stdin", _io.StringIO(W4))
    payload = invoke_json(["validate", "--weights", "-"])
    assert payload["weights"] == ["1", "1", "1", "1"]


def test_no_decimal_rendering():
    # every numeric value prints as p/q; nothing ever renders as a float
    import re
    for argv in (["remark76"], ["boundary", "--weights", LM4],
                 ["lc-keel", "--n", "7", "--alpha", "1/4", "--beta", "1/2"]):
        _, out, _ = invoke(argv + ["--json"])
        assert not re.search(r"\d+\.\d+", out)


# sha256 of `strata --json` stdout at n = 7, as computed by the tuple-based
# stratum generator before stratum keys moved to bitmasks: output order,
# vertex ids and class order must stay byte for byte the same
GOLDEN_STRATA = {
    ("1", 0): "2b479bfd30b89dae6171dd6cd44fec22648bdc426bbf9de69ba72c3b82fdc2b6",
    ("1", 1): "54ee63c410fc213dc0dfd161ac98d2664eeeb50b860e622308fa5db4e63b6e2c",
    ("1", 2): "977da740cf81a1d34ef3ce12713af6d721374da19bb35aa44ab174891a55d116",
    ("1", 3): "9d608494085e9891b90cd07ddbaafa9ac5aad71fdf12b0209d909ea95eaebdfb",
    ("1", 4): "a03405a2ef725dbecdc8f3d4e6d86b77dbb2879e81dc775821eacb00c4851095",
    ("mixed", 0): "2b479bfd30b89dae6171dd6cd44fec22648bdc426bbf9de69ba72c3b82fdc2b6",
    ("mixed", 1): "f642809c39eac7ffa9dca05e0e2548457d2377609338a9edfc682b7734473ac9",
    ("mixed", 2): "39c433d2ced2128daa348a4e1536abf2b9d8603bb12f69d1fbfd01ab4609b7f4",
    ("mixed", 3): "f100e860020bae1ab40a1d568ec58b7ee48ad189487b9d879e79704dac8f01a5",
    ("mixed", 4): "cea9b50469de9a6a3c7469b108b1333f5694c2572ab4f8d613757df2c5e625c0",
}
# pairs and triples that sum to exactly 1 sit on the class and leaf bounds
STRATA_WEIGHTS = {
    "1": ["1"] * 7,
    "mixed": ["1", "3/4", "1/2", "1/2", "1/3", "1/4", "1/6"],
}


@pytest.mark.parametrize("weights, max_codim", sorted(GOLDEN_STRATA))
def test_strata_json_golden_bytes(weights, max_codim):
    payload = json.dumps({"genus": 0, "weights": STRATA_WEIGHTS[weights]})
    code, out, err = invoke(["strata", "--weights", payload, "--max-codim",
                             str(max_codim), "--json"])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_STRATA[weights, max_codim]


# each call with and without --json, then one call per failing exit code
GOLDEN_CLI_CALLS = {
    **CLI_CALLS,
    **{f"{name} --json": argv + ["--json"] for name, argv in CLI_CALLS.items()},
    "domain error": ["validate", "--weights",
                     '{"genus":0,"weights":["1/2","1/2","1/2","1/2"]}'],
    "usage error": ["locate"],
    "limit": ["chambers", "--genus", "0", "--n", "9"],
    "no subcommand": [],
}
# (exit code, stdout, stderr) of each call, each stream as the first 16 hex
# digits of its sha256: subcommand output and exit codes stay byte for
# byte what they are
GOLDEN_CLI = {
    "validate": (0, "ebe161d65c01f55f", "e3b0c44298fc1c14"),
    "walls": (0, "7c5cbc79a256b3cf", "e3b0c44298fc1c14"),
    "chambers": (0, "b5f64adc9d1801ba", "e3b0c44298fc1c14"),
    "locate": (0, "c1a1084460bfe7d3", "e3b0c44298fc1c14"),
    "perturb": (0, "3d823e84153b2867", "e3b0c44298fc1c14"),
    "ucurve": (0, "18697a86da99ccd8", "e3b0c44298fc1c14"),
    "stabilize": (0, "d4deba5e1a948798", "e3b0c44298fc1c14"),
    "forget": (0, "c5f57fe0215a18a2", "e3b0c44298fc1c14"),
    "strata": (0, "16d9a5882e20dee1", "e3b0c44298fc1c14"),
    "boundary": (0, "ed8a0671872a0b99", "e3b0c44298fc1c14"),
    "reduce": (0, "be9e68ce4743e0a6", "e3b0c44298fc1c14"),
    "git-stability": (0, "5e0ea671181b21d5", "e3b0c44298fc1c14"),
    "git-sstypes": (0, "37e870a8982ab31f", "e3b0c44298fc1c14"),
    "tau": (0, "fb3174c880f640da", "e3b0c44298fc1c14"),
    "match-quotient": (0, "670664e6ed3cfecb", "e3b0c44298fc1c14"),
    "lc-kapranov": (0, "3969046e6fc9f1af", "e3b0c44298fc1c14"),
    "lc-keel": (0, "fcd96f2fd225a574", "e3b0c44298fc1c14"),
    "remark76": (0, "9b67e056eab48d71", "e3b0c44298fc1c14"),
    "named-classify": (0, "19f56f197b9a8f4e", "e3b0c44298fc1c14"),
    "named-weights": (0, "d50af2f8f014b48f", "e3b0c44298fc1c14"),
    "blowup-seq": (0, "f13b9dc5f243832d", "e3b0c44298fc1c14"),
    "validate --json": (0, "c206c3a62f11bdc5", "e3b0c44298fc1c14"),
    "walls --json": (0, "21adee9607c49421", "e3b0c44298fc1c14"),
    "chambers --json": (0, "827e38088af63e25", "e3b0c44298fc1c14"),
    "locate --json": (0, "67c11fe6091e4610", "e3b0c44298fc1c14"),
    "perturb --json": (0, "17dac127ef063dc9", "e3b0c44298fc1c14"),
    "ucurve --json": (0, "dd3cc972d7d0c460", "e3b0c44298fc1c14"),
    "stabilize --json": (0, "e394e146c83f74e1", "e3b0c44298fc1c14"),
    "forget --json": (0, "06b1c15b8c9a0a34", "e3b0c44298fc1c14"),
    "strata --json": (0, "93afa7c79630613c", "e3b0c44298fc1c14"),
    "boundary --json": (0, "9e67492a65014fdb", "e3b0c44298fc1c14"),
    "reduce --json": (0, "ade45348a7903568", "e3b0c44298fc1c14"),
    "git-stability --json": (0, "faba93882ef6c798", "e3b0c44298fc1c14"),
    "git-sstypes --json": (0, "30c89f25b35cba24", "e3b0c44298fc1c14"),
    "tau --json": (0, "e8c6da2bc3a0b5e1", "e3b0c44298fc1c14"),
    "match-quotient --json": (0, "0834df631a15e535", "e3b0c44298fc1c14"),
    "lc-kapranov --json": (0, "afa49d4fca213b2e", "e3b0c44298fc1c14"),
    "lc-keel --json": (0, "9af6509eda6acc86", "e3b0c44298fc1c14"),
    "remark76 --json": (0, "83b8734e77be32da", "e3b0c44298fc1c14"),
    "named-classify --json": (0, "393e53d932893c0d", "e3b0c44298fc1c14"),
    "named-weights --json": (0, "2169828aa3d3946d", "e3b0c44298fc1c14"),
    "blowup-seq --json": (0, "e96da3fa3e7f57a6", "e3b0c44298fc1c14"),
    "domain error": (1, "e3b0c44298fc1c14", "7ee2e4cdc4b95c8d"),
    "usage error": (1, "e3b0c44298fc1c14", "04cc5fed637d8f10"),
    "limit": (2, "e3b0c44298fc1c14", "421cadf7776561d6"),
    "no subcommand": (1, "e3b0c44298fc1c14", "ad97830ee0c52a83"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_CALLS))
def test_cli_golden_bytes(monkeypatch, capsys, name):
    # the process streams, so the usage line of a usage error counts too
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    monkeypatch.delenv("WEIGHTSCAPE_CACHE", raising=False)
    code = run(GOLDEN_CLI_CALLS[name])
    out, err = capsys.readouterr()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()[:16]
                    for text in (out, err))
    assert (code, *digests) == GOLDEN_CLI[name]
