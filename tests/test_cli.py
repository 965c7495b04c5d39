import ast
import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

import moebiuskit
from moebiuskit import cli
from moebiuskit.bicomodule import validate_configuration
from moebiuskit.catposet import (
    CorrespondenceCat,
    FinCategory,
    chain_poset,
    classical_mobius,
    correspondence_bisimplicial,
    divisor_poset,
)
from moebiuskit.simplicial import check_axioms, is_culf

from conftest import posets
from test_cli_golden import run_command


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def chain3_doc():
    return {"kind": "poset", "elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]}


def adjunction_doc():
    return {
        "kind": "adjunction",
        "left": {"kind": "poset", "elements": [0, 1, 2], "relations": [[0, 1], [1, 2]]},
        "right": {"kind": "poset", "elements": [0, 1], "relations": [[0, 1]]},
        "f": [[0, 0], [1, 0], [2, 1]],
        "g": [[0, 1], [1, 2]],
    }


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_poset_segal_passes(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", chain3_doc())
    code, out, _ = run(capsys, "check", path, "--profile", "segal", "--max-level", "2")
    assert code == 0
    assert "PASS" in out


def test_check_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _out, err = run(capsys, "check", str(path))
    assert code == 2
    assert "input error" in err


ONE_ARROW = {"kind": "category", "objects": ["*"],
             "morphisms": [{"id": "i", "src": "*", "tgt": "*"}],
             "compose": [["i", "i", "i"]], "identities": [["*", "i"]]}


@pytest.mark.parametrize("doc", [
    {"kind": "poset", "elements": "abc"},
    {"kind": "poset", "elements": {"a": 1, "b": 2}},
    dict(ONE_ARROW, objects="*"),
    dict(ONE_ARROW, compose=["iii"]),
    dict(ONE_ARROW, compose=[["i", "i", "i", "i"]]),
    dict(ONE_ARROW, morphisms={"id": "i", "src": "*", "tgt": "*"}),
    {"kind": "adjunction",
     "left": {"kind": "poset", "elements": "ab", "relations": [["a", "b"]]},
     "right": {"kind": "poset", "elements": [0, 1], "relations": [[0, 1]]},
     "f": [["a", 0], ["b", 1]], "g": [[0, "a"], [1, "b"]]},
    [ONE_ARROW],
    {"kind": "adjunction", "left": [0, 1], "right": {"kind": "poset", "elements": [0]},
     "f": [[0, 0], [1, 0]], "g": [[0, 1]]},
], ids=["string elements", "object elements", "string objects", "string compose entry",
        "4-item compose entry", "object morphisms", "string elements of a side",
        "array document", "array side"])
def test_non_array_where_the_schema_says_list_exit_2(tmp_path, capsys, doc):
    # a string or an object is iterable, but the schema asks for an array
    path = write(tmp_path, "doc.json", doc)
    code, out, err = run(capsys, "check", path, "--max-level", "1")
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# the identity i composes with itself to z, so it is no unit
NOT_A_UNIT = dict(ONE_ARROW,
                  morphisms=[{"id": m, "src": "*", "tgt": "*"} for m in "iz"],
                  compose=[["i", "i", "z"], ["i", "z", "z"], ["z", "i", "z"], ["z", "z", "z"]])


def _category(arrows, compose, identities):
    """A category document on the objects that its (id, src, tgt) arrows name."""
    objects = list(dict.fromkeys(o for _, s, t in arrows for o in (s, t)))
    return {"kind": "category", "objects": objects,
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in arrows],
            "compose": compose, "identities": identities}


# i is a unit; z . i = i, so i is no left unit at z
NOT_A_LEFT_UNIT = _category([("i", "*", "*"), ("z", "*", "*")],
                            [["i", "i", "i"], ["i", "z", "z"], ["z", "i", "i"], ["z", "z", "z"]],
                            [["*", "i"]])
# a -f-> b -g-> c with g . f = f, which ends at b, not c
MISPLACED_COMPOSITE = _category(
    [("ia", "a", "a"), ("ib", "b", "b"), ("ic", "c", "c"), ("f", "a", "b"), ("g", "b", "c")],
    [["ia", "ia", "ia"], ["ib", "ib", "ib"], ["ic", "ic", "ic"], ["ia", "f", "f"],
     ["f", "ib", "f"], ["ib", "g", "g"], ["g", "ic", "g"], ["f", "g", "f"]],
    [["a", "ia"], ["b", "ib"], ["c", "ic"]])
# i a unit and every other product i: (x . x) . y = y but x . (x . y) = x
NOT_ASSOCIATIVE = _category(
    [(m, "*", "*") for m in "ixy"],
    [[f, g, g if f == "i" else f if g == "i" else "i"] for f in "ixy" for g in "ixy"],
    [["*", "i"]])

REFUSED_DOCUMENTS = [
    ("check", {"kind": "poset", "relations": []}, "invalid poset document: 'elements'"),
    ("check", {"kind": "poset", "elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]},
     "invalid poset: cycle through 'a' and 'b': not a poset"),
    ("check", {"kind": "poset", "elements": ["a", "b"], "relations": [["a", "z"]]},
     "invalid poset: relation ('a','z') mentions unknown elements"),
    ("check", {"kind": "poset", "elements": ["a", "b", "a"]},
     "invalid poset: duplicate poset elements"),
    ("check", _without(ONE_ARROW, "compose"), "invalid category document: 'compose'"),
    ("check", dict(ONE_ARROW, objects=["*", "o"], identities=[["*", "i"], ["o", "i"]]),
     "invalid category: identity of 'o' has wrong endpoints"),
    ("check", NOT_A_UNIT, "invalid category: right unit fails at 'i'"),
    ("check", NOT_A_LEFT_UNIT, "invalid category: left unit fails at 'z'"),
    ("check", MISPLACED_COMPOSITE, "invalid category: composite 'f' has wrong endpoints"),
    ("check", NOT_ASSOCIATIVE, "invalid category: associativity fails"),
    ("check", _without(adjunction_doc(), "g"), "invalid adjunction document: 'g'"),
    ("check", dict(adjunction_doc(), f=[[0, 1], [1, 0], [2, 1]]),
     "invalid adjunction data: cannot derive morphism map at ('le', 0, 1): 0 candidates"),
    ("check", {"kind": "graph"}, "unsupported kind 'graph'"),
    ("mobius", {"kind": "graph"}, "mobius does not support kind 'graph'"),
]


@pytest.mark.parametrize("command, doc, message", REFUSED_DOCUMENTS,
                         ids=["poset without elements", "poset with a cycle",
                              "relation on an unknown element", "duplicate element",
                              "category without compose", "identity with wrong endpoints",
                              "identity not a unit", "identity not a left unit",
                              "composite with wrong endpoints", "composition not associative",
                              "adjunction without g", "f not monotone",
                              "check on an unknown kind", "mobius on an unknown kind"])
def test_refused_document_exit_2(tmp_path, capsys, command, doc, message):
    # one line, opening with the message
    code, out, err = run(capsys, command, write(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


GOLDEN_SHA256 = "fa7545ba0d1d5409b805b713dc8ccd57f6f80a3e1ccc1556339a293b5216d01a"

# a cycle through all three elements, which a set of pairs may name by any two
CYCLIC_POSET = {"kind": "poset", "elements": ["a", "b", "c"],
                "relations": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]]}

REFUSALS_SCRIPT = """
import json, sys
from test_cli_golden import run_command
print(json.dumps([run_command(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_no_cli_output_depends_on_the_hash_seed(tmp_path):
    # the golden commands hash to one digest, and each refused document
    # gets one exit code and one stderr, under every seed
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    docs = [(command, doc) for command, doc, _message in REFUSED_DOCUMENTS]
    argvs = [[command, write(tmp_path, f"doc{i}.json", doc)]
             for i, (command, doc) in enumerate(docs + [("check", CYCLIC_POSET)])]
    refusals = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), PYTHONHASHSEED=seed)
        golden = subprocess.run([sys.executable, os.path.join(tests, "test_cli_golden.py")],
                                capture_output=True, text=True, env=env, timeout=300,
                                check=True)
        assert golden.stdout == GOLDEN_SHA256 + "\n", seed
        proc = subprocess.run([sys.executable, "-c", REFUSALS_SCRIPT, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=120,
                              check=True)
        refusals.append(json.loads(proc.stdout))
    assert refusals[0] == refusals[1] == refusals[2]
    assert [(r["code"], r["stdout"]) for r in refusals[0]] == [(2, "")] * len(argvs)
    assert refusals[0][-1]["stderr"] == \
        "input error: invalid poset: cycle through 'a' and 'b': not a poset\n"


def test_one_arrow_category_is_well_formed(tmp_path, capsys):
    path = write(tmp_path, "doc.json", ONE_ARROW)
    assert run(capsys, "check", path, "--max-level", "1")[0] == 0


def test_check_builtin_layered_posets_segal_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "builtin:layered-posets",
                       "--profile", "segal", "--grade", "2", "--max-level", "1")
    assert code == 1
    assert "witness" in out


def test_check_builtin_layered_posets_decomposition_passes(capsys):
    code, out, _ = run(capsys, "check", "builtin:layered-posets",
                       "--profile", "decomposition", "--grade", "2",
                       "--max-level", "1")
    assert code == 0


@pytest.mark.parametrize("target", ["builtin:layered-posets", "builtin:layered-sets"])
def test_check_decomposition_at_grade_0_checks_its_degeneracy_squares(capsys, target):
    # level 2 is the top at grade 0: the degeneracy families fit at n = 0,
    # and the report says that the coface families need level 3
    code, out, err = run(capsys, "check", target, "--profile", "decomposition",
                         "--grade", "0")
    assert (code, err) == (0, "")
    assert out == ("profile decomposition: PASS\n"
                   "  verified range: degeneracy families n = 0..0; coface families"
                   " none checked (need level 3, truncated at 2)\n"
                   "  [ok  ] s_1/d_bot square n=0\n"
                   "  [ok  ] s_0/d_top square n=0\n")


def test_checkers_take_no_workers():
    # the checks run serially: a shared thread pool raced on the lazily
    # built levels and faces
    for fn in (check_axioms, is_culf, validate_configuration):
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("argv, message", [
    (["mobius", "builtin:sets", "--n", "-1"], "--n must be >= 0, got -1"),
    (["check", "builtin:layered-posets", "--grade", "-1"], "--grade must be >= 0, got -1"),
    (["rota", "builtin:sets-posets", "--grade", "-2"], "--grade must be >= 0, got -2"),
    (["mobius", "{poset}", "--bound", "-1"], "--bound must be >= 0, got -1"),
    (["mobius", "{category}", "--bound", "-1"], "--bound must be >= 0, got -1"),
    (["rota", "{adjunction}", "--bound", "-1"], "--bound must be >= 0, got -1"),
    (["rota", "builtin:chain-adjunction", "--bound", "-3"], "--bound must be >= 0, got -3"),
])
def test_a_negative_size_is_refused_by_the_option_typed(tmp_path, capsys, argv, message):
    paths = {"{poset}": write(tmp_path, "chain3.json", chain3_doc()),
             "{category}": write(tmp_path, "one_arrow.json", ONE_ARROW),
             "{adjunction}": write(tmp_path, "adj.json", adjunction_doc())}
    argv = [paths.get(arg, arg) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"input error: {message}\n")


def test_python_m_moebiuskit_runs_the_cli():
    argv = ["mobius", "builtin:sets", "--n", "4"]
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "moebiuskit", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_command(argv)["stdout"] == "class    mu\nset(4,)  1 \n"


def test_python_m_moebiuskit_prints_what_main_prints():
    argv = ["mobius", "builtin:posets", "--n", "2", "--format", "json"]
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "moebiuskit", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_command(argv)["stdout"]
    assert [row["mu"] for row in json.loads(proc.stdout)] == ["1", "0"]


@pytest.mark.parametrize("argv", [
    ["mobius", "builtin:posets", "--n", "7"],
    ["mobius", "builtin:posets", "--n", "-1"],
    ["rota", "builtin:sets-posets", "--grade", "-1"],
    ["check", "builtin:layered-posets", "--grade", "-2"],
])
def test_out_of_range_arguments_exit_2_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "moebiuskit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["mobius", "builtin:posets", "--n", "4"],
    ["rota", "builtin:sets-posets", "--grade", "3"],
])
def test_csv_rows_have_header_width(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_check_grid_rejects_space_profile(capsys):
    code, _out, err = run(capsys, "check", "builtin:chain-adjunction",
                          "--profile", "segal")
    assert code == 2
    assert "configuration" in err


def test_check_space_rejects_configuration_profile(capsys):
    code, _out, err = run(capsys, "check", "builtin:layered-sets",
                          "--profile", "configuration", "--grade", "2")
    assert code == 2
    assert "configuration" in err


def test_mobius_builtin_posets_table(capsys):
    code, out, _ = run(capsys, "mobius", "builtin:posets", "--n", "3",
                       "--format", "csv")
    assert code == 0
    rows = [line for line in out.strip().splitlines()[1:] if line]
    assert len(rows) == 5
    values = [row.rsplit(",", 1)[1] for row in rows]
    assert values.count("-1") == 1      # the discrete class
    assert values.count("0") == 4


def test_mobius_builtin_sets(capsys):
    code, out, _ = run(capsys, "mobius", "builtin:sets", "--n", "4")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[-1] == "1"


def test_mobius_divisor_interval(tmp_path, capsys):
    P = divisor_poset(12)
    doc = {"kind": "poset", "elements": list(P.elements),
           "relations": sorted(P.strict_pairs())}
    path = write(tmp_path, "divisors12.json", doc)
    code, out, _ = run(capsys, "mobius", path, "--interval", "1", "12")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[-1] == "0"


def test_mobius_refusal_names_hypothesis(tmp_path, capsys):
    doc = {"kind": "category", "objects": ["*"],
           "morphisms": [{"id": "id", "src": "*", "tgt": "*"},
                         {"id": "g", "src": "*", "tgt": "*"}],
           "compose": [["id", "id", "id"], ["id", "g", "g"],
                       ["g", "id", "g"], ["g", "g", "id"]],
           "identities": [["*", "id"]]}
    path = write(tmp_path, "involution.json", doc)
    code, _out, err = run(capsys, "mobius", path)
    assert code == 1
    assert "locally finite length" in err


@pytest.mark.parametrize("target", ["builtin:foo", "builtin:chain-adjunction",
                                    "builtin:sets-posets"])
def test_mobius_names_a_builtin_it_does_not_serve(capsys, target):
    assert run(capsys, "mobius", target) == (2, "", f"input error: unknown builtin {target!r}\n")


def test_mobius_file_rows_follow_the_document(tmp_path, capsys):
    # intervals in element order: (1, 2) before (1, 12), (2, 2) before (12, 12)
    P = divisor_poset(12)
    doc = {"kind": "poset", "elements": list(P.elements),
           "relations": sorted(P.strict_pairs())}
    code, out, _ = run(capsys, "mobius", write(tmp_path, "divisors12.json", doc),
                       "--format", "json")
    assert code == 0
    assert [tuple(row["interval"]) for row in json.loads(out)] == P.intervals()
    # morphisms in document order
    C = FinCategory.from_poset(P)
    name = {m: f"{m[1]}|{m[2]}" for m in C.morphisms}
    doc = {"kind": "category", "objects": list(C.objects),
           "morphisms": [{"id": name[m], "src": m[1], "tgt": m[2]}
                         for m in reversed(list(C.morphisms))],
           "compose": [[name[f], name[g], name[C.compose(g, f)]]
                       for f in C.morphisms for g in C.out_arrows(C.tgt(f))],
           "identities": [[a, name[C.identities[a]]] for a in C.objects]}
    code, out, _ = run(capsys, "mobius", write(tmp_path, "divisors12_cat.json", doc),
                       "--format", "json")
    assert code == 0
    assert [row["morphism"] for row in json.loads(out)] == [m["id"] for m in doc["morphisms"]]


def test_rota_chain_adjunction_builtin(capsys):
    code, out, _ = run(capsys, "rota", "builtin:chain-adjunction")
    assert code == 0
    assert "MISMATCH" not in out


def test_rota_adjunction_file(tmp_path, capsys):
    path = write(tmp_path, "adj.json", adjunction_doc())
    code, out, _ = run(capsys, "rota", path)
    assert code == 0


def test_rota_non_adjunction_rejected(tmp_path, capsys):
    doc = adjunction_doc()
    doc["g"] = [[0, 0], [1, 2]]   # not a right adjoint
    path = write(tmp_path, "broken.json", doc)
    code, _out, err = run(capsys, "rota", path)
    assert code == 2
    assert "not an adjunction" in err


README_ADJUNCTION = os.path.join(os.path.dirname(__file__), "data", "readme_adjunction.json")


def test_check_and_rota_refuse_a_non_adjunction_alike(tmp_path, capsys):
    with open(README_ADJUNCTION, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["g"] = [[0, 0], [1, 0]]   # monotone, but not right adjoint to f
    path = write(tmp_path, "wrong_g.json", doc)
    refusal = (2, "", "input error: not an adjunction: witness (1, 0)\n")
    assert run(capsys, "check", path, "--max-level", "1") == refusal
    assert run(capsys, "rota", path) == refusal


def test_check_report_states_the_segal_range(capsys):
    # the CLI grid is 3 x 3, so Segal is checked up to n = 2 only
    code, out, _ = run(capsys, "check", README_ADJUNCTION, "--max-level", "4")
    assert code == 0
    assert "verified range: rows 0..3, n = 1..2" in out
    assert "verified range: columns 0..3, n = 1..2" in out


def test_rota_builtin_sets_posets(capsys):
    code, out, _ = run(capsys, "rota", "builtin:sets-posets", "--grade", "2")
    assert code == 0
    assert "MISMATCH" not in out


def test_rota_and_mobius_label_poset_classes_alike(capsys):
    code, out, _ = run(capsys, "rota", "builtin:sets-posets", "--grade", "4",
                       "--format", "json")
    assert code == 0
    rota = {row["at"] for row in json.loads(out)}
    mobius = set()
    for n in range(5):
        code, out, _ = run(capsys, "mobius", "builtin:posets", "--n", str(n),
                           "--format", "json")
        assert code == 0
        mobius |= {row["class"] for row in json.loads(out)}
    assert len(rota) == 25 and rota == mobius


def test_output_deterministic(capsys):
    _code, out1, _ = run(capsys, "mobius", "builtin:posets", "--n", "3",
                         "--format", "json")
    _code, out2, _ = run(capsys, "mobius", "builtin:posets", "--n", "3",
                         "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("interval", [("2", "0"), ("0", "9")])
def test_mobius_non_interval_exit_2(tmp_path, capsys, interval):
    # [2, 0] is not an interval of the chain; 9 is not an element
    path = write(tmp_path, "chain3.json", chain3_doc())
    code, out, err = run(capsys, "mobius", path, "--interval", *interval)
    assert code == 2
    assert err.startswith("input error: ") and "not an interval" in err
    assert out == ""


def test_rota_at_without_matching_row_exit_2(capsys):
    code, out, err = run(capsys, "rota", "builtin:sets-posets", "--grade", "2",
                         "--at", "nonsense")
    assert code == 2
    assert err.startswith("input error: ") and "matches no row" in err
    assert out == ""


@pytest.mark.parametrize("max_level", ["-1", "0"])
def test_check_max_level_below_1_exit_2(capsys, max_level):
    code, out, err = run(capsys, "check", "builtin:chain-adjunction",
                         "--max-level", max_level)
    assert code == 2
    assert err.startswith("input error: ") and "--max-level" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    # check prints its text report for every format but json
    (["check", "builtin:chain-adjunction", "--max-level", "1", "--format", "csv"],
     "invalid choice"),
    # --n sets the size of the builtin posets; --grade was a second name for it
    (["mobius", "builtin:posets", "--grade", "3"], "unrecognized arguments"),
    # an option that the target ignores is refused, naming the target
    (["check", "builtin:chain-adjunction", "--grade", "2"],
     "input error: --grade has no effect on builtin:chain-adjunction"),
    (["check", "{poset}", "--grade", "2"], "input error: --grade has no effect on {poset}"),
    (["rota", "builtin:chain-adjunction", "--grade", "2"],
     "input error: --grade has no effect on builtin:chain-adjunction"),
    (["rota", "{adjunction}", "--grade", "2"],
     "input error: --grade has no effect on {adjunction}"),
    (["rota", "builtin:sets-posets", "--bound", "2"],
     "input error: --bound has no effect on builtin:sets-posets"),
    (["mobius", "builtin:posets", "--bound", "2"],
     "input error: --bound has no effect on builtin:posets"),
    (["mobius", "builtin:sets", "--bound", "2"],
     "input error: --bound has no effect on builtin:sets"),
    (["mobius", "builtin:posets", "--interval", "0", "1"],
     "input error: --interval has no effect on builtin:posets"),
    (["mobius", "{category}", "--interval", "*", "*"],
     "input error: --interval has no effect on {category}"),
    (["mobius", "{poset}", "--n", "2"], "input error: --n has no effect on {poset}"),
    (["mobius", "{category}", "--n", "2"], "input error: --n has no effect on {category}"),
])
def test_settings_without_effect_exit_2(tmp_path, capsys, argv, message):
    paths = {"{poset}": write(tmp_path, "chain3.json", chain3_doc()),
             "{category}": write(tmp_path, "one_arrow.json", ONE_ARROW),
             "{adjunction}": write(tmp_path, "adj.json", adjunction_doc())}
    argv = [paths.get(arg, arg) for arg in argv]
    for name, path in paths.items():
        message = message.replace(name, path)
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse refuses unknown options and choices
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def _named_category(C):
    """C with its arrows renamed to strings, and its JSON document."""
    name = {m: "|".join(map(str, m[1:])) for m in C.morphisms}
    doc = {"kind": "category", "objects": list(C.objects),
           "morphisms": [{"id": name[m], "src": a, "tgt": b}
                         for m, (a, b) in C.morphisms.items()],
           "compose": [[name[f], name[g], name[C.compose(g, f)]]
                       for f in C.morphisms for g in C.out_arrows(C.tgt(f))],
           "identities": [[a, name[C.identities[a]]] for a in C.objects]}
    named = FinCategory(doc["objects"], {m["id"]: (m["src"], m["tgt"]) for m in doc["morphisms"]},
                        {(f, g): h for f, g, h in doc["compose"]}, dict(doc["identities"]))
    return named, doc


def test_check_correspondence_document_is_its_configuration_report(tmp_path, capsys):
    category, doc = _named_category(FinCategory.from_poset(chain_poset(3)))
    labels = {0: 0, 1: 0, 2: 1}
    path = write(tmp_path, "corr.json", {"kind": "correspondence", "category": doc,
                                         "labels": [[a, bit] for a, bit in labels.items()]})
    for n in (1, 2):
        report = validate_configuration(
            correspondence_bisimplicial(CorrespondenceCat(category, labels), 3, 3), n)
        lines = "".join(line + "\n" for line in report.lines())
        assert run(capsys, "check", path, "--max-level", str(n)) == (
            0 if report.passed else 1, lines, "")


@pytest.mark.parametrize("labels, message", [
    (None, "invalid correspondence document: 'labels'"),
    ({0: 1, 1: 0, 2: 1}, "invalid correspondence: morphism '0|1' goes from label 1 to label 0"),
    ({0: 0, 1: 0, 2: 2}, "invalid correspondence: object 2 has label 2, not 0 or 1"),
    ({0: "0", 1: 0, 2: 1}, "invalid correspondence: object 0 has label '0', not 0 or 1"),
], ids=["missing labels", "arrow from label 1 to label 0", "label 2", "string label"])
def test_check_refuses_a_malformed_correspondence(tmp_path, capsys, labels, message):
    _, category = _named_category(FinCategory.from_poset(chain_poset(3)))
    doc = {"kind": "correspondence", "category": category}
    if labels is not None:
        doc["labels"] = [[a, bit] for a, bit in labels.items()]
    path = write(tmp_path, "corr.json", doc)
    assert run(capsys, "check", path, "--max-level", "1") == (2, "", f"input error: {message}\n")


def test_adjunction_side_may_be_a_category_document(tmp_path, capsys):
    doc = adjunction_doc()
    doc["left"] = _named_category(FinCategory.from_poset(chain_poset(3)))[1]
    path = write(tmp_path, "adj_cat.json", doc)
    code, out, err = run(capsys, "rota", path)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "rota", write(tmp_path, "adj.json", adjunction_doc()))
    assert run(capsys, "check", path, "--max-level", "1")[0] == 0


def test_rota_refuses_a_poset_document(tmp_path, capsys):
    assert run(capsys, "rota", write(tmp_path, "chain3.json", chain3_doc())) == (
        2, "", "input error: rota needs an adjunction document or a builtin\n")


def test_mobius_refuses_a_bound_below_the_chain_length(tmp_path, capsys):
    path = write(tmp_path, "chain3.json", chain3_doc())
    code, out, err = run(capsys, "mobius", path, "--bound", "1")
    assert (code, out) == (1, "")
    assert err.startswith("refused: ") and "exceeds bound 1" in err
    assert run(capsys, "mobius", path, "--bound", "2")[0] == 0


def test_rota_refuses_a_bound_below_the_chain_length(capsys):
    # the README adjunction's left side, the 3-chain, has chains of 2 arrows
    path = os.path.join(os.path.dirname(__file__), "data", "readme_adjunction.json")
    code, out, err = run(capsys, "rota", path, "--bound", "1")
    assert (code, out) == (1, "")
    assert err == ("refused: category is not Mobius: identity-free chain of length 2 "
                   "exceeds bound 1 (locally finite length hypothesis)\n")
    assert run(capsys, "rota", path, "--bound", "2") == run(capsys, "rota", path)
    assert run(capsys, "rota", path)[0] == 0


def test_successive_in_process_calls_keep_no_parser_state(capsys):
    # the parser is built once per process; no call's options leak into the next
    two = run(capsys, "mobius", "builtin:posets", "--n", "2")
    default = run(capsys, "mobius", "builtin:posets")
    assert default != two
    assert default == run(capsys, "mobius", "builtin:posets", "--n", "3")
    assert run(capsys, "check", "builtin:layered-posets", "--grade", "2",
               "--max-level", "1")[0] == 1
    assert run(capsys, "rota", "builtin:chain-adjunction") == (
        0, run_command(["rota", "builtin:chain-adjunction"])["stdout"], "")
    args = cli.build_parser().parse_args(["rota", "builtin:chain-adjunction"])
    assert vars(args) == {"command": "rota", "target": "builtin:chain-adjunction",
                          "grade": None, "bound": None, "at": None, "format": "text",
                          "fn": cli.cmd_rota}
    assert cli.build_parser() is cli.build_parser()


def test_mobius_n_defaults_to_3(capsys):
    assert run(capsys, "mobius", "builtin:posets") == run(capsys, "mobius", "builtin:posets",
                                                           "--n", "3")


@settings(max_examples=40, deadline=None)
@given(posets())
def test_mobius_output_round_trips_in_every_format(tmp_path_factory, P):
    path = tmp_path_factory.mktemp("poset") / "poset.json"
    doc = {"kind": "poset", "elements": list(P.elements),
           "relations": sorted(P.strict_pairs())}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = {}
    for fmt in ("text", "json", "csv"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["mobius", str(path), "--format", fmt]) == 0
        out[fmt] = stdout.getvalue()
    header, *lines = out["text"].splitlines()
    assert header.split() == ["interval", "mu"]
    text = [(ast.literal_eval(line.rsplit(None, 1)[0]), Fraction(line.split()[-1]))
            for line in lines]
    rows = json.loads(out["json"])
    assert all(set(row) == {"interval", "mu"} for row in rows)
    as_json = [(tuple(row["interval"]), Fraction(row["mu"])) for row in rows]
    header, *rows = list(csv.reader(io.StringIO(out["csv"])))
    assert header == ["interval", "mu"]
    as_csv = [(ast.literal_eval(interval), Fraction(mu)) for interval, mu in rows]
    assert as_json == as_csv == text
    assert sorted(interval for interval, _mu in text) == sorted(P.intervals())
    C = FinCategory.from_poset(P)
    for (a, b), mu in text:
        assert mu == classical_mobius(C, ("le", a, b))
