"""Golden CLI outputs: the exit code, stdout and stderr of the README
commands, recorded in `data/cli_golden.json`.

Any change to a byte of these outputs fails here.  After a deliberate
output change, rewrite the record with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and run the script without `--write` to print the SHA-256 of all outputs
(it must not depend on PYTHONHASHSEED).
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys

import pytest

from moebiuskit import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")
ADJUNCTION = "readme_adjunction.json"   # the README's adjunction document

COMMANDS = [
    ["rota", "builtin:sets-posets", "--grade", "3", "--format", "json"],
    ["rota", "builtin:sets-posets", "--grade", "4", "--format", "json"],
    ["rota", "builtin:sets-posets", "--grade", "5", "--format", "json"],
    ["rota", "builtin:chain-adjunction", "--format", "json"],
    ["mobius", "builtin:posets", "--n", "4", "--format", "json"],
    ["mobius", "builtin:sets", "--n", "6", "--format", "json"],
    ["check", "builtin:sets-posets", "--grade", "2", "--max-level", "1",
     "--format", "json"],
    ["check", "builtin:chain-adjunction", "--max-level", "1", "--format", "json"],
    ["check", "builtin:layered-posets", "--profile", "decomposition",
     "--grade", "2", "--max-level", "1", "--format", "json"],
    ["check", "builtin:layered-posets", "--profile", "segal",
     "--grade", "2", "--max-level", "1", "--format", "json"],
    ["check", ADJUNCTION, "--max-level", "1"],
    ["check", ADJUNCTION, "--max-level", "2"],
    ["check", "builtin:layered-posets", "--grade", "3", "--profile",
     "decomposition", "--max-level", "2", "--format", "json"],
    ["check", "builtin:layered-posets", "--grade", "3", "--profile", "segal",
     "--max-level", "1", "--format", "json"],
]


def run_command(argv):
    """Run the CLI in-process on argv (the adjunction file read from the
    data directory) and return its exit code, stdout and stderr."""
    argv = [os.path.join(DATA, a) if a == ADJUNCTION else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    return [dict(argv=argv, **run_command(argv)) for argv in COMMANDS]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _diff_lines(text):
    """The lines to diff: a JSON document pretty-printed, so that a change
    in a one-line report shows as the entry that changed."""
    try:
        return json.dumps(json.loads(text), indent=1).splitlines()
    except ValueError:
        return text.splitlines()


def output_diff(expected, got):
    """A unified diff of the exit code, stdout and stderr of two records;
    empty when they are equal."""
    out = []
    if expected["code"] != got["code"]:
        out.append(f"exit code: golden {expected['code']}, now {got['code']}")
    for stream in ("stdout", "stderr"):
        if expected[stream] == got[stream]:
            continue
        # the raw lines if only the JSON layout differs, the repr if only line ends do
        for split in (_diff_lines, str.splitlines, lambda text: [repr(text)]):
            diff = list(difflib.unified_diff(split(expected[stream]), split(got[stream]),
                                             f"golden {stream}", f"{stream} now",
                                             lineterm=""))
            if diff:
                out.extend(diff)
                break
    return "\n".join(out)


def test_golden_record_covers_the_commands():
    assert [entry["argv"] for entry in load_golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_cli_output_is_byte_identical(index):
    expected = load_golden()[index]
    got = dict(argv=COMMANDS[index], **run_command(COMMANDS[index]))
    assert got == expected, output_diff(expected, got)


def test_a_changed_output_is_shown_as_a_diff():
    expected = load_golden()[6]
    changed = expected["stdout"].replace("(1, 1, (1, 2)", "(1, 1, (2, 2)", 1)
    assert changed != expected["stdout"]
    message = output_diff(expected, dict(expected, code=0, stdout=changed))
    assert message.startswith("exit code: golden 1, now 0")
    removed = [line for line in message.splitlines() if line.startswith("-  ")]
    added = [line for line in message.splitlines() if line.startswith("+  ")]
    assert len(removed) == len(added) == 1 and "(1, 1, (1, 2)" in removed[0]
    assert output_diff(expected, dict(expected, stdout=expected["stdout"] + " ")).endswith("\n+ ")
    assert "+" + repr(expected["stdout"][:-1]) in \
        output_diff(expected, dict(expected, stdout=expected["stdout"][:-1]))
    assert output_diff(expected, expected) == ""


if __name__ == "__main__":
    entries = record()
    if "--write" in sys.argv[1:]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    blob = json.dumps(entries, sort_keys=True).encode("utf-8")
    print(hashlib.sha256(blob).hexdigest())
