"""Golden digests: the bytes of a fixed set of CLI invocations.

Byte-identical output for fixed flags is the contract that lets code change
safely. `golden_digests.json` holds the sha256 and size of every file (and
of `bounds` stdout) that the invocations below write. A change that means
to alter an output regenerates the table in the same commit, and its
CHANGES.md entry names each changed digest and why it changed:

    PYTHONPATH=src python tests/test_golden.py

rewrites `tests/golden_digests.json` from the current tree.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gathersim.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")

# name -> (argv with {out} for the output stem, the files it writes)
_TRACE = ["--trace", "{out}.csv", "--summary", "{out}.summary.csv"]
_CONTINUOUS = ["{out}.csv", "{out}.series.csv", "{out}.summary.csv"]
_SWEEP = ["{out}.csv", "{out}.fit.json"]
INVOCATIONS = {
    "sim-discrete-n10": (["sim", "--model", "discrete", "--n", "10", "--seed", "1", *_TRACE],
                         ["{out}.csv", "{out}.summary.csv"]),
    "sim-discrete-n40-every7": (["sim", "--model", "discrete", "--n", "40", "--seed", "2",
                                 "--record-every", "7", *_TRACE],
                                ["{out}.csv", "{out}.summary.csv"]),
    # above 80 agents the discrete sensor takes its witness path
    "sim-discrete-n120": (["sim", "--model", "discrete", "--n", "120", "--seed", "3",
                           "--steps", "300", *_TRACE], ["{out}.csv", "{out}.summary.csv"]),
    "sim-continuous-n5": (["sim", "--model", "continuous", "--n", "5", "--spread", "5",
                           "--seed", "1", *_TRACE], _CONTINUOUS),
    "sim-continuous-n10-clustered": (["sim", "--model", "continuous", "--n", "10",
                                      "--spread", "0.3", "--seed", "1", *_TRACE], _CONTINUOUS),
    # a small substep: the sliding rule chatters over thousands of substeps
    "sim-continuous-n5-substep1e-4": (["sim", "--model", "continuous", "--n", "5",
                                       "--spread", "5", "--seed", "1", "--substep", "0.0001",
                                       "--steps", "3", *_TRACE], _CONTINUOUS),
    "sweep-discrete": (["sweep", "--model", "discrete", "--n-list", "5,10,20", "--reps", "3",
                        "--base-seed", "4", "--out", "{out}.csv"], _SWEEP),
    "sweep-continuous": (["sweep", "--model", "continuous", "--n-list", "3,5", "--reps", "3",
                          "--spread", "5", "--base-seed", "4", "--out", "{out}.csv"], _SWEEP),
    "bounds": (["bounds", "--n", "10", "--delta", "0.1", "--dmax", "50"], ["stdout"]),
}


def _digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def outputs(name, directory):
    """{file: {"sha256", "bytes"}} of one invocation, run in directory."""
    argv, files = INVOCATIONS[name]
    stem = str(Path(directory) / name)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main([arg.format(out=stem) for arg in argv]) == 0, name
    got = {}
    for file in files:
        if file == "stdout":
            got[file] = _digest(stdout.getvalue().encode())
        else:
            got[Path(file.format(out=name)).name] = _digest(
                Path(file.format(out=stem)).read_bytes())
    return got


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_outputs_match_the_golden_digests(name, tmp_path):
    want = json.loads(TABLE.read_text())[name]
    got = outputs(name, tmp_path)
    assert list(got) == list(want), name
    for file in want:
        assert got[file] == want[file], f"{name}: {file} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        table = {name: outputs(name, directory) for name in INVOCATIONS}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}: {sum(map(len, table.values()))} files", file=sys.stderr)
