"""The package runs on the standard library alone: numpy is for the tests.

A child interpreter blocks ``import numpy`` before importing fermatcurves and
runs every subcommand once through ``cli.run``.
"""

import os
import subprocess
import sys

import fermatcurves

CHILD = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fermatcurves import cli
for argv in (
    ["sample", "--n", "3", "--count", "16", "--format", "json"],
    ["arclength", "--n", "3", "--tol", "1e-8"],
    ["gap", "--n", "3", "--count", "64"],
    ["residual", "--n", "3", "--count", "64"],
    ["svg", "--n", "2", "--count", "16"],
    ["oracle-diff", "--n", "100", "--count", "2048"],
):
    print(argv[0], file=sys.stderr)
    if cli.run(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_every_subcommand_runs_with_numpy_blocked():
    src = os.path.dirname(os.path.dirname(fermatcurves.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["sample", "arclength", "gap", "residual", "svg", "oracle-diff"]
    assert done.stdout.splitlines()[-1] == "3.330680367628952e-16"  # as README.md shows
