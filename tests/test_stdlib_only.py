"""The package runs on the standard library alone: numpy is for the tests.

A child interpreter blocks ``import numpy`` before importing fermatcurves and
runs every subcommand once through ``cli.run``. Another imports the CLI in a
fresh interpreter and reads the decimal context that the quadrature tables'
derivation must leave as it found it. Both run with ``-W error``, so a
warning from the package's use of the standard library fails them.
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


# The decimal context of a fresh interpreter after the import: precision,
# rounding, traps and flags as a new default Context has them.
DECIMAL_CHILD = """
import fermatcurves.cli
import decimal
context = decimal.getcontext()
print(context.prec, context.rounding)
print(*sorted(signal.__name__ for signal, on in context.traps.items() if on))
print(*sorted(signal.__name__ for signal, on in context.flags.items() if on))
"""


def _run_child(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(fermatcurves.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def test_every_subcommand_runs_with_numpy_blocked():
    done = _run_child(CHILD)
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["sample", "arclength", "gap", "residual", "svg", "oracle-diff"]
    assert done.stdout.splitlines()[-1] == "3.330680367628952e-16"  # as README.md shows


def test_the_import_leaves_the_decimal_context_alone():
    # The tables are derived at 50 digits in a local context, so the
    # interpreter's own keeps 28 digits, the default traps and no flags.
    done = _run_child(DECIMAL_CHILD)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["28 ROUND_HALF_EVEN", "DivisionByZero InvalidOperation Overflow", ""]
