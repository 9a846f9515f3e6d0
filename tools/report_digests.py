"""Digest every report of a fixed CLI matrix, with ``duration_s`` removed.

Usage::

    python3 tools/report_digests.py > tests/report_digests.txt

Each command of the matrix runs in-process through ``framefree.cli.main``
from the ``src/`` tree next to this script.  One line per command gives the
exit code and the sha256 of what it wrote to stdout and to stderr, after
dropping the JSON ``"duration_s"`` line or the CSV ``duration_s`` row (the
only field that varies between runs).  Running the script on two checkouts
and diffing the outputs checks that a change left every report
byte-identical.  A leading ``#`` line records the environment (Python,
numpy, BLAS and its thread count), since last bits can differ on another
BLAS build.  ``tests/report_digests.txt`` holds the expected output, and a
test compares it with a fresh in-process run.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import platform
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from framefree import cli  # noqa: E402

MATRIX = (
    "decompose --n 12",
    "rates --max-n 64",
    "rates --max-n 20 --output csv",
    "twirl-check --n 8 --trials 3 --seed 5",
    "twirl-check --n 3 --trials 20 --output csv",
    "classical --n 1 --trials 5",
    "classical --n 2 --trials 20",
    "classical --n 2 --trials 50 --singlet-first",
    "classical --n 6 --trials 5 --seed 9",
    "classical --n 3 --trials 20 --output csv",
    "classical --n 8 --trials 2 --seed 3",
    "classical --n 10 --trials 1 --seed 7",
    "classical --n 12 --trials 1 --seed 7",
    "quantum --trials 50",
    "optics --trials 2000",
    "bell --trials 20",
    "classical --n 13",
    "optics --trials 70000 --seed 3",
    "quantum --trials 5 --tolerance 1e-12",
    "bell --trials 2 --seed -1",
    "decompose --n 1",
    "twirl-check --n 1 --trials 3",
    "--help",
    "classical --help",
    "rates --help",
    "quantum --trials abc",
    "rates --max-n 65",
    "quantum --trials 3",
    "bell --trials 150 --seed 11",
    "classical --n 3 --singlet-first",
    "classical --n 2 --trials 50 --seed 1 --singlet-first",
)

_DURATION = re.compile(r'^(\s*"duration_s": .*|duration_s,.*)\n', re.MULTILINE)


def digest(text: str) -> str:
    return hashlib.sha256(_DURATION.sub("", text).encode("utf-8")).hexdigest()


def run(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue(), err.getvalue()


def _blas_threads() -> str:
    """The thread count of numpy's bundled 64-bit OpenBLAS, or ``unknown`` for another BLAS."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so"):
        return str(ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_())
    return "unknown"


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas['name']} {blas['version']} blas_threads={_blas_threads()}")


def digest_line(command: str) -> str:
    code, out, err = run(command)
    return f"exit={code} stdout={digest(out)} stderr={digest(err)}  {command}"


def main() -> None:
    print(f"# {environment()}")
    for command in MATRIX:
        print(digest_line(command))


if __name__ == "__main__":
    main()
