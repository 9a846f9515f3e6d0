"""Apply one-line mutants to a copy of the repository and check that a test catches each.

Usage::

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/``, a text that occurs in
it exactly once, the text that replaces it, and the test that must fail once
it is replaced.  For each mutant the script copies the repository (without
``.git`` and caches) into a temporary directory, applies the replacement
there, and runs ``python -m pytest -x -q`` on that one test in the copy; the
working tree is never written.  A mutant is caught when pytest exits 1 (a
test failed).  It survives when pytest exits 0, and any other exit code
(collection or usage error) is reported as an error.  The listed tests
first run once on an unmutated copy, and the script exits 2 if they fail
there.  It prints one line per mutant and a count of those caught, and
exits 1 unless every mutant was caught.  A mutant costs a copy of the
repository plus its test: 0.9 to 1.5 s for each entry (2 cores).

``tests/test_source.py`` checks in tier-1 that every old text still occurs
exactly once, so the table cannot go stale when ``src/`` changes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench-*")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    test: str  # a pytest node id, relative to the repository root


MUTANTS = (
    Mutant("decompose-down-sign", "src/framefree/irreps.py",
           "coef[0] *= step", "coef[0] *= abs(step)",
           "tests/test_irreps.py::TestSchurFactors"
           "::test_factors_equal_the_per_column_loop_bit_for_bit"),
    Mutant("haar-swap-x-y", "src/framefree/core.py",
           "w, x, y, z = (q / np.linalg.norm(q, axis=1)[:, None]).T",
           "w, y, x, z = (q / np.linalg.norm(q, axis=1)[:, None]).T",
           "tests/test_core.py::TestHaarSampling::test_fixed_seed_draw_is_the_quaternion_map"),
    Mutant("su2-twirl-no-hermitian-part", "src/framefree/twirl.py",
           "            blocks = [0.5 * (b + b.conj().T) for b in blocks]\n", "",
           "tests/test_twirl.py::TestChannelProperties::test_su2_output_is_exactly_hermitian"),
    Mutant("fidelity-no-noise-floor", "src/framefree/core.py",
           "    w[w < rho.dim * np.finfo(float).eps * max(w.max(), 0.0)] = 0.0\n", "",
           "tests/test_cli.py::TestCommands::test_quantum"),
    Mutant("sample-index-no-clip", "src/framefree/core.py",
           "        p = np.clip(p, 0.0, None)\n", "",
           "tests/test_core.py::TestRandomSource"
           "::test_sample_index_accepts_rounding_within_atol"),
    Mutant("block-trace-distance-max", "src/framefree/core.py",
           "np.abs(np.linalg.eigvalsh(b - c)).sum()", "np.abs(np.linalg.eigvalsh(b - c)).max()",
           "tests/test_core.py::TestBlockForm::test_same_frame_distance_reads_the_blocks"),
    Mutant("encode-logical-matmul", "src/framefree/protocols.py",
           "np.dot(encoding.isometry[:, ::encoding.carrier_dim],\n"
           "                              psi.amplitudes)",
           "encoding.isometry[:, ::encoding.carrier_dim] @ psi.amplitudes",
           "tests/test_protocols.py::TestNoiselessSubsystemSector"
           "::test_real_isometry_gives_the_bits_of_the_complex_one[3]"),
    Mutant("decode-post-selects", "src/framefree/protocols.py",
           "    if abs(probability - 1.0) > ATOL:\n"
           "        raise DecodingError(f\"in-code probability {probability} is not 1\")\n",
           "    if probability < 1e-12:\n"
           "        raise DecodingError(f\"in-code probability {probability} is not 1\")\n"
           "    reduced = reduced / probability\n",
           "tests/test_cli.py::TestCommands"
           "::test_quantum_fails_when_the_channel_leaks_out_of_the_code"),
    Mutant("fidelity-clamped", "src/framefree/core.py",
           "    return float(np.sqrt(w).sum() ** 2)\n",
           "    return min(max(float(np.sqrt(w).sum() ** 2), 0.0), 1.0)\n",
           "tests/test_core.py::TestMetrics::test_fidelity_is_returned_unclipped"),
    Mutant("optics-counts-short", "src/framefree/optics.py",
           "rng.sample_counts(outcome_probs, trials)", "rng.sample_counts(outcome_probs, trials - 1)",
           "tests/test_optics.py::TestProtocol::test_any_trial_count_costs_one_draw"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's one occurrence of its old text in ``root``'s copy of its file."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def pytest_in_copy(tests: list[str], mutant: Mutant | None = None) -> tuple[int, float]:
    """Exit code and seconds of pytest on ``tests`` in a fresh copy, with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if mutant is not None:
            apply(mutant, copy)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(copy / "src"),
                                                          os.environ.get("PYTHONPATH")]))}
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
        return done.returncode, time.perf_counter() - t0


def main() -> int:
    # the tests must pass on an unmutated copy, or every mutant would look caught
    code, _ = pytest_in_copy(sorted({m.test for m in MUTANTS}))
    if code:
        print(f"the tests fail on an unmutated copy (pytest exit {code})", file=sys.stderr)
        return 2
    caught = 0
    for m in MUTANTS:
        code, seconds = pytest_in_copy([m.test], m)
        outcome = {0: "survived", 1: "caught"}.get(code, f"error (pytest exit {code})")
        caught += code == 1
        print(f"{m.name}: {outcome} in {seconds:.1f} s by {m.test}", flush=True)
    print(f"{caught} of {len(MUTANTS)} caught")
    return int(caught != len(MUTANTS))

if __name__ == "__main__":
    sys.exit(main())
