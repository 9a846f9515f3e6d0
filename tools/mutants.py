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
repository plus its test: 0.7 to 1.5 s for each entry (2 cores).

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
    Mutant("decompose-lower-pass-without-column-offset", "src/framefree/irreps.py",
           "first + (2 ** k - 2 ** low)", "first",
           "tests/test_irreps.py::TestSchurFactors"
           "::test_factors_equal_the_per_column_loop_bit_for_bit"),
    Mutant("block-table-in-path-order", "src/framefree/irreps.py",
           "twice_j=_readonly(new_tj)", "twice_j=_readonly(path_tj)",
           "tests/test_irreps.py::TestBlockIndexOracle::test_block_index_matches_scan"),
    Mutant("schur-transform-admits-any-shape", "src/framefree/irreps.py",
           "        if x.shape != (2 ** self.n,):\n"
           "            raise ValueError(f\"expected a vector of length {2 ** self.n}, "
           "got shape {x.shape}\")\n", "",
           "tests/test_irreps.py::TestSchurFactors::test_schur_transform_rejects_any_other_shape"),
    Mutant("columns-part1-from-part0", "src/framefree/irreps.py",
           "w[:, parts[1]], coef1", "w[:, parts[0]], coef1",
           "tests/test_irreps.py::TestSchurFactors"
           "::test_coupling_matrix_equals_dense_build_bit_for_bit"),
    Mutant("integer-rule-admits-bool", "src/framefree/core.py",
           "isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
           "isinstance(value, (int, np.integer))",
           "tests/test_core.py::test_qubit_count_out_of_range_raises_the_one_message"
           "[decompose-True]"),
    Mutant("haar-swap-x-y", "src/framefree/core.py",
           "w, x, y, z = (q / np.linalg.norm(q, axis=1)[:, None]).T",
           "w, y, x, z = (q / np.linalg.norm(q, axis=1)[:, None]).T",
           "tests/test_core.py::TestHaarSampling::test_fixed_seed_draw_is_the_quaternion_map"),
    Mutant("su2-twirl-no-hermitian-part", "src/framefree/twirl.py",
           "        stacks = [0.5 * (s + s.conj().mT) for s in stacks]\n", "",
           "tests/test_twirl.py::TestChannelProperties::test_su2_output_is_exactly_hermitian"),
    Mutant("tensor-rows-at-head-offset", "src/framefree/core.py",
           "result[:, start * span:start * span + part.shape[1]]",
           "result[:, start:start + part.shape[1]]",
           "tests/test_core.py::TestCollectiveRotationOracle"
           "::test_row_chunks_equal_both_oracles_bit_for_bit"),
    Mutant("haar-chunks-unchecked", "src/framefree/core.py",
           "        _check_su2(gs)\n", "",
           "tests/test_twirl.py::TestMonteCarloTwirl::test_rejects_a_draw_that_is_not_su2"),
    Mutant("haar-batch-ignores-qubit-count", "src/framefree/core.py",
           "    batch = _powers_per_stack(n)\n", "    batch = _TENSOR_CHUNK_ENTRIES\n",
           "tests/test_twirl.py::TestMonteCarloTwirl"
           "::test_peak_memory_does_not_grow_with_samples[4-16384-8]"),
    Mutant("bell-pairs-by-stride", "src/framefree/protocols.py",
           "us.reshape(-1, 2, 16, 16).transpose(1, 0, 2, 3)", "us[0::2], us[1::2]",
           "tests/test_protocols.py::TestLogicalBellChshOracle"
           "::test_a_batch_of_part_trials_raises[256]"),
    Mutant("fidelity-no-noise-floor", "src/framefree/core.py",
           "    w[w < rho.dim * np.finfo(float).eps * max(w.max(), 0.0)] = 0.0\n", "",
           "tests/test_cli.py::TestCommands::test_quantum"),
    Mutant("distribution-admits-negative", "src/framefree/core.py",
           "lowest >= 0.0", "lowest >= -ATOL",
           "tests/test_core.py::TestRandomSource::test_rejects_any_negative_entry"),
    Mutant("block-trace-distance-max", "src/framefree/core.py",
           "parts = [(1, a, b) for a, b in zip(rho.blocks, sigma.blocks, strict=True)]",
           "parts = [max(zip([1] * len(rho.blocks), rho.blocks, sigma.blocks),\n"
           "                         key=lambda part: _trace_norm_of_difference(*part[1:]))]",
           "tests/test_core.py::TestBlockForm::test_same_frame_distance_reads_the_blocks"),
    Mutant("sector-distance-without-carrier", "src/framefree/core.py",
           "parts = [(carrier, q, p)", "parts = [(1, q, p)",
           "tests/test_twirl.py::TestSectors::test_sector_distance_matches_the_block_path_and_dense"),
    Mutant("sectors-from-unmasked-mult", "src/framefree/twirl.py",
           "0.5 * (kept + kept.conj().T)", "0.5 * (mult + mult.conj().T)",
           "tests/test_twirl.py::TestSectors"
           "::test_sectors_are_the_multiplicity_blocks_of_the_coupled_output"),
    Mutant("sector-runs-cut-one-early", "src/framefree/core.py",
           "np.flatnonzero(np.diff(carriers)) + 1", "np.flatnonzero(np.diff(carriers))",
           "tests/test_twirl.py::TestSectors"
           "::test_sectors_are_the_bits_of_cutting_then_symmetrising"),
    Mutant("equal-skip-compares-a-block-with-itself", "src/framefree/core.py",
           "if np.array_equal(a, b):", "if np.array_equal(a, a):",
           "tests/test_twirl.py::TestSectors"
           "::test_equal_block_skip_gives_the_bits_of_eigvalsh_on_every_block"),
    Mutant("maximally-mixed-dense", "src/framefree/core.py",
           "        return DensityOperator._from_weight_blocks([np.eye(len(rows)) / dim\n"
           "                                                    for rows in weight_indices(dim)])\n",
           "        return DensityOperator(np.eye(dim) / dim)\n",
           "tests/test_core.py::TestMaximallyMixed"
           "::test_is_the_identity_over_dim_kept_as_blocks_from_64"),
    Mutant("cholesky-without-atol-shift", "src/framefree/core.py",
           "shifted.reshape(*p.shape[:-2], -1)[..., ::p.shape[-1] + 1] += ATOL", "pass",
           "tests/test_core.py::TestPositivity::test_accepts_exactly_when_the_oracle_does"),
    Mutant("block-constructor-admits-non-finite", "src/framefree/core.py",
           "if not np.abs(p - p.conj().mT).max() <= ATOL:",
           "if np.abs(p - p.conj().mT).max() > ATOL:",
           "tests/test_core.py::TestFromWeightBlocks::test_rejects[nan_entry]"),
    Mutant("stack-check-reads-first-block", "src/framefree/core.py",
           "parts = (m,) if stacks is None else stacks",
           "parts = (m,) if stacks is None else tuple(s[:1] for s in stacks)",
           "tests/test_core.py::TestFromWeightBlocks"
           "::test_rejects_a_negative_eigenvalue_in_either_block_of_a_stack[4]"),
    Mutant("twirl-maps-back-by-w-transposed", "src/framefree/twirl.py",
           "_real_congruence(w, kept[", "_real_congruence(w.mT, kept[",
           "tests/test_twirl.py::TestExactTwirl::test_sector_views_match_whole_matrix_oracle[3]"),
    Mutant("weight-positions-transposed", "src/framefree/core.py",
           "rows[:, :, None] * dim + rows[:, None, :])",
           "rows[:, None, :] * dim + rows[:, :, None])",
           "tests/test_twirl.py::TestStackedTwirl"
           "::test_flat_positions_gather_and_scatter_the_weight_blocks[4]"),
    Mutant("stacks-pair-k-with-k-plus-1", "src/framefree/core.py",
           "[per_weight[k], per_weight[n - k]]", "[per_weight[k], per_weight[k + 1]]",
           "tests/test_twirl.py::TestStackedTwirl::test_stacks_pair_weight_k_with_n_minus_k[4]"),
    Mutant("block-constructor-admits-negative-eigenvalue", "src/framefree/core.py",
           "            raise ValueError(\"matrix has a negative eigenvalue\") from None\n",
           "            pass\n",
           "tests/test_core.py::TestFromWeightBlocks::test_rejects[negative_eigenvalue]"),
    Mutant("paulis-x-sign", "src/framefree/protocols.py",
           "x = x / sqrt(", "x = -x / sqrt(",
           "tests/test_protocols.py::TestExchangeGates::test_logical_paulis"),
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
    Mutant("codebook-ten-qubit-cap", "src/framefree/protocols.py",
           "    _check_qubit_count(n)\n    d = decompose(n)\n",
           "    _check_qubit_count(n, 10)\n    d = decompose(n)\n",
           "tests/test_protocols.py::TestRates"
           "::test_every_row_up_to_max_qubits_is_a_built_code[11]"),
    Mutant("fidelity-clamped", "src/framefree/core.py",
           "    return float(np.sqrt(w).sum() ** 2)\n",
           "    return min(max(float(np.sqrt(w).sum() ** 2), 0.0), 1.0)\n",
           "tests/test_core.py::TestMetrics::test_fidelity_is_returned_unclipped"),
    Mutant("optics-counts-short", "src/framefree/optics.py",
           "rng.sample_counts(outcome_probs, trials)", "rng.sample_counts(outcome_probs, trials - 1)",
           "tests/test_optics.py::TestProtocol::test_any_trial_count_costs_one_draw"),
    Mutant("mode-transform-admits-nan", "src/framefree/optics.py",
           " or not np.isfinite(u).all()", "",
           "tests/test_optics.py::TestModeTransform::test_rejects[nan]"),
    Mutant("emit-keeps-temp-after-failed-replace", "src/framefree/cli.py",
           "            temp.unlink(missing_ok=True)\n", "",
           "tests/test_cli.py::TestEmission::test_failed_replace_keeps_the_old_file_and_no_temp"),
    Mutant("classical-reads-block-0", "src/framefree/cli.py",
           "probs[entry.message.index]", "probs[0]",
           "tests/test_cli.py::TestCommands::test_classical_runs_clean"),
    Mutant("singlet-first-unordered", "src/framefree/cli.py",
           "codebook.entries[::-1] if cfg.singlet_first", "codebook.entries if cfg.singlet_first",
           "tests/test_cli.py::TestCommands::test_singlet_first_runs_the_singlet_trials_first"),
    Mutant("quantum-deviation-from-min", "src/framefree/cli.py",
           "worst = float(np.abs(np.subtract(1.0, fidelities)).max())",
           "worst = 1.0 - float(min(fidelities))",
           "tests/test_cli.py::TestCommands::test_quantum_verdicts_read_the_largest_deviation"),
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
