"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is calibrated
at runtime.
"""

import time
from math import comb, log2

import numpy as np

from framefree.core import (DensityOperator, RandomSource, StateVector,
                            collective_rotation, fidelity, haar_random_su2,
                            random_density, random_state_vector, trace_distance)
from framefree.irreps import HalfInteger, multiplicity, total_irrep_count
from framefree.protocols import (block_outcome_probabilities, build_classical_codebook,
                                 classical_rate_asymptote, classical_round_trip,
                                 decode_logical, dephasing_sector_encoding,
                                 dfs_encoding_4qubit, dfs_logical_paulis,
                                 encode_logical, exchange_logical_action,
                                 helstrom_success_probability,
                                 logical_bell_chsh_trials, noiseless_subsystem_plan,
                                 rate_table)
from framefree.twirl import TwirlChannel, twirl_su2_monte_carlo
from framefree.optics import (beam_splitter, detect, polarization_rotation,
                              prepare_bell, run_optical_protocol)
from racah_oracle import enumerate_paths

SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])
TSIRELSON = 2.0 * np.sqrt(2.0)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_multiplicity_closed_form_vs_path_count():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        dimension = 0
        for tj in range(n % 2, n + 1, 2):
            j = HalfInteger(tj)
            closed_form = multiplicity(n, j)
            ok = ok and closed_form == len(enumerate_paths(n, j))
            dimension += (tj + 1) * closed_form
        ok = ok and dimension == 2 ** n
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"multiplicities match path counts and dimension sum for n <= 10 "
                  f"({elapsed:.3f}s < 1s)")


def test_criterion_02_total_irrep_count_closed_form():
    expected = {2: 2, 4: 6, 6: 20, 8: 70, 10: 252}
    ok = all(total_irrep_count(n) == comb(n, n // 2) == expected[n] for n in expected)
    report(2, ok, f"total block counts {[total_irrep_count(n) for n in expected]} "
                  f"equal binom(n, n/2) for n in {list(expected)}")


def test_criterion_03_single_qubit_twirl_depolarizes():
    rng = RandomSource(42)
    channel = TwirlChannel.full_su2(1)
    mixed = DensityOperator.maximally_mixed(2)
    worst = max(trace_distance(channel.apply(random_density(rng, 2)), mixed)
                for _ in range(100))
    report(3, worst < 1e-9, f"E1(rho) = I/2 for 100 random states "
                            f"(worst distance {worst:.2e} < 1e-9)")


def test_criterion_04_two_qubit_twirl_structure():
    rng = RandomSource(42)
    channel = TwirlChannel.full_su2(2)
    singlet_rho = SINGLET.to_density()
    singlet_residual = trace_distance(channel.apply(singlet_rho), singlet_rho)

    plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    sym_basis = np.column_stack([np.eye(4)[:, 0], plus, np.eye(4)[:, 3]])
    sym_mixed = DensityOperator(
        (np.eye(4) - np.outer(SINGLET.amplitudes, SINGLET.amplitudes.conj())) / 3.0)
    worst_sym = 0.0
    for _ in range(100):
        psi = StateVector.normalized(sym_basis @ (rng.normal(3) + 1j * rng.normal(3)))
        worst_sym = max(worst_sym, trace_distance(channel.apply(psi.to_density()), sym_mixed))
    ok = singlet_residual < 1e-9 and worst_sym < 1e-9
    report(4, ok, f"singlet fixed ({singlet_residual:.2e}) and symmetric states map to "
                  f"I_sym/3 (worst {worst_sym:.2e}), both < 1e-9")


def test_criterion_05_product_state_baseline():
    channel = TwirlChannel.full_su2(2)
    rho0 = channel.apply(StateVector.from_bits("00").to_density())
    rho1 = channel.apply(StateVector.from_bits("01").to_density())
    p = helstrom_success_probability(rho0, rho1)
    report(5, abs(p - 0.75) < 1e-9, f"Helstrom probability {p:.12f} = 3/4 within 1e-9")


def test_criterion_06_perfect_classical_communication():
    start = time.perf_counter()
    rng = RandomSource(42)
    errors = 0
    min_probability = 1.0
    trials_each = 100
    for n in (2, 4, 6):
        book = build_classical_codebook(n)
        for entry in book.entries:
            block_index = book.decomposition.block_index(entry.j, entry.r)
            for _ in range(trials_each):
                g = haar_random_su2(rng)
                rotated = entry.codeword.evolve(collective_rotation(g, n))
                probs = block_outcome_probabilities(rotated, book.decomposition)
                min_probability = min(min_probability, float(probs[block_index]))
                decoded = classical_round_trip(entry.message, book, g, rng)
                errors += int(decoded != entry.message)
    elapsed = time.perf_counter() - start
    ok = errors == 0 and (1.0 - min_probability) < 1e-9 and elapsed < 30.0
    report(6, ok, f"n in (2,4,6), all messages x {trials_each} frames: {errors} errors, "
                  f"min outcome probability {min_probability:.12f} ({elapsed:.1f}s < 30s)")


def test_criterion_07_optimality_witness():
    ok = True
    details = []
    for n in (2, 4, 6):
        channel = TwirlChannel.full_su2(n)
        book = build_classical_codebook(n)
        supports = []
        for entry in book.entries:
            twirled = channel.apply(entry.codeword.to_density())
            eigenvalues, vectors = np.linalg.eigh(twirled.matrix)
            supports.append(vectors[:, eigenvalues > 1e-6])
        rank_sum = sum(s.shape[1] for s in supports)
        worst_overlap = 0.0
        for i, a in enumerate(supports):
            for b in supports[i + 1:]:
                worst_overlap = max(worst_overlap, float(np.abs(a.conj().T @ b).max()))
        ok = ok and rank_sum == 2 ** n and worst_overlap < 1e-9
        details.append(f"n={n}: ranks {rank_sum}={2 ** n}, overlap {worst_overlap:.1e}")
    report(7, ok, "twirled codeword supports orthogonal and complete; " + "; ".join(details))


def test_criterion_08_protected_quantum_communication():
    rng = RandomSource(42)
    codes = (
        ("4-qubit DFS", dfs_encoding_4qubit(), TwirlChannel.full_su2(4)),
        ("3-qubit noiseless subsystem", noiseless_subsystem_plan(3), TwirlChannel.full_su2(3)),
        ("2-qubit dephasing sector", dephasing_sector_encoding(2), TwirlChannel.u1_dephasing(2)),
    )
    ok = True
    details = []
    for name, encoding, channel in codes:
        worst = 1.0
        for _ in range(100):
            psi = random_state_vector(rng, encoding.logical_dim)
            decoded = decode_logical(channel.apply(encode_logical(psi, encoding)), encoding)
            worst = min(worst, fidelity(decoded, psi.to_density()))
        ok = ok and worst >= 1.0 - 1e-9
        details.append(f"{name}: min fidelity {worst:.12f}")
    report(8, ok, "; ".join(details))


def test_criterion_09_exchange_gate_algebra():
    action = exchange_logical_action(1, 2)
    z, x = dfs_logical_paulis()
    swap_ok = (np.abs(action.matrix - np.diag([-1.0, 1.0])).max() < 1e-9
               and action.leakage < 1e-10)
    anticommute = float(np.abs(z @ x + x @ z).max())
    squares = max(float(np.abs(z @ z - np.eye(2)).max()),
                  float(np.abs(x @ x - np.eye(2)).max()))
    ok = swap_ok and anticommute < 1e-9 and squares < 1e-9
    report(9, ok, f"SWAP12 = diag(-1,+1) with leakage {action.leakage:.1e}; "
                  f"{{Z_L, X_L}} = {anticommute:.1e}; squares off by {squares:.1e}")


def test_criterion_10_rates():
    rows = rate_table(64)
    exact = all(rows[n - 1].classical_rate == log2(comb(n, n // 2)) / n
                for n in range(2, 65, 2))
    gaps = [classical_rate_asymptote(n) - rows[n - 1].classical_rate
            for n in (8, 16, 32, 64)]
    gap_ok = all(g > 0 for g in gaps) and all(a > b for a, b in zip(gaps, gaps[1:]))
    quantum_ok = (rows[2].quantum_rate == log2(2) / 3
                  and rows[3].quantum_rate == log2(3) / 4)
    ok = exact and gap_ok and quantum_ok
    report(10, ok, f"classical rates exact for even n <= 64; asymptote gaps "
                   f"{[f'{g:.4f}' for g in gaps]} positive and decreasing; "
                   f"quantum rates at n=3,4 exact")


def test_criterion_11_monte_carlo_convergence():
    start = time.perf_counter()
    channel = TwirlChannel.full_su2(2)
    rng = RandomSource(42)
    worst = 0.0
    for _ in range(10):
        rho = random_density(rng, 4)
        mc = twirl_su2_monte_carlo(rho, 100_000, rng)
        worst = max(worst, trace_distance(mc, channel.apply(rho)))

    rho = StateVector.from_bits("00").to_density()
    exact = channel.apply(rho)
    sample_counts = (100, 1_000, 10_000, 100_000)
    means = []
    for s in sample_counts:
        children = RandomSource(42, (s,)).split(5)
        means.append(np.mean([trace_distance(twirl_su2_monte_carlo(rho, s, c), exact)
                              for c in children]))
    slope = float(np.polyfit(np.log10(sample_counts), np.log10(means), 1)[0])
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and abs(slope + 0.5) < 0.15 and elapsed < 60.0
    report(11, ok, f"10-state worst MC distance {worst:.4f} < 0.02; log-log slope "
                   f"{slope:.3f} in -0.5 +/- 0.15 ({elapsed:.1f}s < 60s)")


def test_criterion_12_optical_protocol():
    rng = RandomSource(42)
    psi, phi = prepare_bell("psi_minus"), prepare_bell("phi_minus")
    p_psi = detect(beam_splitter(psi)).p_coincidence
    p_phi = detect(beam_splitter(phi)).p_coincidence
    baseline_ok = abs(p_psi - 1.0) < 1e-10 and p_phi < 1e-10

    invariance = 0.0
    for _ in range(50):
        g = haar_random_su2(rng)
        rotated_psi = detect(beam_splitter(polarization_rotation(psi, g)))
        rotated_phi = detect(beam_splitter(polarization_rotation(phi, g)))
        invariance = max(invariance,
                         abs(rotated_psi.p_coincidence - p_psi),
                         abs(rotated_phi.p_coincidence - p_phi))

    fiber = haar_random_su2(rng)
    error_rates = [run_optical_protocol(bit, fiber, 10_000, rng).error_rate
                   for bit in (0, 1)]
    ok = baseline_ok and invariance < 1e-10 and error_rates == [0.0, 0.0]
    report(12, ok, f"p_coincidence = {p_psi:.12f} / {p_phi:.1e} for the two codewords, "
                   f"rotation invariance {invariance:.1e} < 1e-10, sampled error rates "
                   f"{error_rates} over 10^4 trials")


def test_criterion_13_logical_chsh():
    start = time.perf_counter()
    values = logical_bell_chsh_trials(RandomSource(42), 100)
    deviation = float(np.abs(values - TSIRELSON).max())
    elapsed = time.perf_counter() - start
    ok = deviation < 1e-9 and elapsed < 60.0
    report(13, ok, f"CHSH = 2*sqrt(2) within {deviation:.1e} in every one of "
                   f"{len(values)} rotated trials ({elapsed:.1f}s < 60s)")
