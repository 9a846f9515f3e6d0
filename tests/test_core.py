import re
import tracemalloc
from math import comb

import numpy as np
import pytest

from framefree import core
from framefree.cli import RunConfig, main, run_command
from framefree.core import (ATOL, MAX_QUBITS, MAX_RATE_QUBITS, MAX_TWIRL_CHECK_QUBITS,
                            DensityOperator, GroupElement, RandomSource, StateVector,
                            _by_weight, _check_su2, _haar_rotation_chunks, _in_stacks,
                            _qubit_count, _tensor_powers,
                            apply_collective_rotation, collective_rotation, fidelity,
                            haar_random_su2, haar_random_su2_batch, random_density,
                            random_state_vector, trace_distance, weight_indices)
from framefree.irreps import decompose, multiplicity, total_irrep_count
from framefree.optics import DetectionDistribution, run_optical_protocol
from framefree.protocols import (build_classical_codebook, classical_rate_asymptote,
                                 decode_logical, dephasing_sector_encoding, dfs_encoding_4qubit,
                                 encode_logical, logical_bell_chsh_trials, most_repeated_irrep,
                                 noiseless_subsystem_plan, rate_table)
from framefree.twirl import TwirlChannel, twirl_su2_monte_carlo
from test_twirl import dense_distance

SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


# every library function that takes a qubit count: (name, call, low, high or None)
QUBIT_COUNT_GUARDS = (
    ("collective_rotation", lambda n: collective_rotation(GroupElement.identity(), n),
     1, MAX_QUBITS),
    ("decompose", decompose, 1, MAX_QUBITS),
    ("multiplicity", lambda n: multiplicity(n, 0), 1, None),
    ("total_irrep_count", total_irrep_count, 1, None),
    ("most_repeated_irrep", most_repeated_irrep, 1, None),
    ("TwirlChannel", TwirlChannel, 1, MAX_QUBITS),
    ("build_classical_codebook", build_classical_codebook, 1, MAX_QUBITS),
    ("noiseless_subsystem_plan", noiseless_subsystem_plan, 2, MAX_QUBITS),
    ("dephasing_sector_encoding", dephasing_sector_encoding, 1, MAX_QUBITS),
    ("rate_table", rate_table, 1, MAX_RATE_QUBITS),
    ("classical_rate_asymptote", classical_rate_asymptote, 1, None),
    # run_command holds n to the ceiling of the command's --n or --max-n, as argparse does
    ("run_command-decompose", lambda n: run_command(RunConfig("decompose", n=n)), 1, MAX_QUBITS),
    ("run_command-rates", lambda n: run_command(RunConfig("rates", n=n)), 1, MAX_RATE_QUBITS),
    ("run_command-twirl-check", lambda n: run_command(RunConfig("twirl-check", n=n, trials=1)),
     1, MAX_TWIRL_CHECK_QUBITS),
    ("run_command-classical", lambda n: run_command(RunConfig("classical", n=n, trials=1)),
     1, MAX_QUBITS),
)


@pytest.mark.parametrize("call, n, message", [
    pytest.param(call, n, (f"qubit count must be in {low}..{high}, got {n}" if high
                           else f"qubit count must be at least {low}, got {n}"),
                 id=f"{name}-{n}")
    for name, call, low, high in QUBIT_COUNT_GUARDS
    # 2.5 and True join after the dedup: True == 1 would fold into low - 1 = 1
    for n in [*dict.fromkeys([low - 1, -1] + ([high + 1] if high else [])), 2.5, True]])
def test_qubit_count_out_of_range_raises_the_one_message(call, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(n)


# every library function that takes a trial or sample count, called with that count
COUNT_GUARDS = (
    ("run_optical_protocol",
     lambda t: run_optical_protocol(0, GroupElement.identity(), t, RandomSource(0))),
    ("logical_bell_chsh_trials", lambda t: logical_bell_chsh_trials(RandomSource(0), t)),
    ("twirl_su2_monte_carlo",
     lambda t: twirl_su2_monte_carlo(DensityOperator.maximally_mixed(2), t, RandomSource(0))),
    ("sample_counts", lambda t: RandomSource(0).sample_counts([0.5, 0.5], t)),
    ("split", lambda t: RandomSource(0).split(t)),
    ("classical", lambda t: run_command(RunConfig("classical", n=2, trials=t))),
    ("quantum", lambda t: run_command(RunConfig("quantum", trials=t))),
    ("twirl-check", lambda t: run_command(RunConfig("twirl-check", n=2, trials=t))),
)


@pytest.mark.parametrize("call, count", [
    pytest.param(call, count, id=f"{name}-{count}")
    for name, call in COUNT_GUARDS for count in (2.5, True, 0, -3, np.float64(3.0))])
def test_count_that_is_not_a_positive_integer_raises_the_one_message(call, count):
    message = f"count must be a positive integer, got {count!r}"
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        call(count)


@pytest.mark.parametrize("name, call", COUNT_GUARDS)
def test_a_numpy_integer_count_is_a_count(name, call):
    call(np.int64(2))


@pytest.mark.parametrize("n", [True, 2.0])
def test_a_cached_count_does_not_admit_an_equal_non_integer(n):
    # a numpy integer is cached under the key (count,), which (True,) and (2.0,) equal
    decompose(np.int64(n)), total_irrep_count(np.int64(n))
    with pytest.raises(ValueError, match="qubit count"):
        decompose(n)
    with pytest.raises(ValueError, match="qubit count"):
        total_irrep_count(n)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(99).normal(16)
        b = RandomSource(99).normal(16)
        assert np.array_equal(a, b)

    def test_split_children_are_independent_and_reproducible(self):
        parent = RandomSource(5)
        first, second = parent.split(2)
        again_first, again_second = RandomSource(5).split(2)
        assert np.array_equal(first.normal(8), again_first.normal(8))
        assert np.array_equal(second.normal(8), again_second.normal(8))
        assert not np.array_equal(RandomSource(5, (0,)).normal(8),
                                  RandomSource(5, (1,)).normal(8))

    @pytest.mark.parametrize("seed, spawn_key", [
        (2.7, ()), (1, (0.5,)), (True, ()), (1, (False,)), (-1, ()), (1, (0, -1))],
        ids=["seed-2.7", "key-0.5", "seed-True", "key-False", "seed-minus-1", "key-minus-1"])
    def test_rejects_a_seed_or_key_entry_that_is_not_a_nonnegative_integer(self, seed,
                                                                           spawn_key):
        # int() would truncate 2.7 to seed 2 and 0.5 to key entry 0
        with pytest.raises(ValueError, match="^seed and spawn key must be nonnegative integers"):
            RandomSource(seed, spawn_key)

    def test_numpy_integers_seed_the_same_stream(self):
        assert np.array_equal(RandomSource(np.int64(5), (np.uint8(1),)).normal(8),
                              RandomSource(5, (1,)).normal(8))

    def test_sample_index_is_deterministic(self):
        p = [0.25, 0.5, 0.25]
        draws = [RandomSource(3).sample_index(p) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]

    def test_sample_index_point_mass(self, rng):
        assert all(rng.sample_index([0.0, 1.0, 0.0]) == 1 for _ in range(50))

    # the last three are 2-D, 0-D and empty: no vector to draw from
    @pytest.mark.parametrize("bad", [[0.5, 0.6], [-0.5, 1.5], [0.0, 0.0], [np.nan, 1.0],
                                     [[0.5, 0.5]], 1.0, []])
    def test_sample_index_rejects_non_distributions(self, rng, bad):
        with pytest.raises(ValueError, match="^not a probability vector"):
            rng.sample_index(bad)

    @pytest.mark.parametrize("bad", [[[0.5, 0.5]], [[1.0]], 1.0, []])
    def test_sample_counts_rejects_what_is_not_a_vector(self, rng, bad):
        with pytest.raises(ValueError, match="^not a probability vector"):
            rng.sample_counts(bad, 3)

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [-0.5, 1.5], [0.0, 0.0], [np.nan, 1.0]])
    @pytest.mark.parametrize("check", [lambda rng, p: rng.sample_counts(p, 10),
                                       lambda rng, p: DetectionDistribution(*p, 0.0)],
                             ids=["sample_counts", "DetectionDistribution"])
    def test_counts_and_detection_share_the_check(self, rng, check, bad):
        with pytest.raises(ValueError, match="^not a probability vector"):
            check(rng, bad)

    def test_sample_index_accepts_rounding_within_atol(self, rng):
        assert all(rng.sample_index([0.0, 1.0 + 1e-12]) == 1 for _ in range(50))

    def test_sample_counts_accepts_rounding_within_atol(self, rng):
        assert rng.sample_counts([0.0, 1.0 + 1e-12], 50).tolist() == [0, 50]

    # every sampled probability is a sum of squared moduli, so any negative entry is a fault
    @pytest.mark.parametrize("draw", [lambda rng, p: rng.sample_index(p),
                                      lambda rng, p: rng.sample_counts(p, 10)],
                             ids=["sample_index", "sample_counts"])
    def test_rejects_any_negative_entry(self, rng, draw):
        with pytest.raises(ValueError, match="^not a probability vector"):
            draw(rng, [-1e-300, 1.0])


class TestHaarSampling:
    def test_group_membership(self, rng):
        for _ in range(50):
            g = haar_random_su2(rng)  # GroupElement validates itself
            assert np.abs(g.matrix @ g.matrix.conj().T - np.eye(2)).max() < 1e-10
            assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", [0, 7, 2027])
    def test_fixed_seed_draw_is_the_quaternion_map(self, seed):
        # w*1 + i(x sx + y sy + z sz) from the normalised draws the sampler consumes
        q = RandomSource(seed).normal((16, 4))
        w, x, y, z = (q / np.linalg.norm(q, axis=1)[:, None]).T[:, :, None, None]
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        sz = np.diag([1.0, -1.0])
        expected = w * np.eye(2) + 1j * (x * SIGMA_X + y * sy + z * sz)
        assert np.array_equal(haar_random_su2_batch(RandomSource(seed), 16), expected)

    def test_mean_entry_vanishes(self, rng):
        batch = haar_random_su2_batch(rng, 100_000)
        assert np.abs(batch.mean(axis=0)).max() < 0.02

    def test_mean_upper_left_probability_is_half(self, rng):
        # quadrature oracle: in ZYZ Euler angles |R00|^2 = cos^2(beta/2) and the
        # Haar weight in beta is sin(beta)/2 on [0, pi]
        beta = np.linspace(0.0, np.pi, 20_001)
        oracle = np.trapezoid(np.cos(beta / 2) ** 2 * np.sin(beta) / 2, beta)
        assert abs(oracle - 0.5) < 1e-6
        batch = haar_random_su2_batch(rng, 100_000)
        assert abs(np.mean(np.abs(batch[:, 0, 0]) ** 2) - oracle) < 0.01


class TestGroupElement:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            GroupElement(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_unit_determinant_violation(self):
        with pytest.raises(ValueError):
            GroupElement(SIGMA_X)  # unitary but det = -1

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GroupElement(np.eye(3))


class TestSu2Check:
    """The one SU(2) check, on a whole stack: one bad element rejects it."""

    def test_accepts_haar_stacks(self, rng):
        _check_su2(haar_random_su2_batch(rng, 50))

    def test_rejects_one_non_unitary_element(self, rng):
        stack = haar_random_su2_batch(rng, 20)
        stack[13] = [[1.0, 1.0], [0.0, 1.0]]  # det 1, not unitary
        with pytest.raises(ValueError, match="not unitary"):
            _check_su2(stack)

    def test_rejects_one_element_with_det_minus_one(self, rng):
        stack = haar_random_su2_batch(rng, 20)
        stack[6] = SIGMA_X
        with pytest.raises(ValueError, match="determinant is not 1"):
            _check_su2(stack)

    def test_rejects_a_nan_entry(self, rng):
        stack = haar_random_su2_batch(rng, 5)
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValueError):
            _check_su2(stack)


class TestCollectiveRotation:
    def test_identity(self):
        assert np.array_equal(collective_rotation(GroupElement.identity(), 3), np.eye(8))

    def test_single_factor_is_the_element(self, rng):
        g = haar_random_su2(rng)
        assert np.array_equal(collective_rotation(g, 1), g.matrix)

    def test_singlet_invariant_up_to_phase(self, rng):
        for _ in range(100):
            u = collective_rotation(haar_random_su2(rng), 2)
            assert abs(abs(SINGLET.evolve(u).overlap(SINGLET)) - 1.0) < 1e-10

    def test_unitary_for_all_sizes(self, rng):
        for n in range(1, 11):
            u = collective_rotation(haar_random_su2(rng), n)
            assert np.abs(u @ u.conj().T - np.eye(2 ** n)).max() < 1e-10

    def test_rejects_zero_qubits(self, rng):
        with pytest.raises(ValueError):
            collective_rotation(haar_random_su2(rng), 0)


def kron_chain(g: GroupElement, n: int) -> np.ndarray:
    """The dense oracle: g (x) ... (x) g as a left-to-right np.kron chain."""
    out = np.array(g.matrix)
    for _ in range(n - 1):
        out = np.kron(out, g.matrix)
    return out


def whole_level_powers(matrices: np.ndarray, n: int) -> np.ndarray:
    """The loop ``_tensor_powers`` replaced: each level built whole by four strided multiplies."""
    out = np.array(matrices, dtype=complex)
    factors = [(i, j, matrices[:, i, j, None, None]) for i in range(2) for j in range(2)]
    for _ in range(n - 1):
        k, d = out.shape[:2]
        nxt = np.empty((k, d, 2, d, 2), dtype=complex)
        for i, j, factor in factors:
            np.multiply(out, factor, out=nxt[:, :, i, :, j])
        out = nxt.reshape(k, 2 * d, 2 * d)
    return out


class TestCollectiveRotationOracle:
    """The fast builder and the matrix-free rotation against the kron chain."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_builder_equals_kron_chain_bit_for_bit(self, rng, n):
        for _ in range(3):
            g = haar_random_su2(rng)
            assert np.array_equal(collective_rotation(g, n), kron_chain(g, n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_batched_kernel_equals_kron_chain_bit_for_bit(self, rng, n):
        stack = haar_random_su2_batch(rng, 3)
        powers = _tensor_powers(stack, n)
        assert powers.shape == (3, 2 ** n, 2 ** n)
        for u, power in zip(stack, powers):
            assert np.array_equal(power, kron_chain(GroupElement(u), n))

    # 16: one-row runs, tails of up to six levels, and a stack of 15 past the budget at level 1;
    # 48: also a ragged last run (three head rows of four at n = 3); 1000: level-3 and level-4
    # heads, ragged runs of up to 15 rows, and runs of three whole powers (n = 4, k = 15);
    # 2000: a ragged last group of powers (7, 7 and 1 at n = 4, k = 15)
    @pytest.mark.parametrize("budget", [16, 48, 1000, 2000])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_row_chunks_equal_both_oracles_bit_for_bit(self, monkeypatch, budget, k):
        monkeypatch.setattr(core, "_TENSOR_CHUNK_ENTRIES", budget)
        stack = haar_random_su2_batch(RandomSource(budget + k), k)
        for n in range(1, 8):
            powers = _tensor_powers(stack, n)
            assert powers.shape == (k, 2 ** n, 2 ** n)
            assert powers.tobytes() == whole_level_powers(stack, n).tobytes()
            for u, power in zip(stack, powers):
                assert power.tobytes() == kron_chain(GroupElement(u), n).tobytes()

    def test_n10_rotation_builds_no_level_nine_matrix(self):
        g = haar_random_su2(RandomSource(3))
        tracemalloc.start()
        try:
            u = collective_rotation(g, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 16 MiB result, the 1 MiB level-8 head and one run of scratch; the whole-level
        # build peaked at 20.13 MiB, with the 4 MiB level-9 matrix beside the result
        assert u.nbytes == 2 ** 24 and peak <= 18 * 2 ** 20

    # a budget of chunk * 64 entries is batches of chunk draws at n = 3
    @pytest.mark.parametrize("draws, chunk", [(1, 4), (8, 4), (10, 4), (10, 10), (3, 64)])
    def test_producer_yields_the_kernel_of_the_same_draws(self, monkeypatch, draws, chunk):
        monkeypatch.setattr(core, "_TENSOR_CHUNK_ENTRIES", chunk * 64)
        produced, oracle = RandomSource(19), RandomSource(19)
        stacks = list(_haar_rotation_chunks(produced, draws, 3))
        sizes = [min(chunk, draws - start) for start in range(0, draws, chunk)]
        assert [len(s) for s in stacks] == sizes
        for stack, size in zip(stacks, sizes):
            assert np.array_equal(stack, _tensor_powers(haar_random_su2_batch(oracle, size), 3))
        assert np.array_equal(produced.normal(4), oracle.normal(4))

    # at the shipped 2^16 entries: 256 powers a batch at n = 4, 16 at n = 6, one from n = 8
    @pytest.mark.parametrize("n, draws, sizes", [(4, 257, [256, 1]), (6, 40, [16, 16, 8]),
                                                 (8, 2, [1, 1]), (9, 2, [1, 1])])
    def test_producer_batches_by_the_one_rule(self, n, draws, sizes):
        stacks = list(_haar_rotation_chunks(RandomSource(5), draws, n))
        assert [s.shape for s in stacks] == [(k, 2 ** n, 2 ** n) for k in sizes]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matrix_free_matches_dense(self, rng, n):
        for _ in range(3):
            g = haar_random_su2(rng)
            state = random_state_vector(rng, 2 ** n)
            dense = kron_chain(g, n) @ state.amplitudes
            assert np.abs(apply_collective_rotation(g, state).amplitudes - dense).max() < 1e-13

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_matrix_free_rejects_non_qubit_dimensions(self, dim):
        with pytest.raises(ValueError, match="not a qubit count"):
            apply_collective_rotation(GroupElement.identity(), StateVector.basis(dim, 0))


class TestMetrics:
    def test_fidelity_with_self(self, rng):
        rho = random_density(rng, 4)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_fidelity_orthogonal_pure_states(self):
        zero = StateVector.basis(2, 0).to_density()
        one = StateVector.basis(2, 1).to_density()
        assert fidelity(zero, one) < 1e-12

    def test_fidelity_pure_vs_maximally_mixed(self):
        zero = StateVector.basis(2, 0).to_density()
        assert abs(fidelity(zero, DensityOperator.maximally_mixed(2)) - 0.5) < 1e-12

    def test_fidelity_with_pure_state_reduces_to_overlap(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            psi = random_state_vector(rng, 4)
            direct = psi.expectation(rho.matrix).real
            assert abs(fidelity(rho, psi.to_density()) - direct) < 1e-10

    def test_fidelity_is_returned_unclipped(self):
        # README's quick-start decode: the raw value rounds past 1 (1.0000000000000018 with
        # the pinned BLAS of tests/report_digests.txt) and is not clipped back
        enc = dfs_encoding_4qubit()
        psi = StateVector.normalized([0.6, 0.8j])
        out = decode_logical(TwirlChannel.full_su2(4).apply(encode_logical(psi, enc)), enc)
        assert fidelity(out, psi.to_density()) > 1.0

    def test_fidelity_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity(random_density(rng, 2), random_density(rng, 4))

    def test_trace_distance_basics(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) < 1e-12
        zero = StateVector.basis(2, 0).to_density()
        one = StateVector.basis(2, 1).to_density()
        assert abs(trace_distance(zero, one) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            trace_distance(zero, random_density(rng, 4))

    def test_trace_distance_is_the_unclipped_dense_value(self):
        # |0> and |1> in a seeded random frame: the eigenvalue sum rounds past 1
        g = haar_random_su2(RandomSource(28))
        zero, one = (StateVector.basis(2, k).evolve(g.matrix).to_density() for k in (0, 1))
        assert trace_distance(zero, one) == dense_distance(zero, one) > 1.0

    def test_fuchs_van_de_graaff_sandwich(self, rng):
        for _ in range(100):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            f = fidelity(rho, sigma)
            d = trace_distance(rho, sigma)
            assert 1.0 - np.sqrt(f) <= d + 1e-9
            assert d <= np.sqrt(1.0 - f) + 1e-9

    def test_hermitian_eigensolver_contract(self, rng):
        m = rng.normal((16, 16)) + 1j * rng.normal((16, 16))
        m = m + m.conj().T
        w, v = np.linalg.eigh(m)
        assert np.all(np.isreal(w))
        assert np.abs(m @ v - v * w).max() < 1e-9


class TestWrapperValidation:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_state_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("index", [-1, 4, 1.0, 2.5, True])
    def test_basis_rejects_an_index_outside_its_range(self, index):
        # numpy would read -1 as |3>, and raise its own IndexError for 4
        with pytest.raises(ValueError, match=r"^basis index must be an integer in 0..3, got "):
            StateVector.basis(4, index)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector.normalized(np.zeros(4))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_arrays_are_read_only(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_random_states_are_valid(self, rng):
        assert abs(np.linalg.norm(random_state_vector(rng, 8).amplitudes) - 1.0) < 1e-12


def weight_diagonal(rng, n: int = 6) -> np.ndarray:
    """The Hamming-weight blocks of a random n-qubit state and zeros elsewhere: again a state."""
    dense = random_density(rng, 2 ** n).matrix
    m = np.zeros_like(dense)
    for rows in weight_indices(2 ** n):
        m[rows[:, None], rows] = dense[rows[:, None], rows]
    return m


def with_block_eigenvalue(lowest: float, weight: int = 3) -> np.ndarray:
    """A weight-diagonal 64 x 64 matrix of trace 1 whose weight block (1..5) has the eigenvalue
    ``lowest``; every other block is 1/64."""
    size = comb(6, weight)
    spectrum = np.full(size, 1 / 64)
    spectrum[0], spectrum[1] = lowest, 2 / 64 - lowest
    q, _ = np.linalg.qr(RandomSource(3).normal((size, size)))
    m = np.eye(64, dtype=complex) / 64
    rows = weight_indices(64)[weight]
    m[rows[:, None], rows] = (q * spectrum) @ q.T
    return m


def with_eigenvalue(dim: int, lowest: float) -> np.ndarray:
    """A dense dim x dim matrix of trace 1 with the eigenvalue ``lowest`` and no zero entry."""
    g = RandomSource(5).normal((dim, dim)) + 1j * RandomSource(6).normal((dim, dim))
    q, _ = np.linalg.qr(g)
    spectrum = np.full(dim, (1 - lowest) / (dim - 1))
    spectrum[0] = lowest
    return (q * spectrum) @ q.conj().T


def weight_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Copies of the Hamming-weight blocks of m, weight 0 first."""
    return [m[rows[:, None], rows] for rows in weight_indices(len(m))]


def from_blocks(m: np.ndarray) -> DensityOperator:
    """The state built from the Hamming-weight blocks of m, as each twirl builds its output."""
    return DensityOperator._from_weight_blocks(weight_blocks(m))


class TestPositivity:
    """The Cholesky check of m + ATOL * 1 and the oracle eigvalsh(m).min() >= -ATOL agree."""

    @pytest.mark.parametrize("k", [-10, -2, -1.01, -0.99, -0.5, 0])
    @pytest.mark.parametrize("form, dim", [("dense", 2), ("dense", 16), ("dense", 64),
                                           ("dense", 256), ("blocks", 64)])
    def test_accepts_exactly_when_the_oracle_does(self, form, dim, k):
        m = with_block_eigenvalue(k * ATOL) if form == "blocks" else with_eigenvalue(dim, k * ATOL)
        accepts = np.linalg.eigvalsh(m).min() >= -ATOL
        assert accepts == (k > -1)  # the case lies on the side of -ATOL it was built for
        build = from_blocks if form == "blocks" else DensityOperator
        if accepts:
            assert (build(m).blocks is None) == (form == "dense")
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                build(m)


def nan_entry(blocks):
    blocks[1][0, 0] = np.nan


def infinite_entry_in_weight_5(blocks):
    blocks[5][2, 3] = np.inf  # weight 5 is the second block of the weights 1 and 5 stack


def skew_entry(blocks):
    blocks[1][0, 1] += 2 * ATOL


def skew_entry_in_weight_4(blocks):
    blocks[4][0, 1] += 2 * ATOL


def trace_off(blocks):
    blocks[0][0, 0] += 2 * ATOL


def negative_eigenvalue(blocks):
    blocks[3] = weight_blocks(with_block_eigenvalue(-2 * ATOL))[3]


def block_missing(blocks):
    del blocks[-1]


def block_short(blocks):
    blocks[2] = blocks[2][:-1, :-1]


class TestFromWeightBlocks:
    """``DensityOperator._from_weight_blocks`` builds its matrix from its blocks, keeps
    read-only copies of them and runs the Hermitian, trace and positivity checks on
    those.  Its matrix equals the one ``DensityOperator(matrix)`` keeps bit for bit:
    ``test_twirl.py::TestBlockForm``."""

    def test_blocks_are_read_only_copies(self, rng):
        given = weight_blocks(weight_diagonal(rng))
        rho = DensityOperator._from_weight_blocks(given)
        for block, source in zip(rho.blocks, given, strict=True):
            assert np.array_equal(block, source)
            assert not np.shares_memory(block, source)
            assert not np.shares_memory(block, rho.matrix)
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    @pytest.mark.parametrize("fault, message", [pytest.param(f, m, id=f.__name__) for f, m in (
        (nan_entry, "non-finite"), (infinite_entry_in_weight_5, "non-finite"),
        (skew_entry, "not Hermitian"), (skew_entry_in_weight_4, "not Hermitian"),
        (trace_off, "trace"), (negative_eigenvalue, "negative eigenvalue"),
        (block_missing, "Hamming-weight blocks"), (block_short, "Hamming-weight blocks"))])
    def test_rejects(self, fault, message):
        blocks = weight_blocks(with_block_eigenvalue(0.0))
        assert DensityOperator._from_weight_blocks(blocks).blocks is not None
        fault(blocks)
        with pytest.raises(ValueError, match=message):
            DensityOperator._from_weight_blocks(blocks)

    @pytest.mark.parametrize("weight", [1, 2, 4, 5])
    def test_rejects_a_negative_eigenvalue_in_either_block_of_a_stack(self, weight):
        # weights k and 6 - k share a stack: 4 and 5 are the second block of theirs
        m = with_block_eigenvalue(-2 * ATOL, weight)
        assert np.linalg.eigvalsh(m).min() < -ATOL  # the dense predicate says the same
        partner = weight_indices(64)[6 - weight]  # 1/64, so positive
        assert np.array_equal(m[partner[:, None], partner], np.eye(len(partner)) / 64)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            from_blocks(m)

    def test_blocks_are_read_only_views_of_the_stacks(self, rng):
        rho = from_blocks(weight_diagonal(rng))
        assert [s.shape for s in rho._stacks] == [(2, 1, 1), (2, 6, 6), (2, 15, 15), (1, 20, 20)]
        for stack, pair in zip(rho._stacks, _in_stacks(rho.blocks), strict=True):
            assert not stack.flags.writeable
            assert all(b.base is stack for b in pair)
            assert np.array_equal(stack, np.stack(pair))


def sector_skew(q, carriers):
    q[1, 2] += 2 * ATOL  # inside the second sector, j = n/2 - 1
    return q, carriers


def sector_trace_off(q, carriers):
    q[-1, -1] += 2 * ATOL  # in the j = 0 sector, carrier 1
    return q, carriers


def sector_carrier_off(q, carriers):
    carriers[0] += 1
    return q, carriers


class TestFromWeightBlocksWithSectors:
    """``_from_weight_blocks`` keeps one read-only copy of an SU(2) output's Q, and its j
    sectors as views of it, once Q is Hermitian and sum_b (2j_b+1) Q_bb is tr m, both to ATOL."""

    @staticmethod
    def parts(rng, monkeypatch):
        """The blocks, Q and carriers that an n = 6 full SU(2) twirl hands over, as copies."""
        given, build = [], DensityOperator._from_weight_stacks
        monkeypatch.setattr(DensityOperator, "_from_weight_stacks",
                            staticmethod(lambda *args: given.append(args) or build(*args)))
        TwirlChannel.full_su2(6).apply(random_density(rng, 64))
        monkeypatch.undo()
        [(stacks, (q, carriers))] = given
        return [b.copy() for b in _by_weight(stacks)], q.copy(), carriers.copy()

    def test_sectors_are_read_only_views_of_one_copy(self, rng, monkeypatch):
        blocks, q, carriers = self.parts(rng, monkeypatch)
        rho = DensityOperator._from_weight_blocks(blocks, (q, carriers))
        kept = rho.sectors[0][1].base
        assert np.array_equal(kept, q) and not np.shares_memory(kept, q)
        start = 0
        for (carrier, s), (j, count) in zip(rho.sectors, decompose(6).multiplicity_table.items(),
                                             strict=True):
            assert carrier == j.twice + 1 and s.base is kept
            assert np.array_equal(s, q[start:start + count, start:start + count])
            with pytest.raises(ValueError):
                s[0, 0] = 0.0
            start += count

    @pytest.mark.parametrize("fault, message", [pytest.param(f, m, id=f.__name__) for f, m in (
        (sector_skew, "not Hermitian"), (sector_trace_off, "sector trace"),
        (sector_carrier_off, "sector trace"))])
    def test_rejects(self, rng, monkeypatch, fault, message):
        blocks, q, carriers = self.parts(rng, monkeypatch)
        with pytest.raises(ValueError, match=message):
            DensityOperator._from_weight_blocks(blocks, fault(q, carriers))

    def test_rejects_carriers_of_the_wrong_length(self, rng, monkeypatch):
        blocks, q, carriers = self.parts(rng, monkeypatch)
        for wrong in (carriers[:-1], np.append(carriers, 1)):
            with pytest.raises(ValueError):  # numpy's, from the carrier-weighted trace
                DensityOperator._from_weight_blocks(blocks, (q, wrong))


class TestBlockForm:
    """States built from their Hamming-weight blocks keep them; a matrix passed in keeps none."""

    SIZES = [comb(6, k) for k in range(7)]

    def test_blocks_are_stored_read_only(self, rng):
        m = weight_diagonal(rng)
        rho = from_blocks(m)
        assert [len(b) for b in rho.blocks] == self.SIZES
        for rows, block in zip(weight_indices(64), rho.blocks):
            assert np.array_equal(block, m[rows[:, None], rows])
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    def test_block_spectrum_is_the_dense_spectrum(self, rng):
        rho = from_blocks(weight_diagonal(rng))
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in rho.blocks]))
        assert np.abs(spectrum - np.linalg.eigvalsh(rho.matrix)).max() < 1e-15

    def test_plain_operators_carry_no_blocks(self, rng):
        # blocks are built, never found: not even a weight-diagonal matrix keeps them
        assert random_density(rng, 64).blocks is None
        assert DensityOperator(weight_diagonal(rng)).blocks is None

    @pytest.mark.parametrize("dim", [3, 6, 32, 96])
    def test_other_dimensions_take_the_dense_path(self, dim):
        assert DensityOperator(np.eye(dim) / dim).blocks is None

    def test_rejects_a_negative_block_eigenvalue(self):
        m = with_block_eigenvalue(-2 * ATOL)
        assert np.linalg.eigvalsh(m).min() < -ATOL  # the dense predicate says the same
        with pytest.raises(ValueError, match="negative eigenvalue"):
            from_blocks(m)

    def test_accepts_a_block_eigenvalue_within_atol(self):
        m = with_block_eigenvalue(-0.5 * ATOL)
        assert np.linalg.eigvalsh(m).min() >= -ATOL  # the dense predicate says the same
        assert from_blocks(m).blocks is not None

    def test_rejects_a_block_trace_off_by_more_than_atol(self, rng):
        with pytest.raises(ValueError, match="trace"):
            from_blocks(weight_diagonal(rng) * (1 + 2 * ATOL))

    def test_rejects_non_hermitian_blocks(self, rng):
        m = weight_diagonal(rng)
        m[1, 2] += 2 * ATOL  # indices 1 and 2 both have weight 1
        with pytest.raises(ValueError, match="not Hermitian"):
            from_blocks(m)

    def test_rejects_non_finite_blocks(self, rng):
        m = weight_diagonal(rng)
        m[1, 1] = np.nan
        with pytest.raises(ValueError):
            from_blocks(m)

    def test_rejects_blocks_without_a_frame_and_a_frame_without_blocks(self, rng):
        # the matrix is the only argument: blocks are built by _from_weight_blocks, never given
        m = weight_diagonal(rng)
        with pytest.raises(TypeError):
            DensityOperator(m, blocks=from_blocks(m).blocks)
        with pytest.raises(TypeError):
            DensityOperator(m, frame=object())

    def test_same_frame_distance_reads_the_blocks(self, rng):
        rho, sigma = from_blocks(weight_diagonal(rng)), from_blocks(weight_diagonal(rng))
        d = trace_distance(rho, sigma)
        assert d > 0.1
        assert abs(d - dense_distance(rho, sigma)) < 1e-15

    def test_same_frame_distance_trusts_the_blocks(self, rng, monkeypatch):
        # the shapes of the matrices decomposed show which path was taken: one stack of
        # weights k and 6 - k at a time
        rho, sigma = from_blocks(weight_diagonal(rng)), from_blocks(weight_diagonal(rng))
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        trace_distance(rho, sigma)
        assert shapes == [(2, 1, 1), (2, 6, 6), (2, 15, 15), (1, 20, 20)]

    def test_other_frames_take_the_dense_path_exactly(self, rng):
        rho = from_blocks(weight_diagonal(rng))
        for sigma in (random_density(rng, 64), DensityOperator(weight_diagonal(rng))):
            assert sigma.blocks is None
            assert trace_distance(rho, sigma) == dense_distance(rho, sigma)
            assert trace_distance(sigma, rho) == dense_distance(sigma, rho)


class TestMaximallyMixed:
    """``maximally_mixed(2^n)`` is built from identity weight blocks, so a twirl-check
    fixed-point distance reads blocks; it has the bits of the dense 1/dim."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_is_the_identity_over_dim_kept_as_blocks_from_64(self, n):
        dim = 2 ** n
        rho = DensityOperator.maximally_mixed(dim)
        assert rho.matrix.tobytes() == (np.eye(dim, dtype=complex) / dim).tobytes()
        if dim < 64:
            assert rho.blocks is None
            return
        assert [len(b) for b in rho.blocks] == [comb(n, k) for k in range(n + 1)]
        for block in rho.blocks:
            assert block.tobytes() == (np.eye(len(block), dtype=complex) / dim).tobytes()
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    @pytest.mark.parametrize("dim", [3, 6, 96, 4.0, 64.0, True, "4"])
    def test_rejects_a_dimension_that_is_not_a_power_of_two(self, dim):
        DensityOperator.maximally_mixed(4), DensityOperator.maximally_mixed(64)  # cached first
        with pytest.raises(ValueError, match="not a qubit count"):
            DensityOperator.maximally_mixed(dim)
        with pytest.raises(ValueError, match="not a qubit count"):
            _qubit_count(dim)

    def test_twirl_check_fixed_point_distance_reads_the_blocks(self, monkeypatch):
        # each channel's idempotence and fixed-point distances, one state; a pair of parts
        # that are equal bit for bit is never decomposed
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        assert main(["twirl-check", "--n", "6", "--trials", "1"]) == 0
        # SU(2) idempotence: the sectors c_j = 1, 5, 9, 5, the 1 x 1 j = 3 pair equal;
        # SU(2) fixed point: the weight block stacks, the 1 x 1 pairs at weights 0 and 6 equal;
        # U(1): every block of both distances equal
        assert shapes == [(5, 5), (9, 9), (5, 5), (2, 6, 6), (2, 15, 15), (1, 20, 20)]
