import re
from math import comb

import numpy as np
import pytest

from framefree.core import (ATOL, MAX_CODEBOOK_QUBITS, MAX_QUBITS, MAX_RATE_QUBITS,
                            DensityOperator, GroupElement, RandomSource, StateVector,
                            _check_su2, _tensor_powers, apply_collective_rotation, collective_rotation, fidelity,
                            haar_random_su2, haar_random_su2_batch, random_density,
                            random_state_vector, trace_distance, weight_indices)
from framefree.irreps import decompose, multiplicity, total_irrep_count
from framefree.optics import DetectionDistribution
from framefree.protocols import (build_classical_codebook, decode_logical,
                                 dephasing_sector_encoding, dfs_encoding_4qubit,
                                 encode_logical, most_repeated_irrep, noiseless_subsystem_plan,
                                 rate_table)
from framefree.twirl import TwirlChannel
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
    ("build_classical_codebook", build_classical_codebook, 1, MAX_CODEBOOK_QUBITS),
    ("noiseless_subsystem_plan", noiseless_subsystem_plan, 2, MAX_CODEBOOK_QUBITS),
    ("dephasing_sector_encoding", dephasing_sector_encoding, 1, MAX_QUBITS),
    ("rate_table", rate_table, 1, MAX_RATE_QUBITS),
)


@pytest.mark.parametrize("call, n, message", [
    pytest.param(call, n, (f"qubit count must be in {low}..{high}, got {n}" if high
                           else f"qubit count must be at least {low}, got {n}"),
                 id=f"{name}-{n}")
    for name, call, low, high in QUBIT_COUNT_GUARDS
    for n in dict.fromkeys([low - 1, -1] + ([high + 1] if high else []))])
def test_qubit_count_out_of_range_raises_the_one_message(call, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(n)


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

    def test_sample_index_is_deterministic(self):
        p = [0.25, 0.5, 0.25]
        draws = [RandomSource(3).sample_index(p) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]

    def test_sample_index_point_mass(self, rng):
        assert all(rng.sample_index([0.0, 1.0, 0.0]) == 1 for _ in range(50))

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [-0.5, 1.5], [0.0, 0.0], [np.nan, 1.0]])
    def test_sample_index_rejects_non_distributions(self, rng, bad):
        with pytest.raises(ValueError, match="not a probability vector"):
            rng.sample_index(bad)

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [-0.5, 1.5], [0.0, 0.0], [np.nan, 1.0]])
    @pytest.mark.parametrize("check", [lambda rng, p: rng.sample_counts(p, 10),
                                       lambda rng, p: DetectionDistribution(*p, 0.0)],
                             ids=["sample_counts", "DetectionDistribution"])
    def test_counts_and_detection_share_the_check(self, rng, check, bad):
        with pytest.raises(ValueError, match="^not a probability vector"):
            check(rng, bad)

    def test_sample_index_accepts_rounding_within_atol(self, rng):
        assert all(rng.sample_index([-1e-12, 1.0 + 1e-12]) == 1 for _ in range(50))

    def test_sample_counts_accepts_rounding_within_atol(self, rng):
        assert rng.sample_counts([-1e-12, 1.0 + 1e-12], 50).tolist() == [0, 50]


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


def with_block_eigenvalue(lowest: float) -> np.ndarray:
    """A weight-diagonal 64 x 64 matrix of trace 1 whose weight-3 block has the eigenvalue ``lowest``."""
    spectrum = np.full(20, 1 / 64)
    spectrum[0], spectrum[1] = lowest, 2 / 64 - lowest
    q, _ = np.linalg.qr(RandomSource(3).normal((20, 20)))
    m = np.eye(64, dtype=complex) / 64
    rows = weight_indices(64)[3]
    m[rows[:, None], rows] = (q * spectrum) @ q.T
    return m


class TestBlockForm:
    """Operators that are block diagonal in Hamming weight find and keep their blocks."""

    SIZES = [comb(6, k) for k in range(7)]

    def test_blocks_are_stored_read_only(self, rng):
        m = weight_diagonal(rng)
        rho = DensityOperator(m)
        assert [len(b) for b in rho.blocks] == self.SIZES
        for rows, block in zip(weight_indices(64), rho.blocks):
            assert np.array_equal(block, m[rows[:, None], rows])
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    def test_block_spectrum_is_the_dense_spectrum(self, rng):
        rho = DensityOperator(weight_diagonal(rng))
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in rho.blocks]))
        assert np.abs(spectrum - np.linalg.eigvalsh(rho.matrix)).max() < 1e-15

    def test_plain_operators_carry_no_blocks(self, rng):
        assert random_density(rng, 64).blocks is None

    @pytest.mark.parametrize("i, j", [(0, 1), (3, 4), (0, 63)])
    def test_one_tiny_entry_outside_the_blocks_forces_the_dense_path(self, rng, i, j):
        m = weight_diagonal(rng)
        m[i, j] = m[j, i] = 1e-300
        assert DensityOperator(m).blocks is None
        assert DensityOperator(weight_diagonal(rng)).blocks is not None

    @pytest.mark.parametrize("dim", [3, 6, 32, 96])  # 32 = 2^5 is below the block path's size
    def test_other_dimensions_take_the_dense_path(self, dim):
        assert DensityOperator(np.eye(dim) / dim).blocks is None

    def test_rejects_a_negative_block_eigenvalue(self):
        m = with_block_eigenvalue(-2 * ATOL)
        assert np.linalg.eigvalsh(m).min() < -ATOL  # the dense predicate says the same
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(m)

    def test_accepts_a_block_eigenvalue_within_atol(self):
        m = with_block_eigenvalue(-0.5 * ATOL)
        assert np.linalg.eigvalsh(m).min() >= -ATOL  # the dense predicate says the same
        assert DensityOperator(m).blocks is not None

    def test_rejects_a_block_trace_off_by_more_than_atol(self, rng):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(weight_diagonal(rng) * (1 + 2 * ATOL))

    def test_rejects_non_hermitian_blocks(self, rng):
        m = weight_diagonal(rng)
        m[1, 2] += 2 * ATOL  # indices 1 and 2 both have weight 1
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator(m)

    def test_rejects_non_finite_blocks(self, rng):
        m = weight_diagonal(rng)
        m[1, 1] = np.nan
        with pytest.raises(ValueError):
            DensityOperator(m)

    def test_rejects_blocks_without_a_frame_and_a_frame_without_blocks(self, rng):
        # the matrix is the only argument: blocks are found, never given
        m = weight_diagonal(rng)
        with pytest.raises(TypeError):
            DensityOperator(m, blocks=DensityOperator(m).blocks)
        with pytest.raises(TypeError):
            DensityOperator(m, frame=object())

    def test_same_frame_distance_reads_the_blocks(self, rng):
        rho, sigma = DensityOperator(weight_diagonal(rng)), DensityOperator(weight_diagonal(rng))
        d = trace_distance(rho, sigma)
        assert d > 0.1
        assert abs(d - dense_distance(rho, sigma)) < 1e-15

    def test_same_frame_distance_trusts_the_blocks(self, rng, monkeypatch):
        # the sizes of the matrices decomposed show which path was taken
        rho, sigma = DensityOperator(weight_diagonal(rng)), DensityOperator(weight_diagonal(rng))
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        trace_distance(rho, sigma)
        assert sizes == self.SIZES

    def test_other_frames_take_the_dense_path_exactly(self, rng):
        rho = DensityOperator(weight_diagonal(rng))
        coupled = weight_diagonal(rng)
        coupled[0, 1] = coupled[1, 0] = 1e-300
        for sigma in (random_density(rng, 64), DensityOperator(coupled)):
            assert sigma.blocks is None
            assert trace_distance(rho, sigma) == dense_distance(rho, sigma)
            assert trace_distance(sigma, rho) == dense_distance(sigma, rho)
