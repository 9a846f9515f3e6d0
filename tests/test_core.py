import numpy as np
import pytest

from framefree.core import (ATOL, DensityOperator, GroupElement, RandomSource, StateVector,
                            apply_collective_rotation, collective_rotation, fidelity,
                            haar_random_su2, haar_random_su2_batch, random_density,
                            random_state_vector, trace_distance)

SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


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

    def test_sample_index_accepts_rounding_within_atol(self, rng):
        assert all(rng.sample_index([-1e-12, 1.0 + 1e-12]) == 1 for _ in range(50))


class TestHaarSampling:
    def test_group_membership(self, rng):
        for _ in range(50):
            g = haar_random_su2(rng)  # GroupElement validates itself
            assert np.abs(g.matrix @ g.matrix.conj().T - np.eye(2)).max() < 1e-10
            assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-10

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


def dense_trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """The dense oracle: half the absolute eigenvalue sum of a - b, clipped as the code clips."""
    return min(max(0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum()), 0.0), 1.0)


def kron_block_state(block, frame) -> DensityOperator:
    """block (x) I_2 in the computational basis, carrying that one block."""
    block = np.asarray(block, dtype=complex)
    return DensityOperator(np.kron(block, np.eye(2)), blocks=((block, 2),), frame=frame)


class TestBlockForm:
    """Operators that carry their blocks: validation and trace distance."""

    B = np.array([[0.3, 0.05j], [-0.05j, 0.2]])
    C = np.array([[0.1, 0.0], [0.0, 0.4]])

    def test_blocks_are_stored_read_only(self):
        rho = kron_block_state(self.B, object())
        (block, width), = rho.blocks
        assert width == 2 and np.array_equal(block, self.B)
        with pytest.raises(ValueError):
            block[0, 0] = 0.0

    def test_block_spectrum_is_the_dense_spectrum(self):
        rho = kron_block_state(self.B, object())
        spectrum = np.repeat(np.linalg.eigvalsh(self.B), 2)
        assert np.abs(np.sort(spectrum) - np.linalg.eigvalsh(rho.matrix)).max() < 1e-15

    def test_plain_operators_carry_no_blocks(self, rng):
        rho = random_density(rng, 4)
        assert rho.blocks is None and rho.frame is None

    def test_rejects_a_negative_block_eigenvalue(self):
        # the matrix is a valid state; only the blocks say otherwise
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.eye(2) / 2, blocks=((np.diag([1.1, -0.1]), 1),), frame=object())

    def test_accepts_a_block_eigenvalue_within_atol(self):
        blocks = ((np.diag([1.0 + 0.5 * ATOL, -0.5 * ATOL]), 1),)
        DensityOperator(np.eye(2) / 2, blocks=blocks, frame=object())

    @pytest.mark.parametrize("blocks", [
        ((np.eye(1), 1),),  # one dimension short
        ((np.eye(2) / 4, 2),),  # one block too many copies
        ((np.eye(2) / 2, 0),),  # no copy at all
        ((np.ones((1, 2)), 2),),  # not square
    ])
    def test_rejects_blocks_that_do_not_span(self, blocks):
        with pytest.raises(ValueError, match="do not span"):
            DensityOperator(np.eye(2) / 2, blocks=blocks, frame=object())

    def test_rejects_a_block_trace_off_by_more_than_atol(self):
        blocks = ((np.diag([0.5, 0.5 + 2 * ATOL]), 1),)
        with pytest.raises(ValueError, match="blocks have trace"):
            DensityOperator(np.eye(2) / 2, blocks=blocks, frame=object())

    def test_rejects_non_finite_blocks(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2) / 2, blocks=((np.diag([0.5, np.nan]), 1),), frame=object())

    def test_rejects_blocks_without_a_frame_and_a_frame_without_blocks(self):
        with pytest.raises(ValueError, match="together"):
            DensityOperator(np.eye(2) / 2, blocks=((np.eye(2) / 2, 1),))
        with pytest.raises(ValueError, match="together"):
            DensityOperator(np.eye(2) / 2, frame=object())

    def test_same_frame_distance_reads_the_blocks(self):
        frame = object()
        rho, sigma = kron_block_state(self.B, frame), kron_block_state(self.C, frame)
        d = trace_distance(rho, sigma)
        assert d > 0.1
        assert abs(d - dense_trace_distance(rho, sigma)) < 1e-15

    def test_same_frame_distance_trusts_the_blocks(self):
        # a deliberately inconsistent pair shows which path was taken
        frame = object()
        rho = kron_block_state(self.B, frame)
        liar = DensityOperator(rho.matrix, blocks=((self.C, 2),), frame=frame)
        assert trace_distance(rho, liar) > 0.1
        assert dense_trace_distance(rho, liar) == 0.0

    def test_other_frames_take_the_dense_path_exactly(self, rng):
        rho = kron_block_state(self.B, object())
        for sigma in (kron_block_state(self.C, object()),
                      DensityOperator(np.kron(self.C, np.eye(2))), random_density(rng, 4)):
            assert trace_distance(rho, sigma) == dense_trace_distance(rho, sigma)
            assert trace_distance(sigma, rho) == dense_trace_distance(sigma, rho)
