import tracemalloc
from math import log2, sqrt
from pathlib import Path

import numpy as np
import pytest

from framefree import protocols
from framefree.core import (MAX_QUBITS, MAX_RATE_QUBITS, DensityOperator, GroupElement,
                            RandomSource, StateVector, _BELL_CHUNK_TRIALS,
                            collective_rotation, fidelity, haar_random_su2, random_density,
                            random_state_vector, trace_distance, weight_indices)
from framefree.irreps import HalfInteger, decompose, total_irrep_count
from framefree.protocols import (DecodingError, LogicalEncoding, Message,
                                 block_outcome_probabilities,
                                 build_classical_codebook, classical_rate_asymptote,
                                 classical_round_trip, classical_trial, decode_logical,
                                 dephasing_sector_encoding,
                                 dfs_encoding_4qubit, dfs_logical_paulis,
                                 encode_logical, exchange_logical_action,
                                 helstrom_success_probability,
                                 logical_bell_chsh_trials, most_repeated_irrep,
                                 noiseless_subsystem_plan, rate_table,
                                 swap_qubits_matrix)
from framefree.twirl import TwirlChannel
from racah_oracle import racah_blocks

SQRT2 = np.sqrt(2.0)
SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def swap_by_axis_transpose(n: int, a: int, b: int, amplitudes: np.ndarray) -> np.ndarray:
    """Exchange qubits a and b by permuting reshaped tensor axes."""
    axes = list(range(n))
    axes[a - 1], axes[b - 1] = axes[b - 1], axes[a - 1]
    return amplitudes.reshape((2,) * n).transpose(axes).reshape(-1)


def dfs_basis_4qubit() -> tuple[StateVector, StateVector]:
    """The two j=0 states of four qubits, in the computational basis:

        |0_L> = (1/2) (|01> - |10>)(|01> - |10>)
        |1_L> = (1/sqrt3)(|0011> + |1100>)
                 - (1/(2 sqrt3))(|01> + |10>)(|01> + |10>)
    """
    b0, b1 = np.eye(2, dtype=complex)
    antisym = np.kron(b0, b1) - np.kron(b1, b0)
    sym = np.kron(b0, b1) + np.kron(b1, b0)
    zero = 0.5 * np.kron(antisym, antisym)
    one = ((np.kron(np.kron(b0, b0), np.kron(b1, b1))
            + np.kron(np.kron(b1, b1), np.kron(b0, b0))) / sqrt(3.0)
           - np.kron(sym, sym) / (2.0 * sqrt(3.0)))
    return StateVector(zero), StateVector(one)


def per_trial_chsh(rng: RandomSource, rotation_trials: int) -> np.ndarray:
    """The one-trial-at-a-time CHSH loop: fresh operators, two dense rotations per trial."""
    enc = dfs_encoding_4qubit()
    v = enc.isometry
    z, x = dfs_logical_paulis(enc)
    zp = v @ z @ v.conj().T
    xp = v @ x @ v.conj().T
    b0 = (zp + xp) / SQRT2
    b1 = (zp - xp) / SQRT2
    # the 256-dim pair state, stored as a 16x16 coefficient matrix
    pair = (np.outer(v[:, 0], v[:, 0]) + np.outer(v[:, 1], v[:, 1])) / SQRT2

    def correlation(state: np.ndarray, a_op: np.ndarray, b_op: np.ndarray) -> float:
        return float(np.trace(state.conj().T @ a_op @ state @ b_op.T).real)

    values = np.empty(rotation_trials)
    for t in range(rotation_trials):
        ua = collective_rotation(haar_random_su2(rng), 4)
        ub = collective_rotation(haar_random_su2(rng), 4)
        rotated = ua @ pair @ ub.T
        values[t] = (correlation(rotated, zp, b0) + correlation(rotated, zp, b1)
                     + correlation(rotated, xp, b0) - correlation(rotated, xp, b1))
    return values


def bloch_projector(theta: float, phi: float) -> np.ndarray:
    vec = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return np.outer(vec, vec.conj())


class TestCodeBook:
    def test_two_qubit_entries(self):
        book = build_classical_codebook(2)
        assert len(book.entries) == 2
        first, second = book.entries
        assert first.j == HalfInteger.of(1) and abs(first.codeword.overlap(SINGLET)) < 1e-12
        assert abs(abs(second.codeword.overlap(SINGLET)) - 1.0) < 1e-12

    def test_singlet_first_flag(self):
        book = build_classical_codebook(2, singlet_first=True)
        assert abs(abs(book.entries[0].codeword.overlap(SINGLET)) - 1.0) < 1e-12
        assert book.entries[0].message == Message(0)
        with pytest.raises(ValueError):
            build_classical_codebook(4, singlet_first=True)

    def test_four_qubit_size(self):
        assert len(build_classical_codebook(4).entries) == 6

    def test_codewords_live_in_their_blocks(self):
        book = build_classical_codebook(4)
        for entry in book.entries:
            v = book.decomposition.block(entry.j, entry.r)
            p = v @ v.T
            assert np.abs(p @ entry.codeword.amplitudes
                          - entry.codeword.amplitudes).max() < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_classical_codebook(0)
        with pytest.raises(ValueError):
            build_classical_codebook(11)


class TestClassicalRoundTrip:
    def test_identity_rotation(self, rng):
        book = build_classical_codebook(2)
        for entry in book.entries:
            assert classical_round_trip(entry.message, book,
                                        GroupElement.identity(), rng) == entry.message

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_errors_under_random_frames(self, rng, n):
        book = build_classical_codebook(n)
        for entry in book.entries:
            for _ in range(100):
                g = haar_random_su2(rng)
                assert classical_round_trip(entry.message, book, g, rng) == entry.message

    def test_trial_returns_the_round_trip_and_its_distribution(self):
        book = build_classical_codebook(4)
        g = haar_random_su2(RandomSource(5))
        for entry in book.entries:
            a, b = RandomSource(8), RandomSource(8)
            decoded, probs = classical_trial(entry.message, book, g, a)
            assert decoded == classical_round_trip(entry.message, book, g, b) == entry.message
            rotated = entry.codeword.evolve(collective_rotation(g, 4))
            assert np.allclose(probs, block_outcome_probabilities(rotated, book.decomposition))
            assert a.generator.random() == b.generator.random()  # one draw each

    def test_outcome_distribution_is_point_mass(self, rng):
        book = build_classical_codebook(4)
        for entry in book.entries:
            rotated = entry.codeword.evolve(collective_rotation(haar_random_su2(rng), 4))
            probs = block_outcome_probabilities(rotated, book.decomposition)
            assert abs(probs.max() - 1.0) < 1e-10
            assert abs(probs.sum() - 1.0) < 1e-10


class TestBlockOutcomeOracle:
    """The one-product block distribution against a per-block loop."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_block_norms(self, rng, n):
        d = decompose(n)
        for _ in range(3):
            a = random_state_vector(rng, 2 ** n).amplitudes
            loop = np.array([np.linalg.norm(basis.T @ a) ** 2 for *_, basis in racah_blocks(n)])
            probs = block_outcome_probabilities(StateVector(a), d)
            assert probs.shape == loop.shape
            assert np.abs(probs - loop).max() < 1e-14
            assert abs(probs.sum() - 1.0) < 1e-14


class TestNoDenseRotationPerTrial:
    """A 2^n x 2^n complex matrix takes 16 MB at n = 10; a round trip allocates far less."""

    def test_round_trip_peak_memory(self, rng):
        book = build_classical_codebook(10)
        g = haar_random_su2(rng)
        tracemalloc.start()
        try:
            for entry in book.entries[:5]:
                assert classical_round_trip(entry.message, book, g, rng) == entry.message
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # bytes; the dense rotation alone is 2^24


class FixedOutcome:
    """Stands in for a RandomSource whose every sample is one block index."""

    def __init__(self, outcome: int):
        self.outcome = outcome

    def sample_index(self, probabilities) -> int:
        return self.outcome


CODEBOOKS = [(n, False) for n in range(1, 7)] + [(2, True)]


class TestCodeBookIndexOracle:
    """Message and outcome lookups against a scan over ``entries``."""

    @pytest.mark.parametrize("n, singlet_first", CODEBOOKS)
    def test_entry_matches_scan(self, n, singlet_first):
        book = build_classical_codebook(n, singlet_first=singlet_first)
        for i in range(len(book.entries)):
            scan = [e for e in book.entries if e.message == Message(i)]
            assert [book.entry(Message(i))] == scan
        with pytest.raises(KeyError):
            book.entry(Message(len(book.entries)))

    @pytest.mark.parametrize("n, singlet_first", CODEBOOKS)
    def test_outcome_to_message_matches_scan(self, n, singlet_first):
        book = build_classical_codebook(n, singlet_first=singlet_first)
        sent = book.entries[0].message
        for outcome, (j, r, _, _) in enumerate(racah_blocks(n)):
            scan = [e.message for e in book.entries if e.j == j and e.r == r]
            decoded = classical_round_trip(sent, book, GroupElement.identity(),
                                           FixedOutcome(outcome))
            assert [decoded] == scan


class TestHelstrom:
    def test_identical_states(self, rng):
        rho = random_density(rng, 4)
        assert abs(helstrom_success_probability(rho, rho) - 0.5) < 1e-12

    def test_orthogonal_pure_states(self):
        zero = StateVector.basis(2, 0).to_density()
        one = StateVector.basis(2, 1).to_density()
        assert abs(helstrom_success_probability(zero, one) - 1.0) < 1e-12

    def test_twirled_product_states(self):
        channel = TwirlChannel.full_su2(2)
        rho0 = channel.apply(StateVector.from_bits("00").to_density())
        rho1 = channel.apply(StateVector.from_bits("01").to_density())
        assert abs(helstrom_success_probability(rho0, rho1) - 0.75) < 1e-9

    def test_matches_bloch_grid_search_for_qubits(self, rng):
        # brute force: scan rank-1 projectors {P, I-P} over a Bloch-angle grid
        thetas = np.linspace(0.0, np.pi, 60)
        phis = np.linspace(0.0, 2 * np.pi, 120, endpoint=False)
        for _ in range(5):
            rho0, rho1 = random_density(rng, 2), random_density(rng, 2)
            best = 0.5  # the trivial always-guess measurement
            for theta in thetas:
                for phi in phis:
                    p = bloch_projector(theta, phi)
                    success = 0.5 * np.trace(p @ rho0.matrix).real \
                        + 0.5 * (1.0 - np.trace(p @ rho1.matrix).real)
                    best = max(best, success, 1.0 - success)
            assert abs(best - helstrom_success_probability(rho0, rho1)) < 1e-3

    def test_matches_eigenbasis_enumeration_for_twirled_pair(self, rng):
        # the twirled pair commutes, so the optimum is attained on projectors
        # built from subsets of the common eigenbasis; random rotations of the
        # best subset cannot beat it
        channel = TwirlChannel.full_su2(2)
        rho0 = channel.apply(StateVector.from_bits("00").to_density())
        rho1 = channel.apply(StateVector.from_bits("01").to_density())
        assert np.abs(rho0.matrix @ rho1.matrix - rho1.matrix @ rho0.matrix).max() < 1e-12
        _, basis = np.linalg.eigh(rho0.matrix - rho1.matrix)
        best = 0.0
        for mask in range(16):
            p = sum(np.outer(basis[:, k], basis[:, k].conj())
                    for k in range(4) if mask & (1 << k))
            p = np.zeros((4, 4), dtype=complex) if isinstance(p, int) else p
            success = 0.5 * np.trace(p @ rho0.matrix).real \
                + 0.5 * (1.0 - np.trace(p @ rho1.matrix).real)
            best = max(best, success)
        assert abs(best - 0.75) < 1e-12
        assert abs(best - helstrom_success_probability(rho0, rho1)) < 1e-3
        for _ in range(200):
            u = np.linalg.qr(rng.normal((4, 4)) + 1j * rng.normal((4, 4)))[0]
            p = u[:, :3] @ u[:, :3].conj().T
            success = 0.5 * np.trace(p @ rho0.matrix).real \
                + 0.5 * (1.0 - np.trace(p @ rho1.matrix).real)
            assert success <= best + 1e-9


class TestDfsBasis:
    def test_encoding_is_the_closed_form_with_the_same_signs(self):
        isometry = dfs_encoding_4qubit().isometry
        assert isometry.dtype == np.float64
        for column, state in zip(isometry.T, dfs_basis_4qubit(), strict=True):
            assert np.abs(column - state.amplitudes).max() <= 1e-15

    def test_src_builds_no_closed_form(self):
        src = Path(protocols.__file__).parent
        assert not [f for f in src.glob("*.py") if "dfs_basis_4qubit" in f.read_text()]

    def test_orthonormal_pair(self):
        zero, one = dfs_basis_4qubit()
        assert abs(zero.overlap(one)) < 1e-12

    def test_any_basis_spans_the_same_sector(self, rng):
        # expanding the states in the basis (g|0>, g|1>) is the collective rotation by g
        zero, one = dfs_basis_4qubit()
        reference = np.column_stack([zero.amplitudes, one.amplitudes])
        for _ in range(10):
            rotated = collective_rotation(haar_random_su2(rng), 4) @ reference
            # principal angles via singular values of the cross-Gram matrix
            singular = np.linalg.svd(reference.conj().T @ rotated, compute_uv=False)
            assert np.abs(singular - 1.0).max() < 1e-9

    def test_states_are_twirl_fixed_points(self):
        channel = TwirlChannel.full_su2(4)
        for state in dfs_basis_4qubit():
            rho = state.to_density()
            assert trace_distance(channel.apply(rho), rho) < 1e-9


class TestEncodeDecode:
    def test_dfs_encodes_logical_zero(self):
        enc = dfs_encoding_4qubit()
        zero_l, _ = dfs_basis_4qubit()
        rho = encode_logical(StateVector.basis(2, 0), enc)
        assert abs(fidelity(rho, zero_l.to_density()) - 1.0) < 1e-12

    def test_encoding_is_isometric(self, rng):
        enc = dfs_encoding_4qubit()
        psi = random_state_vector(rng, 2)
        rho = encode_logical(psi, enc)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10

    def test_dephasing_encodes_into_m_sector(self):
        enc = dephasing_sector_encoding(2)
        rho = encode_logical(StateVector.basis(2, 0), enc)
        expected = StateVector.from_bits("01").to_density()
        assert abs(fidelity(rho, expected) - 1.0) < 1e-12

    def test_round_trip_without_channel(self, rng):
        for enc in (dfs_encoding_4qubit(), noiseless_subsystem_plan(3),
                    dephasing_sector_encoding(2)):
            for _ in range(10):
                psi = random_state_vector(rng, enc.logical_dim)
                decoded = decode_logical(encode_logical(psi, enc), enc)
                assert abs(fidelity(decoded, psi.to_density()) - 1.0) < 1e-10

    @pytest.mark.parametrize("maker,channel_maker", [
        (dfs_encoding_4qubit, lambda: TwirlChannel.full_su2(4)),
        (lambda: noiseless_subsystem_plan(3), lambda: TwirlChannel.full_su2(3)),
        (lambda: dephasing_sector_encoding(2), lambda: TwirlChannel.u1_dephasing(2)),
    ])
    def test_round_trip_through_channel(self, rng, maker, channel_maker):
        enc, channel = maker(), channel_maker()
        for _ in range(25):
            psi = random_state_vector(rng, enc.logical_dim)
            decoded = decode_logical(channel.apply(encode_logical(psi, enc)), enc)
            assert fidelity(decoded, psi.to_density()) >= 1.0 - 1e-9

    def test_decode_rejects_state_outside_code(self):
        enc = dfs_encoding_4qubit()
        with pytest.raises(DecodingError):
            decode_logical(StateVector.from_bits("0000").to_density(), enc)

    def test_decode_rejects_a_state_half_outside_the_code(self, rng):
        # renormalizing the in-code half would decode it with fidelity 1: nothing is post-selected
        enc = dfs_encoding_4qubit()
        encoded = encode_logical(random_state_vector(rng, 2), enc).matrix
        leaky = 0.5 * encoded + 0.5 * StateVector.from_bits("0000").to_density().matrix
        with pytest.raises(DecodingError, match="^in-code probability .* is not 1$") as error:
            decode_logical(DensityOperator(leaky), enc)
        assert abs(float(str(error.value).split()[2]) - 0.5) < 1e-12

    def test_encode_rejects_wrong_dimension(self, rng):
        with pytest.raises(ValueError):
            encode_logical(random_state_vector(rng, 3), dfs_encoding_4qubit())


class TestExchangeGates:
    def test_swap_matrix_against_axis_transpose(self, rng):
        for a, b in ((1, 2), (2, 3), (1, 4)):
            s = swap_qubits_matrix(4, a, b)
            psi = random_state_vector(rng, 16).amplitudes
            assert np.abs(s @ psi - swap_by_axis_transpose(4, a, b, psi)).max() < 1e-12

    def test_swap12_and_swap34_act_as_minus_z(self):
        enc = dfs_encoding_4qubit()
        for pair in ((1, 2), (3, 4)):
            action = exchange_logical_action(*pair, enc)
            assert np.abs(action.matrix - np.diag([-1.0, 1.0])).max() < 1e-10
            assert action.leakage < 1e-10

    def test_swap23_from_independent_oracle(self):
        # oracle: 16-dim matrix elements computed by axis transposition on the
        # explicitly constructed code states
        enc = dfs_encoding_4qubit()
        zero, one = dfs_basis_4qubit()
        expected = np.empty((2, 2))
        for col, ket in enumerate((zero, one)):
            swapped = swap_by_axis_transpose(4, 2, 3, ket.amplitudes)
            expected[0, col] = np.vdot(zero.amplitudes, swapped).real
            expected[1, col] = np.vdot(one.amplitudes, swapped).real
        action = exchange_logical_action(2, 3, enc)
        assert np.abs(action.matrix - expected).max() < 1e-10
        # frozen values from the oracle
        assert np.abs(expected - np.array([[0.5, np.sqrt(3) / 2],
                                           [np.sqrt(3) / 2, -0.5]])).max() < 1e-12
        assert np.abs(action.matrix - action.matrix.conj().T).max() < 1e-12
        assert abs(action.matrix[0, 1]) > 0.1

    def test_swap12_and_swap23_do_not_commute(self):
        enc = dfs_encoding_4qubit()
        a = exchange_logical_action(1, 2, enc).matrix
        b = exchange_logical_action(2, 3, enc).matrix
        assert np.abs(a @ b - b @ a).max() > 0.1

    def test_rejects_bad_indices(self):
        enc = dfs_encoding_4qubit()
        with pytest.raises(ValueError):
            exchange_logical_action(1, 1, enc)
        with pytest.raises(ValueError):
            exchange_logical_action(0, 2, enc)

    def test_rejects_non_dfs_encoding(self):
        with pytest.raises(ValueError):
            exchange_logical_action(1, 2, noiseless_subsystem_plan(3))

    @pytest.mark.parametrize("make", [noiseless_subsystem_plan, dephasing_sector_encoding])
    def test_rejects_four_qubit_codes_off_j0(self, make):
        enc = make(4)  # n = 4, so only the j check rejects these
        assert enc.n == 4 and enc.j != HalfInteger(0)
        with pytest.raises(ValueError):
            exchange_logical_action(1, 2, enc)

    def test_exchange_commutes_with_collective_rotations(self, rng):
        s = swap_qubits_matrix(4, 2, 3)
        for _ in range(20):
            u = collective_rotation(haar_random_su2(rng), 4)
            assert np.abs(s @ u - u @ s).max() < 1e-10

    def test_gate_covariance_through_channel(self, rng):
        channel = TwirlChannel.full_su2(4)
        s = swap_qubits_matrix(4, 1, 2)
        rho = random_density(rng, 16)
        before = channel.apply(rho.evolve(s))
        after = channel.apply(rho).evolve(s)
        assert trace_distance(before, after) < 1e-9

    def test_logical_paulis(self):
        z, x = dfs_logical_paulis(dfs_encoding_4qubit())
        assert np.abs(z - np.diag([1.0, -1.0])).max() < 1e-12
        assert np.abs(x - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12
        assert np.abs(z @ x + x @ z).max() < 1e-9
        assert np.abs(x @ x - np.eye(2)).max() < 1e-9


def bases_with_j(n: int, j) -> list[np.ndarray]:
    """The Racah-built bases of one j, in path order, by a scan over every block."""
    return [basis for j_, _, _, basis in racah_blocks(n) if j_ == j]


def decode_with_stacked_sector(rho: DensityOperator, encoding) -> np.ndarray:
    """The oracle decode: the j sector copied block by block with np.hstack."""
    bases = bases_with_j(encoding.n, encoding.j)
    width, count = encoding.j.twice + 1, len(bases)
    sector = np.hstack(bases)
    inside = (sector.conj().T @ rho.matrix @ sector).reshape(count, width, count, width)
    reduced = np.trace(inside, axis1=1, axis2=3)
    return 0.5 * (reduced + reduced.conj().T)


def decode_by_compression(rho: DensityOperator, isometry: np.ndarray) -> np.ndarray:
    """The oracle decode of a subspace code: V^dag rho V."""
    reduced = isometry.conj().T @ rho.matrix @ isometry
    return 0.5 * (reduced + reduced.conj().T)


def random_in_code_state(rng, encoding) -> DensityOperator:
    """V sigma V^dag for a random mixed sigma as wide as the isometry: a state inside the code."""
    v = encoding.isometry
    return DensityOperator(v @ random_density(rng, v.shape[1]).matrix @ v.conj().T)


def encode_by_stacked_columns(psi: StateVector, n: int, j) -> np.ndarray:
    """The oracle noiseless-subsystem encode: the m=j column of each block, stacked."""
    columns = np.column_stack([basis[:, 0] for basis in bases_with_j(n, j)])
    return np.outer(columns @ psi.amplitudes, (columns @ psi.amplitudes).conj())


class TestNoiselessSubsystemSector:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_sector_stacks_the_blocks_with_j(self, n):
        d = decompose(n)
        j = noiseless_subsystem_plan(n).j
        assert np.array_equal(d.sector(j), np.hstack(bases_with_j(n, j)))

    def test_sector_rejects_absent_j(self):
        with pytest.raises(KeyError):
            decompose(4).sector(HalfInteger.of(0.5))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_decode_matches_stacked_sector(self, rng, n):
        enc = noiseless_subsystem_plan(n)
        for _ in range(3):
            rho = random_in_code_state(rng, enc)
            decoded = decode_logical(rho, enc).matrix
            assert np.abs(decoded - decode_with_stacked_sector(rho, enc)).max() < 1e-15

    @pytest.mark.parametrize("n", range(3, 9))
    def test_isometry_is_the_sector(self, n):
        enc = noiseless_subsystem_plan(n)
        assert np.array_equal(enc.isometry, decompose(n).sector(enc.j))
        assert enc.isometry.dtype == np.float64  # stored real, as the sector is
        assert enc.carrier_dim == enc.j.twice + 1
        assert enc.logical_dim == most_repeated_irrep(n)[1]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_real_isometry_gives_the_bits_of_the_complex_one(self, rng, n):
        # reports keep the bits they had while every isometry was stored complex
        enc = noiseless_subsystem_plan(n)
        as_complex = LogicalEncoding(isometry=enc.isometry.astype(complex), j=enc.j)
        for _ in range(3):
            psi = random_state_vector(rng, enc.logical_dim)
            encoded = encode_logical(psi, enc)
            columns = as_complex.isometry[:, ::enc.carrier_dim]  # the product on complex columns
            assert np.array_equal(encoded.matrix,
                                  StateVector(columns @ psi.amplitudes).to_density().matrix)
            assert np.array_equal(decode_logical(encoded, enc).matrix,
                                  decode_logical(encoded, as_complex).matrix)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_encode_matches_stacked_columns(self, rng, n):
        enc = noiseless_subsystem_plan(n)
        for _ in range(3):
            psi = random_state_vector(rng, enc.logical_dim)
            expected = encode_by_stacked_columns(psi, n, enc.j)
            assert np.abs(encode_logical(psi, enc).matrix - expected).max() < 1e-15


class TestSingleDecodePath:
    """``decode_logical``'s carrier trace against plain compression, for the subspace codes.

    The noiseless subsystem is checked against its stacked-sector oracle above.
    """

    @pytest.mark.parametrize("code", ["dfs", 2, 3, 4, 5, 6])  # dephasing codes by n
    def test_subspace_codes_match_compression(self, rng, code):
        enc = dfs_encoding_4qubit() if code == "dfs" else dephasing_sector_encoding(code)
        assert enc.carrier_dim == 1
        for _ in range(3):
            rho = random_in_code_state(rng, enc)
            expected = decode_by_compression(rho, enc.isometry)
            assert np.abs(decode_logical(rho, enc).matrix - expected).max() < 1e-15


class TestDephasingSectorEncoding:
    def test_largest_n_fills_its_columns_directly(self):
        n = MAX_QUBITS
        tracemalloc.start()
        try:
            enc = dephasing_sector_encoding(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = weight_indices(2 ** n)[n // 2]
        assert enc.isometry.shape == (2 ** n, len(rows))
        assert np.count_nonzero(enc.isometry) == len(rows)
        assert np.all(enc.isometry[rows, np.arange(len(rows))] == 1.0)
        assert enc.isometry.dtype == np.float64
        # the stored real isometry is 29 MB, and the build and the stored copy peak at
        # 58 MB; stored complex it peaked at 87 MB, and selecting the columns of
        # np.eye(4096) at 157 MB
        assert peak < 64 * 2 ** 20, peak / 2 ** 20


class TestLogicalEncodingShape:
    def test_rejects_column_count_off_the_carrier(self):
        sector = decompose(3).sector(HalfInteger.of(0.5))  # 2 blocks of width 2
        with pytest.raises(ValueError):
            LogicalEncoding(isometry=sector[:, :3], j=HalfInteger.of(0.5))

    def test_rejects_row_count_off_two_to_the_n(self):
        with pytest.raises(ValueError, match="not a qubit count"):
            LogicalEncoding(isometry=np.eye(6)[:, :2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_columns(self, bad):
        with pytest.raises(ValueError, match="not orthonormal"):
            LogicalEncoding(isometry=np.array([[bad], [0.0]]))


class TestNoiselessSubsystemPlan:
    def test_three_qubits(self):
        enc = noiseless_subsystem_plan(3)
        assert enc.j == HalfInteger.of(0.5)
        assert enc.logical_dim == 2

    def test_four_qubits(self):
        enc = noiseless_subsystem_plan(4)
        assert enc.j == HalfInteger.of(1)
        assert enc.logical_dim == 3  # multiplicity table {0: 2, 1: 3, 2: 1}

    def test_two_qubits_tie_breaks_to_smaller_j(self):
        enc = noiseless_subsystem_plan(2)
        assert enc.j == HalfInteger.of(0)
        assert enc.logical_dim == 1

    def test_most_repeated_irrep_table(self):
        assert most_repeated_irrep(4) == (HalfInteger.of(1), 3)
        assert most_repeated_irrep(6) == (HalfInteger.of(1), 9)


class TestRates:
    def test_two_qubit_classical_rate(self):
        assert rate_table(2)[1].classical_rate == 0.5

    def test_four_qubit_classical_rate(self):
        assert abs(rate_table(4)[3].classical_rate - np.log2(6) / 4) < 1e-15

    def test_twenty_qubit_rate_and_gap_trend(self):
        rows = rate_table(20)
        assert abs(rows[19].classical_rate - 0.8747) < 5e-4
        gap10 = classical_rate_asymptote(10) - rows[9].classical_rate
        gap20 = classical_rate_asymptote(20) - rows[19].classical_rate
        assert 0 < gap20 < gap10

    def test_quantum_rates(self):
        rows = rate_table(4)
        assert abs(rows[2].quantum_rate - np.log2(2) / 3) < 1e-15
        assert abs(rows[3].quantum_rate - np.log2(3) / 4) < 1e-15

    def test_dephasing_rate(self):
        assert rate_table(2)[1].dephasing_quantum_rate == 0.5

    def test_all_rates_in_unit_interval_and_monotone(self):
        rows = rate_table(64)
        for row in rows:
            for rate in (row.classical_rate, row.quantum_rate, row.dephasing_quantum_rate):
                assert 0.0 <= rate <= 1.0
        even = [r.classical_rate for r in rows if r.n % 2 == 0]
        assert all(a <= b for a, b in zip(even, even[1:]))
        assert rows[63].classical_rate >= 0.90

    def test_rates_approach_one(self):
        # sum_j (2j+1) c_j = 2^n over at most n//2 + 1 values of j: the block count is at
        # least 2^n/(n+1) and the largest multiplicity at least 2^n/((n+1)(n//2+1))
        for n in range(1, MAX_RATE_QUBITS + 1):
            classical = total_irrep_count(n) * (n + 1)
            quantum = most_repeated_irrep(n)[1] * (n + 1) * (n // 2 + 1)
            assert classical >= 2 ** n and quantum >= 2 ** n, n
            assert (classical == 2 ** n) == (quantum == 2 ** n) == (n == 1), n
        for row in rate_table(MAX_RATE_QUBITS):
            n = row.n
            assert row.classical_rate >= 1 - log2(n + 1) / n, n
            assert row.quantum_rate >= 1 - log2((n + 1) * (n // 2 + 1)) / n, n

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rate_table(0)
        with pytest.raises(ValueError):
            rate_table(65)


class TestLogicalBellChsh:
    def test_direct_operator_oracle_at_identity(self):
        # build the 256-dim CHSH expectation from scratch
        zero, one = dfs_basis_4qubit()
        v = np.column_stack([zero.amplitudes, one.amplitudes])
        z = v @ np.diag([1.0, -1.0]) @ v.conj().T
        x = v @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ v.conj().T
        pair = (np.kron(zero.amplitudes, zero.amplitudes)
                + np.kron(one.amplitudes, one.amplitudes)) / SQRT2
        b0, b1 = (z + x) / SQRT2, (z - x) / SQRT2
        chsh_op = (np.kron(z, b0) + np.kron(z, b1) + np.kron(x, b0) - np.kron(x, b1))
        value = np.vdot(pair, chsh_op @ pair).real
        assert abs(value - 2 * SQRT2) < 1e-9

    def test_every_trial_hits_tsirelson(self):
        values = logical_bell_chsh_trials(RandomSource(7), 20)
        assert np.abs(values - 2 * SQRT2).max() < 1e-9

    def test_mean_violates_classical_bound(self):
        value = float(logical_bell_chsh_trials(RandomSource(7), 10).mean())
        assert value > 2.0
        assert abs(value - 2 * SQRT2) < 1e-9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            logical_bell_chsh_trials(RandomSource(7), 0)


class TestLogicalBellChshOracle:
    """The chunked batch against the per-trial loop: same values, same stream position."""

    @staticmethod
    def assert_matches_per_trial(seed: int, trials: int):
        batched_rng, oracle_rng = RandomSource(seed), RandomSource(seed)
        assert np.array_equal(logical_bell_chsh_trials(batched_rng, trials),
                              per_trial_chsh(oracle_rng, trials))
        assert np.array_equal(batched_rng.normal(4), oracle_rng.normal(4))

    @pytest.mark.parametrize("trials", [1, 2, 10, _BELL_CHUNK_TRIALS + 1])
    def test_bit_for_bit_at_the_shipped_chunk(self, trials):
        for seed in (0, 7, 41):
            self.assert_matches_per_trial(seed, trials)

    @pytest.mark.parametrize("trials", [1, 3, 4, 5, 8, 9, 14])
    def test_bit_for_bit_across_chunk_boundaries(self, monkeypatch, trials):
        monkeypatch.setattr(protocols, "_BELL_CHUNK_TRIALS", 4)
        for seed in (0, 7, 41):
            self.assert_matches_per_trial(seed, trials)

    def test_peak_memory_does_not_grow_with_trials(self):
        trials = 10 * _BELL_CHUNK_TRIALS
        logical_bell_chsh_trials(RandomSource(3), 1)  # cached operators, as in any later call
        tracemalloc.start()
        try:
            values = logical_bell_chsh_trials(RandomSource(3), trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(values - 2 * SQRT2).max() < 1e-9
        # one 64-trial chunk peaks near 2.5 MB; all 640 trials at once would need about 24 MB
        assert peak < 5 * 2 ** 20
