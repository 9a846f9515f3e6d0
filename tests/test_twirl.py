import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from framefree import core
from framefree.core import (_BLOCK_MIN_DIM, MAX_QUBITS, DensityOperator, GroupElement,
                            RandomSource, StateVector, _by_weight, _in_stacks,
                            collective_rotation, haar_random_su2, random_density,
                            random_state_vector, trace_distance, weight_indices)
from framefree.irreps import decompose
from framefree.twirl import TwirlChannel, _real_congruence, twirl_su2_monte_carlo
from dense_coupling_oracle import dense_coupling_matrix
from per_weight_twirl_oracle import conjugated, per_weight_apply, weight_maps
from racah_oracle import racah_blocks

SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])
SYMMETRIC_MIXED = DensityOperator((np.eye(4) - np.outer(SINGLET.amplitudes,
                                                        SINGLET.amplitudes.conj())) / 3.0)


def twirl_whole_matrix(rho: DensityOperator, n: int) -> np.ndarray:
    """The oracle twirl: conjugate into the coupled basis, mix each carrier, conjugate back."""
    d = decompose(n)
    w = dense_coupling_matrix(n)
    coupled = w.T @ rho.matrix @ w
    out = np.zeros_like(coupled)
    offset = 0
    for j, count in d.multiplicity_table.items():
        width = j.twice + 1
        size = count * width
        sector = coupled[offset:offset + size, offset:offset + size]
        mult = np.trace(sector.reshape(count, width, count, width), axis1=1, axis2=3)
        out[offset:offset + size, offset:offset + size] = np.kron(mult, np.eye(width)) / width
        offset += size
    result = w @ out @ w.T
    return 0.5 * (result + result.conj().T)


def random_symmetric_pure(rng) -> DensityOperator:
    plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    basis = np.column_stack([np.eye(4)[:, 0], plus, np.eye(4)[:, 3]])
    return StateVector.normalized(basis @ (rng.normal(3) + 1j * rng.normal(3))).to_density()


class TestExactTwirl:
    def test_single_qubit_fully_depolarizes(self, rng):
        channel = TwirlChannel.full_su2(1)
        for _ in range(100):
            rho = random_density(rng, 2)
            out = channel.apply(rho)
            assert trace_distance(out, DensityOperator.maximally_mixed(2)) < 1e-9

    def test_singlet_is_fixed(self):
        channel = TwirlChannel.full_su2(2)
        rho = SINGLET.to_density()
        assert trace_distance(channel.apply(rho), rho) < 1e-9

    def test_symmetric_states_mix_over_symmetric_subspace(self, rng):
        channel = TwirlChannel.full_su2(2)
        for _ in range(50):
            out = channel.apply(random_symmetric_pure(rng))
            assert trace_distance(out, SYMMETRIC_MIXED) < 1e-9

    def test_product_state_pair_trace_distance(self):
        # expected outputs built by hand from the block structure:
        # |00><00| -> Pi_sym / 3 and |01><01| -> singlet/2 + Pi_sym/6
        channel = TwirlChannel.full_su2(2)
        singlet_proj = np.outer(SINGLET.amplitudes, SINGLET.amplitudes.conj())
        out00 = channel.apply(StateVector.from_bits("00").to_density())
        out01 = channel.apply(StateVector.from_bits("01").to_density())
        assert np.abs(out00.matrix - (np.eye(4) - singlet_proj) / 3.0).max() < 1e-12
        assert np.abs(out01.matrix - (singlet_proj / 2.0
                                      + (np.eye(4) - singlet_proj) / 6.0)).max() < 1e-12
        # oracle: eigenvalues of the explicit 4x4 difference
        diff_eigs = np.linalg.eigvalsh(out00.matrix - out01.matrix)
        assert abs(0.5 * np.abs(diff_eigs).sum() - 0.5) < 1e-12
        assert abs(trace_distance(out00, out01) - 0.5) < 1e-9

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            TwirlChannel.full_su2(2).apply(random_density(rng, 8))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sector_views_match_whole_matrix_oracle(self, rng, n):
        channel = TwirlChannel.full_su2(n)
        for _ in range(1 if n >= 9 else 3):
            rho = random_density(rng, 2 ** n)
            assert np.abs(channel.apply(rho).matrix - twirl_whole_matrix(rho, n)).max() < 1e-15


class TestMonteCarloTwirl:
    def test_identity_conjugation_is_identity(self, rng):
        rho = random_density(rng, 4)
        u = collective_rotation(GroupElement.identity(), 2)
        assert np.abs(rho.evolve(u).matrix - rho.matrix).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_sample_matches_direct_conjugation(self, rng, n):
        from framefree.core import haar_random_su2_batch
        rho = random_density(rng, 2 ** n)
        mc = twirl_su2_monte_carlo(rho, 1, RandomSource(77))
        g = GroupElement(haar_random_su2_batch(RandomSource(77), 1)[0])
        direct = rho.evolve(collective_rotation(g, n))
        assert trace_distance(mc, direct) < 1e-12

    def test_three_qubit_average_approaches_exact_channel(self, rng):
        channel = TwirlChannel.full_su2(3)
        rho = random_density(rng, 8)
        mc = twirl_su2_monte_carlo(rho, 50_000, rng)
        assert trace_distance(mc, channel.apply(rho)) < 0.05

    def test_singlet_invariant_for_any_sample_count(self, rng):
        rho = SINGLET.to_density()
        out = twirl_su2_monte_carlo(rho, 64, rng)
        assert trace_distance(out, rho) < 1e-12

    def test_converges_to_exact_channel(self, rng):
        channel = TwirlChannel.full_su2(2)
        rho = StateVector.from_bits("00").to_density()
        exact = channel.apply(rho)
        mc = twirl_su2_monte_carlo(rho, 100_000, rng)
        assert trace_distance(mc, exact) < 0.02

    def test_rejects_zero_samples(self, rng):
        with pytest.raises(ValueError):
            twirl_su2_monte_carlo(random_density(rng, 2), 0, rng)

    def test_rejects_a_draw_that_is_not_su2(self, rng, monkeypatch):
        draw = core.haar_random_su2_batch
        monkeypatch.setattr(core, "haar_random_su2_batch", lambda *args: 1.01 * draw(*args))
        with pytest.raises(ValueError, match="not unitary"):
            twirl_su2_monte_carlo(random_density(rng, 4), 10, RandomSource(3))

    def test_chunks_add_up_to_the_one_chunk_average(self, rng, monkeypatch):
        rho = random_density(rng, 4)
        whole_rng, split_rng = RandomSource(9), RandomSource(9)
        whole = twirl_su2_monte_carlo(rho, 100, whole_rng)
        sizes, draw = [], core.haar_random_su2_batch

        def recording_draw(source, size):
            sizes.append(size)
            return draw(source, size)

        monkeypatch.setattr(core, "haar_random_su2_batch", recording_draw)
        monkeypatch.setattr(core, "_TENSOR_CHUNK_ENTRIES", 7 * 16)  # 7 samples of a 4 x 4 state
        split = twirl_su2_monte_carlo(rho, 100, split_rng)
        assert sizes == [7] * 14 + [2]
        assert np.abs(split.matrix - whole.matrix).max() < 1e-15
        assert np.array_equal(split_rng.normal(4), whole_rng.normal(4))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rejects_non_qubit_dimensions(self, dim):
        with pytest.raises(ValueError, match="not a qubit count"):
            twirl_su2_monte_carlo(DensityOperator(np.eye(dim) / dim), 4, RandomSource(0))

    # a batch is at most 2^16 entries, 1 MiB: 256 samples at n = 4, one at n = 8.  Batches of
    # 1M entries peaked at 32.8 MiB (n = 4) and 77.0 MiB (n = 8); these peak near 4.0 and 7.1
    @pytest.mark.parametrize("n, samples, mib", [(4, 16384, 8), (8, 64, 12)])
    def test_peak_memory_does_not_grow_with_samples(self, n, samples, mib):
        rho = random_density(RandomSource(n), 2 ** n)
        tracemalloc.start()
        try:
            twirl_su2_monte_carlo(rho, samples, RandomSource(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20


class TestChannelArguments:
    @pytest.mark.parametrize("n", [-1, 0, MAX_QUBITS + 1])
    def test_rejects_a_qubit_count_out_of_range(self, n):
        with pytest.raises(ValueError, match="qubit count"):
            TwirlChannel(n=n)
        with pytest.raises(ValueError, match="qubit count"):
            TwirlChannel.u1_dephasing(n)


class TestDephasing:
    def test_single_qubit_plus_state(self):
        channel = TwirlChannel.u1_dephasing(1)
        plus = StateVector.normalized([1.0, 1.0]).to_density()
        out = channel.apply(plus)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_m_zero_sector_untouched(self, rng):
        channel = TwirlChannel.u1_dephasing(2)
        basis = np.eye(4)[:, [1, 2]]  # span{|01>, |10>}
        for _ in range(20):
            rho = StateVector.normalized(
                basis @ (rng.normal(2) + 1j * rng.normal(2))).to_density()
            assert trace_distance(channel.apply(rho), rho) < 1e-12

    def test_phi_plus_loses_cross_sector_coherence(self):
        channel = TwirlChannel.u1_dephasing(2)
        phi_plus = StateVector.normalized([1.0, 0.0, 0.0, 1.0]).to_density()
        out = channel.apply(phi_plus)
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            TwirlChannel.u1_dephasing(2).apply(random_density(rng, 2))


class TestFixedPointCheck:
    def test_singlet_fixed_under_full_twirl(self):
        rho = SINGLET.to_density()
        assert trace_distance(TwirlChannel.full_su2(2).apply(rho), rho) <= 1e-9

    def test_product_state_not_fixed(self):
        rho = StateVector.from_bits("00").to_density()
        assert trace_distance(TwirlChannel.full_su2(2).apply(rho), rho) > 1e-9

    def test_maximally_mixed_always_fixed(self):
        for n in (1, 2, 3):
            mixed = DensityOperator.maximally_mixed(2 ** n)
            assert trace_distance(TwirlChannel.full_su2(n).apply(mixed), mixed) <= 1e-9
            assert trace_distance(TwirlChannel.u1_dephasing(n).apply(mixed), mixed) <= 1e-9


class TestChannelProperties:
    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_trace_hermiticity_idempotence_positivity(self, rng, kind, n):
        channel = (TwirlChannel.full_su2(n) if kind == "full_su2"
                   else TwirlChannel.u1_dephasing(n))
        for _ in range(50):
            rho = random_density(rng, 2 ** n)
            once = channel.apply(rho)  # DensityOperator construction checks
            assert abs(np.trace(once.matrix).real - 1.0) < 1e-10
            assert np.abs(once.matrix - once.matrix.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(once.matrix).min() > -1e-10
            assert trace_distance(channel.apply(once), once) < 1e-9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_su2_output_is_exactly_hermitian(self, rng, n):
        channel = TwirlChannel.full_su2(n)
        for _ in range(3):
            m = channel.apply(random_density(rng, 2 ** n)).matrix
            assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("n", [2, 3])
    def test_covariance_collapse(self, rng, n):
        channel = TwirlChannel.full_su2(n)
        rho = random_density(rng, 2 ** n)
        twirled = channel.apply(rho)
        for _ in range(20):
            u = collective_rotation(haar_random_su2(rng), n)
            assert trace_distance(channel.apply(rho.evolve(u)), twirled) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_output_commutes_with_collective_rotations(self, rng, n):
        channel = TwirlChannel.full_su2(n)
        out = channel.apply(random_density(rng, 2 ** n)).matrix
        for _ in range(20):
            u = collective_rotation(haar_random_su2(rng), n)
            assert np.abs(out @ u - u @ out).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_populations_preserved(self, rng, n):
        channel = TwirlChannel.full_su2(n)
        rho = random_density(rng, 2 ** n)
        out = channel.apply(rho)
        for j, r, _, _ in racah_blocks(n):
            v = decompose(n).block(j, r)
            p = v @ v.T
            before = np.trace(p @ rho.matrix @ p).real
            after = np.trace(p @ out.matrix @ p).real
            assert abs(before - after) < 1e-10

    def test_monte_carlo_chunking_is_deterministic(self, rng):
        rho = random_density(rng, 2)
        a = twirl_su2_monte_carlo(rho, 5000, RandomSource(3))
        b = twirl_su2_monte_carlo(rho, 5000, RandomSource(3))
        assert np.array_equal(a.matrix, b.matrix)


def channel_of(kind: str, n: int) -> TwirlChannel:
    return TwirlChannel.full_su2(n) if kind == "full_su2" else TwirlChannel.u1_dephasing(n)


def dense_distance(a: DensityOperator, b: DensityOperator) -> float:
    """The dense oracle: half the absolute eigenvalue sum of a - b, unclipped."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


class TestBlockForm:
    """Twirl outputs are block diagonal in Hamming weight; each block fact is checked densely."""

    BOUND = 1e-14

    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    def test_block_layout(self, kind):
        n = 6
        out = channel_of(kind, n).apply(DensityOperator.maximally_mixed(2 ** n))
        assert [len(b) for b in out.blocks] == [comb(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_spectrum_matches_dense(self, rng, kind, n):
        once = channel_of(kind, n).apply(random_density(rng, 2 ** n))
        if 2 ** n < _BLOCK_MIN_DIM:
            assert once.blocks is None
            return
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in once.blocks]))
        assert np.abs(spectrum - np.linalg.eigvalsh(once.matrix)).max() <= self.BOUND

    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_output_equals_the_matrix_path_bit_for_bit(self, rng, kind, n):
        once = channel_of(kind, n).apply(random_density(rng, 2 ** n))
        dense = DensityOperator(once.matrix)
        assert once.matrix.tobytes() == dense.matrix.tobytes()
        assert dense.blocks is None  # a matrix passed in is checked dense
        if 2 ** n < _BLOCK_MIN_DIM:
            assert once.blocks is None
        else:
            gathered = [once.matrix[rows[:, None], rows] for rows in weight_indices(2 ** n)]
            assert [b.tobytes() for b in once.blocks] == [b.tobytes() for b in gathered]

    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_distance_matches_dense(self, rng, kind, n):
        channel = channel_of(kind, n)
        a = channel.apply(random_density(rng, 2 ** n))
        b = channel.apply(random_density(rng, 2 ** n))
        dense = dense_distance(a, b)
        if kind == "full_su2" and n == 1:
            assert dense <= self.BOUND  # one qubit twirls to I/2 from any state
        else:
            assert dense > 1e-3  # distinct outputs, so a wrong block distance cannot hide
        assert abs(trace_distance(a, b) - dense) <= self.BOUND

    @pytest.mark.parametrize("n", range(1, 11))
    def test_distance_across_channels_reads_the_blocks(self, rng, n):
        rho, sigma = random_density(rng, 2 ** n), random_density(rng, 2 ** n)
        su2 = TwirlChannel.full_su2(n).apply(rho)
        pairs = ((su2, TwirlChannel.u1_dephasing(n).apply(sigma)),
                 (su2, TwirlChannel.full_su2(n).apply(sigma)))  # a second, separate channel
        for a, b in pairs:
            assert (a.blocks is None) == (b.blocks is None) == (2 ** n < _BLOCK_MIN_DIM)
            assert abs(trace_distance(a, b) - dense_distance(a, b)) <= self.BOUND

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weight_maps_are_orthogonal_and_rebuild_the_coupling_matrix(self, n):
        widths, stacks = TwirlChannel.full_su2(n)._weight_maps
        # every later output's mask and carriers: read-only, like each stack of W_k
        assert np.array_equal(widths, decompose(n).twice_j + 1) and not widths.flags.writeable
        assert not any(s.flags.writeable for s in stacks)
        # one real copy of each W_k, W_k and W_{n-k} in one stack: 8 sum_k C(n, k)^2 bytes
        assert [s.shape for s in stacks] == [(len(pair), comb(n, k), comb(n, k))
                                             for k, pair in enumerate(_in_stacks(range(n + 1)))]
        assert all(s.dtype == np.float64 for s in stacks)
        assert sum(s.nbytes for s in stacks) == 8 * sum(comb(n, k) ** 2 for k in range(n + 1))
        dense = dense_coupling_matrix(n)
        placed = np.zeros_like(dense)
        for rows, w in zip(weight_indices(2 ** n), _by_weight(stacks)):
            assert np.abs(w.T @ w - np.eye(len(w))).max() <= self.BOUND
            # the columns |j, m, r> supported on these rows, in canonical order
            cols = np.flatnonzero(np.any(dense[rows] != 0, axis=0))
            placed[rows[:, None], cols] = w
        assert placed.tobytes() == dense.tobytes()


def assert_same_state(a: DensityOperator, b: DensityOperator) -> None:
    """Matrix, blocks and sectors equal bit for bit, each kept or not alike."""
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert (a.blocks is None) == (b.blocks is None) and (a.sectors is None) == (b.sectors is None)
    if a.blocks is not None:
        assert [x.tobytes() for x in a.blocks] == [x.tobytes() for x in b.blocks]
    if a.sectors is not None:
        assert [(c, q.tobytes()) for c, q in a.sectors] == [(c, q.tobytes()) for c, q in b.sectors]


class TestStackedTwirl:
    """Each stage runs once per stack of equal-shape weight blocks, weights k and n - k
    together; the output has the bits of the per-weight twirl in tests/."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_stacks_pair_weight_k_with_n_minus_k(self, n):
        weights = list(range(n + 1))
        assert _in_stacks(weights) == [[k, n - k][:1 + (2 * k < n)] for k in range(n // 2 + 1)]
        assert _by_weight(_in_stacks(weights)) == weights
        for k, positions in enumerate(core._weight_stacks(2 ** n)):
            assert not positions.flags.writeable
            # the flat positions of each block: row index * 2^n + column index
            rows, cols = np.divmod(positions, 2 ** n)
            assert [list(r[:, 0]) for r in rows] == [list(c[0]) for c in cols] == [
                list(weight_indices(2 ** n)[w]) for w in _in_stacks(weights)[k]]
            assert np.array_equal(rows, cols.swapaxes(1, 2))

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_flat_positions_gather_and_scatter_the_weight_blocks(self, n):
        # every entry distinct and the matrix not symmetric, so a wrong or transposed position
        # gathers a wrong entry; 2^24 int32 entries (64 MiB) at n = 12
        dim = 2 ** n
        m = np.arange(dim * dim, dtype=np.int32).reshape(dim, dim)
        placed = np.zeros_like(m)
        for positions, rows in zip(core._weight_stacks(dim),
                                   map(np.stack, _in_stacks(weight_indices(dim))), strict=True):
            gathered = np.take(m, positions)
            assert np.array_equal(gathered, m[rows[:, :, None], rows[:, None, :]])
            placed.reshape(-1)[positions] = gathered
        weights = np.bitwise_count(np.arange(dim))
        assert np.array_equal(placed, np.where(weights[:, None] == weights, m, 0))

    @pytest.mark.parametrize("kind", ["full_su2", "u1_dephasing"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_the_per_weight_twirl_bit_for_bit(self, rng, kind, n):
        channel = channel_of(kind, n)
        for _ in range(1 if n >= 9 else 3):
            rho = random_density(rng, 2 ** n)
            once = channel.apply(rho)
            assert_same_state(once, per_weight_apply(channel, rho))
            assert_same_state(channel.apply(once), per_weight_apply(channel, once))

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_real_products_are_within_the_rounding_bound_of_complex_ones(self, n):
        # against complex products with each W_k cast to complex: both routes sum the same
        # a = C(n, k) terms per product in their own orders, so each is within 2 a eps |r||c||r|^T
        # of the exact r c r^T entrywise, and the two are within 4 a eps |r||c||r|^T of each
        # other.  The largest difference seen was 4.3e-18 (n = 10), and 0 up to n = 6.
        rng = RandomSource(n)
        widths, maps = TwirlChannel.full_su2(n)._weight_maps
        dim = 2 ** n
        g = rng.normal((len(widths),) * 2) + 1j * rng.normal((len(widths),) * 2)
        mult = (g + g.conj().T) / (2 * dim)
        for w in maps:
            s, a = w.shape[:2]
            g = rng.normal((s, a, a)) + 1j * rng.normal((s, a, a))
            block = g @ g.conj().mT / (dim * a)
            z = w.astype(complex)
            for r, c, in_complex in ((w.mT, block, z.mT @ block @ z),
                                     (w, mult[:a, :a], z @ mult[:a, :a] @ z.mT)):
                bound = 4 * a * np.finfo(float).eps * (abs(r) @ abs(c) @ abs(r).mT)
                assert (abs(_real_congruence(r, c) - in_complex) <= bound).all()

    def test_equals_the_per_weight_twirl_at_twelve_qubits(self):
        # one 4096 x 4096 output at a time: each is 256 MiB, so compare digests of the bits
        mixed = DensityOperator.maximally_mixed(2 ** 12)
        digests = []
        for twirl in (TwirlChannel.full_su2(12).apply,
                      lambda rho: per_weight_apply(TwirlChannel.full_su2(12), rho)):
            out = twirl(mixed)
            digests.append((hashlib.sha256(out.matrix).hexdigest(),
                            [hashlib.sha256(b).hexdigest() for b in out.blocks],
                            [(c, hashlib.sha256(q.copy()).hexdigest()) for c, q in out.sectors]))
            del out
        assert digests[0] == digests[1]


def eps_bound(dim: int) -> float:
    """The written tolerance for two routes to one distance or one sector: dim * eps."""
    return dim * np.finfo(float).eps


def blocks_only(rho: DensityOperator) -> DensityOperator:
    """The same state rebuilt from its weight blocks alone, so it keeps no sectors."""
    return DensityOperator._from_weight_blocks(list(rho.blocks))


def unskipped_block_distance(a: DensityOperator, b: DensityOperator) -> float:
    """The weight-block distance with ``eigvalsh`` run on every block pair, equal or not."""
    total = sum(np.abs(np.linalg.eigvalsh(x - y)).sum()
                for x, y in zip(a.blocks, b.blocks, strict=True))
    return 0.5 * float(total)


def cut_then_symmetrised(channel: TwirlChannel, rho: DensityOperator) -> list:
    """The oracle sectors: each Q_j cut from the masked multiplicity matrix at the counts of
    ``multiplicity_table``, then made Hermitian on its own, as (2j+1, Q_j) pairs."""
    widths, maps = weight_maps(channel.n)
    mult = np.zeros((len(widths), len(widths)), dtype=complex)
    for w, rows in zip(maps, weight_indices(channel.dim)):
        mult[:len(w), :len(w)] += conjugated(w.T, rho.matrix[rows[:, None], rows])
    kept = np.where(widths[:, None] == widths, mult / widths, 0.0)
    sectors, start = [], 0
    for j, count in decompose(channel.n).multiplicity_table.items():
        q = kept[start:start + count, start:start + count]
        sectors.append((j.twice + 1, 0.5 * (q + q.conj().T)))
        start += count
    return sectors


class TestSectors:
    """Full SU(2) outputs from ``_BLOCK_MIN_DIM`` keep their j sectors Q_j = M_j/(2j+1), and
    ``trace_distance`` between two of them reads only those; the weight-block path and the
    dense ``eigvalsh`` are its oracles, to ``eps_bound(dim)``."""

    SEEDS = (1, 2, 3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sectors_are_the_multiplicity_blocks_of_the_coupled_output(self, rng, n):
        out = TwirlChannel.full_su2(n).apply(random_density(rng, 2 ** n))
        if 2 ** n < _BLOCK_MIN_DIM:
            assert out.sectors is None
            return
        table = decompose(n).multiplicity_table
        assert [(carrier, len(q)) for carrier, q in out.sectors] == [
            (j.twice + 1, count) for j, count in table.items()]
        w = dense_coupling_matrix(n)
        coupled = w.T @ out.matrix @ w
        offset = 0
        for carrier, q in out.sectors:
            size = len(q) * carrier
            sector = coupled[offset:offset + size, offset:offset + size]
            # W^T out W holds Q_j (x) 1_{2j+1} on the sector: Q_j is its carrier-averaged trace
            oracle = np.trace(sector.reshape(len(q), carrier, len(q), carrier),
                              axis1=1, axis2=3) / carrier
            assert np.abs(q - oracle).max() <= eps_bound(2 ** n)
            assert np.array_equal(q, q.conj().T)
            with pytest.raises(ValueError):
                q[0, 0] = 0.0
            offset += size

    @pytest.mark.parametrize("n", range(6, 11))
    def test_sectors_are_the_bits_of_cutting_then_symmetrising(self, rng, n):
        # 0.5 (Q + Q^dag) on a diagonal block is the same arithmetic as on that block alone
        channel = TwirlChannel.full_su2(n)
        rho = random_density(rng, 2 ** n)
        expected = cut_then_symmetrised(channel, rho)
        out = channel.apply(rho)
        assert [carrier for carrier, _ in out.sectors] == [carrier for carrier, _ in expected]
        assert [q.tobytes() for _, q in out.sectors] == [q.tobytes() for _, q in expected]

    def test_u1_outputs_and_plain_operators_keep_no_sectors(self, rng):
        rho = random_density(rng, 64)
        assert rho.sectors is None
        assert TwirlChannel.u1_dephasing(6).apply(rho).sectors is None
        assert DensityOperator.maximally_mixed(64).sectors is None
        assert blocks_only(TwirlChannel.full_su2(6).apply(rho)).sectors is None

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sector_distance_matches_the_block_path_and_dense(self, n, seed):
        rng = RandomSource(seed)
        channel = TwirlChannel.full_su2(n)
        once = channel.apply(random_density(rng, 2 ** n))
        other = channel.apply(random_density(rng, 2 ** n))
        for a, b in ((channel.apply(once), once), (once, other)):
            assert a.sectors is not None and b.sectors is not None
            d = trace_distance(a, b)
            assert abs(d - trace_distance(blocks_only(a), blocks_only(b))) <= eps_bound(2 ** n)
            assert abs(d - dense_distance(a, b)) <= eps_bound(2 ** n)
        assert dense_distance(once, other) > 1e-3  # so a wrong sector weight cannot hide

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_distance_decomposes_only_the_sectors(self, rng, n, monkeypatch):
        channel = TwirlChannel.full_su2(n)
        a, b = (channel.apply(random_density(rng, 2 ** n)) for _ in range(2))
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(len(m)) or eigvalsh(m))
        trace_distance(a, b)
        assert sizes == list(decompose(n).multiplicity_table.values())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equal_block_skip_gives_the_bits_of_eigvalsh_on_every_block(self, n, seed):
        rng = RandomSource(seed)
        u1 = TwirlChannel.u1_dephasing(n)
        once = u1.apply(random_density(rng, 2 ** n))
        twice = u1.apply(once)
        assert all(np.array_equal(x, y) for x, y in zip(twice.blocks, once.blocks))
        # every odd-weight block conjugated: still a state, with some blocks equal and some not
        half = DensityOperator._from_weight_blocks(
            [b.conj() if k % 2 else b for k, b in enumerate(once.blocks)])
        equal = [np.array_equal(x, y) for x, y in zip(half.blocks, once.blocks)]
        assert any(equal) and not all(equal)
        mixed = DensityOperator.maximally_mixed(2 ** n)
        pairs = ((twice, once), (half, once), (u1.apply(mixed), mixed),
                 (TwirlChannel.full_su2(n).apply(mixed), mixed))
        for a, b in pairs:
            d = trace_distance(a, b)
            assert np.float64(d).tobytes() == np.float64(unskipped_block_distance(a, b)).tobytes()
