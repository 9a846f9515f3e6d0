from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framefree import irreps
from framefree.core import MAX_QUBITS, collective_rotation, haar_random_su2
from framefree.irreps import HalfInteger, decompose, multiplicity, total_irrep_count
from dense_coupling_oracle import couple_qubit, dense_coupling_matrix, scalar_factors
from racah_oracle import (clebsch_gordan, enumerate_paths, racah_blocks, racah_couple_qubit,
                          racah_coupled_bases)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent oracle: build coupled bases with ladder operators only
# ---------------------------------------------------------------------------

def _jz(tj: int) -> np.ndarray:
    return np.diag([m / 2.0 for m in range(tj, -tj - 1, -2)])


def _lowering(tj: int) -> np.ndarray:
    """J- in the |j, m> basis with columns ordered m = j .. -j."""
    j = tj / 2.0
    dim = tj + 1
    op = np.zeros((dim, dim))
    for row, tm in enumerate(range(tj, -tj - 1, -2)):
        m = tm / 2.0
        if row + 1 < dim:
            op[row + 1, row] = np.sqrt(j * (j + 1) - m * (m - 1))
    return op


def ladder_coupled_states(tj1: int, tj2: int) -> dict[tuple[int, int], np.ndarray]:
    """Map (tj, tm) -> coupled vector in the product basis |m1> x |m2>.

    Uses only highest-weight states, lowering operators, and the
    Condon-Shortley sign rule (the |j1 j1>|j2 j-j1> component of each new
    highest-weight state is positive).  Independent of the Racah sum.
    """
    d1, d2 = tj1 + 1, tj2 + 1
    lower = np.kron(_lowering(tj1), np.eye(d2)) + np.kron(np.eye(d1), _lowering(tj2))
    jz = np.kron(_jz(tj1), np.eye(d2)) + np.kron(np.eye(d1), _jz(tj2))
    states: dict[tuple[int, int], np.ndarray] = {}
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2):
        # the m = j subspace, minus the already-built states of larger j
        mask = np.abs(np.diag(jz) - tj / 2.0) < 1e-12
        basis = np.eye(d1 * d2)[:, mask]
        for (otj, otm), vec in states.items():
            if otm == tj:
                basis = basis - np.outer(vec, vec.conj() @ basis)
        q, _ = np.linalg.qr(basis)
        top = q[:, np.abs(np.linalg.norm(q, axis=0) - 1.0) < 1e-9][:, :1].ravel()
        # Condon-Shortley: <j1 j1; j2 (j - j1) | j j> > 0
        anchor = ((tj1 - tj1) // 2) * d2 + (tj2 - (tj - tj1)) // 2
        if top[anchor].real < 0:
            top = -top
        states[(tj, tj)] = top
        vec = top
        for tm in range(tj - 2, -tj - 2, -2):
            vec = lower @ vec
            vec = vec / np.linalg.norm(vec)
            states[(tj, tm)] = vec
    return states


class TestCouplingBuildOracle:
    """The closed-form, column-major build against the Racah-sum build."""

    @pytest.mark.parametrize("tj", range(40))
    def test_closed_form_coefficients_match_racah_bit_for_bit(self, tj):
        for new_tj in (tj + 1, tj - 1):
            if new_tj < 0:
                continue
            out = np.zeros((2 * (tj + 1), new_tj + 1), order="F")
            couple_qubit(np.eye(tj + 1), tj, new_tj, out)
            assert np.array_equal(out, racah_couple_qubit(np.eye(tj + 1), tj, new_tj))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_coupling_matrix_equals_racah_build(self, n):
        reference = np.hstack([basis for *_, basis in racah_blocks(n)])
        assert np.array_equal(decompose(n).columns(slice(None)), reference)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_r_is_the_rth_coupling_path(self, n):
        levels = racah_coupled_bases(n)
        d = decompose(n)
        for j in d.multiplicity_table:
            for r, path in enumerate(enumerate_paths(n, j), start=1):
                assert np.array_equal(d.block(j, r), levels[path]), (n, str(j), r)


class TestLadderOperators:
    """Every block spans a spin-j irrep, so no collective rotation moves weight between blocks.

    J_z W e_c = m W e_c, and J_- W e_c = sqrt(j(j+1) - m(m-1)) W e_{c+1}, 0 at m = -j,
    for every column |j, m, r> of W.  J_+ follows as the adjoint, since W is real
    orthogonal, so each block is invariant under su(2).  J_- is built from bit flips,
    and neither the Racah sum nor the dense oracle is read.
    """

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_jz_and_lowering_act_inside_each_block(self, n):
        d = decompose(n)
        size = 2 ** n
        labels = [(j.twice, tm) for j, count in d.multiplicity_table.items()
                  for _ in range(count) for tm in range(j.twice, -j.twice - 1, -2)]
        tj, tm = np.array(labels).T
        lowering = np.sqrt((tj * (tj + 2) - tm * (tm - 2)) / 4)
        row_tm = n - 2 * np.array([i.bit_count() for i in range(size)])  # |0> carries m = +1/2
        for start in range(0, size, 256):
            stop = min(start + 256, size)
            # and one column past it: the last column of W has m = -j, so its wrap to 0 goes unread
            w = np.ascontiguousarray(d.columns(np.arange(start, stop + 1) % size))
            v = w[:, :-1]
            assert np.array_equal(row_tm[:, None] * v, tm[start:stop] * v), (n, start)
            lowered = np.zeros(v.shape)
            for q in range(n):  # sigma_- on qubit q + 1 moves |0> to |1>
                bits = v.reshape(2 ** q, 2, -1, v.shape[1])
                lowered.reshape(bits.shape)[:, 1] += bits[:, 0]
            residual = lowered - lowering[start:stop] * w[:, 1:]
            assert np.abs(residual).max() <= 1e-14, (n, start)


class TestBlockLayout:
    """W is real and column-major; every block and sector is a read-only column-major array."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_are_read_only_and_column_major(self, n):
        d = decompose(n)
        w = d.columns(slice(None))
        assert w.dtype == np.float64
        assert w.flags.f_contiguous
        arrays = [(str(j), r, d.block(j, r)) for j, r, _, _ in racah_blocks(n)]
        arrays += [(str(j), None, d.sector(j)) for j in {j for j, *_ in racah_blocks(n)}]
        for j, r, v in arrays:
            assert v.flags.f_contiguous and not v.flags.writeable, (n, j, r)


class TestSchurFactors:
    """The stored sequential Clebsch-Gordan factors against the dense level-by-level build."""

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_coupling_matrix_equals_dense_build_bit_for_bit(self, n):
        w = decompose(n).columns(slice(None))
        reference = dense_coupling_matrix(n)
        assert w.tobytes(order="F") == reference.tobytes(order="F")
        assert np.array_equal(np.signbit(w), np.signbit(reference))  # no -0.0 either side

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_factors_are_read_only_and_small(self, n):
        factors = decompose(n).factors
        assert len(factors) == n - 1
        for k, arrays in enumerate(factors, start=2):
            assert len(arrays) == 4
            for a in arrays:
                assert a.shape == (2 ** k,) and not a.flags.writeable, (n, k)

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_factors_equal_the_per_column_loop_bit_for_bit(self, n):
        factors, expected = decompose(n).factors, scalar_factors(n)
        assert len(factors) == len(expected) == n - 1
        for k, (arrays, oracle) in enumerate(zip(factors, expected), start=2):
            for name, a, b in zip(("src0", "coef0", "src1", "coef1"), arrays, oracle):
                assert a.dtype == b.dtype and a.shape == b.shape, (n, k, name)
                assert np.array_equal(a, b), (n, k, name)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (n, k, name)  # no -0.0
                assert not a.flags.writeable, (n, k, name)

    def test_a_cleared_cache_rebuilds_every_factor(self):
        # a cold build after cache_clear shares no array with the build before it
        before = decompose(12).factors
        decompose.cache_clear()
        after = decompose(12).factors
        for k, (old, new) in enumerate(zip(before, after), start=2):
            for a, b in zip(old, new):
                assert not np.shares_memory(a, b), k

    def test_one_qubit_has_no_factor_levels(self):
        d = decompose(1)
        assert d.factors == ()
        assert np.array_equal(d.columns(slice(None)), np.eye(2))
        assert d.columns(slice(None)).flags.f_contiguous
        assert np.array_equal(d.schur_transform(np.array([0.6, 0.8j])), [0.6, 0.8j])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_columns_equal_matrix_columns_bit_for_bit(self, n):
        d = decompose(n)
        w = d.columns(slice(None))
        gen = np.random.default_rng(n)
        subsets = [d.column_starts,  # the codebook's first columns
                   gen.choice(2 ** n, size=min(2 ** n, 40), replace=False),
                   gen.integers(0, 2 ** n, size=25),  # unsorted, with repeats
                   np.array([2 ** n - 1])]
        for cols in subsets:
            part = d.columns(cols)
            assert part.flags.f_contiguous, (n, cols)
            assert part.tobytes(order="F") == w[:, cols].tobytes(order="F"), (n, cols)

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_schur_transform_matches_dense_products(self, n):
        d = decompose(n)
        w = dense_coupling_matrix(n)
        gen = np.random.default_rng(100 + n)
        for _ in range(3):
            a = gen.normal(size=2 ** n) + 1j * gen.normal(size=2 ** n)
            a /= np.linalg.norm(a)
            expected = a.real @ w + 1j * (a.imag @ w)
            assert np.abs(d.schur_transform(a) - expected).max() <= 1e-15, n

    @pytest.mark.parametrize("n", [1, 4])
    def test_schur_transform_rejects_any_other_shape(self, n):
        d = decompose(n)
        for shape in [(2 ** (n + 1),), (2 ** (n + 2),), (2 ** n, 2), (2, 2 ** n), (1, 2 ** n),
                      (2 ** (n - 1),), ()]:
            with pytest.raises(ValueError, match=f"length {2 ** n}"):
                d.schur_transform(np.full(shape, 0.5))


class TestClebschGordanOracle:
    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (3, 2)])
    def test_matches_ladder_construction(self, tj1, tj2):
        states = ladder_coupled_states(tj1, tj2)
        d2 = tj2 + 1
        for (tj, tm), vec in states.items():
            for row, amp in enumerate(vec):
                tm1 = tj1 - 2 * (row // d2)
                tm2 = tj2 - 2 * (row % d2)
                coeff = clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1),
                                       HalfInteger(tj2), HalfInteger(tm2),
                                       HalfInteger(tj), HalfInteger(tm))
                assert abs(coeff - amp) < 1e-10, (tj1, tj2, tj, tm, tm1, tm2)


class TestClebschGordanSympy:
    """clebsch_gordan against sympy's closed forms, skipped without sympy."""

    @staticmethod
    def assert_matches_sympy(tj1, tj2, tj, tm1, tm2):
        pytest.importorskip("sympy")
        from sympy import Rational
        from sympy.physics.quantum.cg import CG

        args = [Rational(t, 2) for t in (tj1, tm1, tj2, tm2, tj, tm1 + tm2)]
        expected = float(CG(*args).doit())
        actual = clebsch_gordan(*(HalfInteger(t) for t in (tj1, tm1, tj2, tm2, tj, tm1 + tm2)))
        assert abs(actual - expected) <= 1e-15, (tj1, tm1, tj2, tm2, tj)

    def test_every_spin_half_coupling_up_to_j1_6(self):
        # 2j1 <= 12 covers every coupling decompose makes up to MAX_QUBITS = 12
        for tj1 in range(13):
            for tj in (tj1 + 1, tj1 - 1):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in (1, -1):
                        if tj >= 0 and abs(tm1 + tm2) <= tj:
                            self.assert_matches_sympy(tj1, 1, tj, tm1, tm2)

    def test_all_couplings_up_to_j1_j2_3(self):
        for tj1 in range(7):
            for tj2 in range(7):
                for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            if abs(tm1 + tm2) <= tj:
                                self.assert_matches_sympy(tj1, tj2, tj, tm1, tm2)


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == 1.0

    def test_singlet_components(self):
        assert abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) - 1 / SQRT2) < 1e-15
        assert abs(clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) + 1 / SQRT2) < 1e-15

    def test_spin_one_pair_table_values(self):
        assert abs(clebsch_gordan(1, 0, 1, 0, 2, 0) - np.sqrt(2.0 / 3.0)) < 1e-15
        assert abs(clebsch_gordan(1, 1, 1, -1, 0, 0) - 1 / np.sqrt(3.0)) < 1e-15
        assert clebsch_gordan(1, 0, 1, 0, 1, 0) == 0.0
        assert abs(clebsch_gordan(1, 1, 0.5, -0.5, 0.5, 0.5) - np.sqrt(2.0 / 3.0)) < 1e-15

    def test_selection_rule(self):
        assert clebsch_gordan(1, 1, 1, 1, 1, 1) == 0.0
        assert clebsch_gordan(1, 0, 0.5, 0.5, 1.5, 1.5) == 0.0

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1, 1)

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 0.5, 0.5, 0.5, 2, 1)

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0.5, 0.5)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_orthonormal(self, tj1, tj2, data):
        # fixed total m: sum over (m1, m2) of products for two target j is
        # delta_{j j'}
        tm = data.draw(st.integers(-(tj1 + tj2) // 2, (tj1 + tj2) // 2).map(lambda k: 2 * k + (tj1 + tj2) % 2))
        valid_j = [tj for tj in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2) if abs(tm) <= tj]
        if len(valid_j) < 2:
            return
        ja, jb = valid_j[0], valid_j[-1]
        for target in (ja, jb):
            total = 0.0
            for tm1 in range(-tj1, tj1 + 2, 2):
                tm2 = tm - tm1
                if abs(tm2) > tj2:
                    continue
                ca = clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1),
                                    HalfInteger(tj2), HalfInteger(tm2),
                                    HalfInteger(ja), HalfInteger(tm))
                cb = clebsch_gordan(HalfInteger(tj1), HalfInteger(tm1),
                                    HalfInteger(tj2), HalfInteger(tm2),
                                    HalfInteger(target), HalfInteger(tm))
                total += ca * cb
            assert abs(total - (1.0 if target == ja else 0.0)) < 1e-10


class TestHalfInteger:
    def test_coercion(self):
        assert HalfInteger.of(1.5).twice == 3
        assert HalfInteger.of(2).twice == 4
        assert HalfInteger.of(Fraction(1, 2)).twice == 1
        assert HalfInteger.of(HalfInteger.of(0.5)) == HalfInteger(1)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfInteger.of(0.3)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                       np.float64("inf"), np.float64("nan")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="is not a half-integer"):
            HalfInteger.of(value)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_a_bool_is_not_a_half_integer(self, value):
        # HalfInteger(True) would be j = 1/2 and HalfInteger.of(True) j = 1
        with pytest.raises(TypeError):
            HalfInteger(value)
        with pytest.raises(ValueError, match="is not a half-integer"):
            HalfInteger.of(value)

    @pytest.mark.parametrize("call", [
        lambda j: multiplicity(4, j), lambda j: decompose(4).sector(j),
        lambda j: decompose(4).block_index(j, 1), lambda j: decompose(4).block(j, 1)],
        ids=["multiplicity", "sector", "block_index", "block"])
    @pytest.mark.parametrize("j", [True, False])
    def test_every_j_label_rejects_a_bool(self, call, j):
        with pytest.raises(ValueError, match="is not a half-integer"):
            call(j)

    def test_order(self):
        assert HalfInteger.of(0.5) < HalfInteger.of(1)

    def test_str(self):
        assert str(HalfInteger.of(1.5)) == "3/2"
        assert str(HalfInteger.of(2)) == "2"


class TestMultiplicity:
    def test_known_values(self):
        assert multiplicity(4, 0) == 2
        assert multiplicity(4, 2) == 1
        assert multiplicity(6, 1) == 9

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity(4, 0.5)

    def test_rejects_j_too_large(self):
        with pytest.raises(ValueError):
            multiplicity(4, 3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_path_count(self, n):
        for tj in range(n % 2, n + 1, 2):
            assert multiplicity(n, HalfInteger(tj)) == len(enumerate_paths(n, HalfInteger(tj)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dimension_sum_rule(self, n):
        total = sum((tj + 1) * multiplicity(n, HalfInteger(tj))
                    for tj in range(n % 2, n + 1, 2))
        assert total == 2 ** n


class TestTotalIrrepCount:
    def test_known_values(self):
        assert total_irrep_count(2) == 2
        assert total_irrep_count(4) == 6
        assert total_irrep_count(6) == 20  # path counts 5 + 9 + 5 + 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_even_closed_form(self, n):
        from math import comb
        assert total_irrep_count(n) == comb(n, n // 2)


def _steps(path: tuple[int, ...]) -> tuple[int, ...]:
    """+1 for an up-step, -1 for a down-step, in units of 1/2."""
    return tuple(b - a for a, b in zip(path, path[1:]))


class TestEnumeratePaths:
    def test_two_qubits(self):
        paths = enumerate_paths(2, 0)
        assert len(paths) == 1
        assert paths[0] == (1, 0)

    def test_four_qubits_j0(self):
        paths = enumerate_paths(4, 0)
        assert sorted(paths) == [(1, 0, 1, 0), (1, 2, 1, 0)]

    def test_all_steps_up(self):
        paths = enumerate_paths(3, 1.5)
        assert len(paths) == 1
        assert _steps(paths[0]) == (1, 1)

    def test_lexicographic_order_up_before_down(self):
        for n, tj in ((4, 0), (5, 1), (6, 2)):
            paths = enumerate_paths(n, HalfInteger(tj))
            keys = [tuple(0 if s > 0 else 1 for s in _steps(p)) for p in paths]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_path_is_a_coupling_walk(self, n):
        for tj in range(n % 2, n + 1, 2):
            for path in enumerate_paths(n, HalfInteger(tj)):
                assert len(path) == n and path[0] == 1 and path[-1] == tj, path
                assert min(path) >= 0 and set(_steps(path)) <= {1, -1}, path


class TestDecompose:
    def test_single_qubit(self):
        d = decompose(1)
        assert d.multiplicity_table == {HalfInteger.of(0.5): 1}
        assert np.array_equal(d.block(0.5, 1), np.eye(2))

    def test_two_qubits(self):
        d = decompose(2)
        assert [(j.twice, c) for j, c in d.multiplicity_table.items()] == [(2, 1), (0, 1)]
        assert d.block(1, 1).shape == (4, 3)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2
        assert np.abs(d.block(0, 1)[:, 0] - singlet).max() < 1e-12

    def test_four_qubits(self):
        d = decompose(4)
        assert {j.twice: c for j, c in d.multiplicity_table.items()} == {4: 1, 2: 3, 0: 2}
        assert len(d.column_starts) == 6
        with pytest.raises(TypeError):
            d.multiplicity_table[HalfInteger(0)] = 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decompose(0)
        with pytest.raises(ValueError):
            decompose(13)

    def test_a_level_that_disagrees_with_the_table_raises(self, monkeypatch):
        true_table = irreps._multiplicity_table
        wrong = {HalfInteger(3): 1, HalfInteger(1): 3}  # 10 columns where 3 qubits have 8
        monkeypatch.setattr(irreps, "_multiplicity_table",
                            lambda k: wrong if k == 3 else true_table(k))
        with pytest.raises(RuntimeError, match="level-3 blocks"):
            decompose.__wrapped__(4)  # uncached, so the cache never holds a failed build

    def test_a_fractional_multiplicity_raises(self, monkeypatch):
        monkeypatch.setattr(irreps, "comb", lambda n, k: 5)  # c_1 = 5 * 3 / 4 for n = 4
        with pytest.raises(RuntimeError, match="fraction"):
            multiplicity(4, 1)

    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_coupling_matrix_is_unitary(self, n):
        w = decompose(n).columns(slice(None))  # real (TestBlockLayout)
        gram = w.T @ w
        gram[np.diag_indices_from(gram)] -= 1.0  # in place: 128 MB per copy at n = 12
        assert np.abs(gram).max() < 1e-10

    def test_blocks_are_rotation_invariant(self, rng):
        for n in (2, 3, 4):
            d = decompose(n)
            for _ in range(20):
                u = collective_rotation(haar_random_su2(rng), n)
                for j, r, _, _ in racah_blocks(n):
                    v = d.block(j, r)
                    p = v @ v.T
                    assert np.abs(p @ u - u @ p).max() < 1e-9

    def test_block_ordering_matches_paths(self):
        d = decompose(4)
        labels = [(4, 1), (2, 1), (2, 2), (2, 3), (0, 1), (0, 2)]
        assert [d.block_index(HalfInteger(tj), r) for tj, r in labels] == list(range(6))

    def test_commutant_inside_each_block_is_trivial(self, rng):
        # the only matrices commuting with the sampled block rotations are
        # multiples of the identity
        for n in (2, 3, 4):
            d = decompose(n)
            for j, r, _, _ in racah_blocks(n):
                v = d.block(j, r)
                dim = v.shape[1]
                rows = []
                for _ in range(20):
                    u = collective_rotation(haar_random_su2(rng), n)
                    inside = v.T @ u @ v
                    rows.append(np.kron(inside, np.eye(dim))
                                - np.kron(np.eye(dim), inside.T))
                stacked = np.vstack(rows)
                nullity = int(np.sum(np.linalg.svd(stacked, compute_uv=False) < 1e-8))
                assert nullity == 1, (n, str(j), r)


class TestBlockProjector:
    def test_two_qubit_singlet_projector(self):
        v = decompose(2).block(0, 1)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2
        assert np.abs(v @ v.T - np.outer(singlet, singlet)).max() < 1e-12

    def test_completeness(self):
        for n in (2, 3, 4):
            d = decompose(n)
            total = sum(v @ v.T for v in (d.block(j, r) for j, r, _, _ in racah_blocks(n)))
            assert np.abs(total - np.eye(2 ** n)).max() < 1e-10

    def test_ranks_for_four_qubits(self):
        d = decompose(4)
        for r in (1, 2, 3):
            v = d.block(1, r)
            eigenvalues = np.linalg.eigvalsh(v @ v.T)
            assert int(np.sum(eigenvalues > 0.5)) == 3

    def test_pairwise_orthogonality(self):
        d = decompose(4)
        projectors = [v @ v.T for v in (d.block(j, r) for j, r, _, _ in racah_blocks(4))]
        for i, a in enumerate(projectors):
            for b in projectors[i + 1:]:
                assert np.abs(a @ b).max() < 1e-10

    def test_rejects_unknown_label(self):
        with pytest.raises(KeyError):
            decompose(2).block(0, 2)


class TestBlockIndexOracle:
    """Index arithmetic on the block order against the Racah levels walked in path order."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_index_matches_scan(self, n):
        d = decompose(n)
        w = d.columns(slice(None))
        scan = racah_blocks(n)
        for i, (j, r, start, basis) in enumerate(scan):
            assert d.block_index(j, r) == i
            assert np.array_equal(d.block(j, r), basis), (n, str(j), r)
            assert np.array_equal(d.block(j, r), w[:, start:start + j.twice + 1])
        assert d.column_starts.tolist() == [start for _, _, start, _ in scan]
        assert d.twice_j.tolist() == [j.twice for j, _, _, _ in scan]
        for table in (d.twice_j, d.column_starts):
            assert table.dtype.kind == "i" and not table.flags.writeable, n
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sector_matches_scan(self, n):
        d = decompose(n)
        for tj in range(n + 2):
            j = HalfInteger(tj)
            scan = [basis for j_, _, _, basis in racah_blocks(n) if j_ == j]
            if scan:
                assert np.array_equal(d.sector(j), np.hstack(scan))
            else:
                with pytest.raises(KeyError):
                    d.sector(j)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unknown_labels_raise_key_error(self, n):
        d = decompose(n)
        for j, count in d.multiplicity_table.items():
            for r in (0, count + 1, 1.0, float(count), 0.5, "1", None, True):
                with pytest.raises(KeyError):
                    d.block_index(j, r)
                with pytest.raises(KeyError):
                    d.block(j, r)
            assert d.block_index(j, np.int64(count)) == d.block_index(j, count)
            assert np.array_equal(d.block(j, np.int64(count)), d.block(j, count))
        for lookup in (d.block_index, d.block):
            with pytest.raises(KeyError):
                lookup(HalfInteger((n + 1) % 2), 1)  # wrong parity for n
