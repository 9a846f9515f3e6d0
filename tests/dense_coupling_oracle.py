"""Dense reference build of the coupling matrix, level by level.

This is the construction ``decompose`` used before it stored only the
sequential Clebsch-Gordan factors: each level writes every column of the
2^k x 2^k matrix W_k from the columns of W_{k-1} with the closed-form spin-1/2
coefficients.  The tests check the factored form against it bit for bit.

``scalar_factors`` is the per-column loop that recorded those factors before
``decompose`` computed each level with array arithmetic; the tests check the
array build against it bit for bit, sign bits included.
"""

from __future__ import annotations

from itertools import accumulate
from math import sqrt

import numpy as np

from framefree.irreps import HalfInteger, multiplicity


def couple_qubit(basis: np.ndarray, tj: int, new_tj: int, out: np.ndarray) -> None:
    """Couple one more qubit to a spin-(tj/2) basis whose columns run m = j..-j.

    Adds the spin-(new_tj/2) columns into ``out``.  The closed-form spin-1/2
    coefficients equal ``clebsch_gordan`` bit for bit.
    """
    for col, tm in enumerate(range(new_tj, -new_tj - 1, -2)):
        for tmu, offset in ((1, 0), (-1, 1)):  # |0> carries m = +1/2
            tm1 = tm - tmu
            if abs(tm1) > tj:
                continue
            if new_tj > tj:
                coeff = sqrt((tj + tmu * tm + 1) / (2 * tj + 2))
            else:
                coeff = -tmu * sqrt((tj - tmu * tm + 1) / (2 * tj + 2))
            out[offset::2, col] += coeff * basis[:, (tj - tm1) // 2]


def dense_coupling_matrix(n: int) -> np.ndarray:
    """The real, column-major 2^n x 2^n coupling matrix, built densely.

    Each level's columns are placed from the coupling paths it generates:
    blocks in order of 2j descending, then in path order, 2j + 1 columns each.
    """
    w = np.eye(2, order="F")
    level = [(1, 0)]  # (2j, first column) of each coupling path, in path order
    for k in range(2, n + 1):
        # up-step first keeps the new paths lexicographic
        paths = [(new_tj, tj, start) for tj, start in level
                 for new_tj in (tj + 1, tj - 1) if new_tj >= 0]
        # 2j descending; the sort is stable, so path order holds within each 2j
        canonical = sorted(range(len(paths)), key=lambda i: -paths[i][0])
        widths = (paths[i][0] + 1 for i in canonical)
        first = dict(zip(canonical, accumulate(widths, initial=0)))
        assert sum(new_tj + 1 for new_tj, _, _ in paths) == 2 ** k
        nxt = np.zeros((2 ** k, 2 ** k), order="F")
        for i, (new_tj, tj, start) in enumerate(paths):
            couple_qubit(w[:, start:start + tj + 1], tj, new_tj,
                         nxt[:, first[i]:first[i] + new_tj + 1])
        level = [(new_tj, first[i]) for i, (new_tj, _, _) in enumerate(paths)]
        w = nxt
    return w


def _sector_starts(k: int) -> dict[int, int]:
    """First column of each 2j sector among k qubits: j descending, c_j blocks 2j + 1 wide."""
    counts = {tj: multiplicity(k, HalfInteger(tj)) for tj in range(k, -1, -2)}
    widths = (count * (tj + 1) for tj, count in counts.items())
    return dict(zip(counts, accumulate(widths, initial=0)))


def scalar_factors(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The factors (src0, coef0, src1, coef1) of C_2..C_n, recorded one column at a time."""
    factors = []
    level = [(1, 0)]  # (2j, first column) of each coupling path, in path order
    for k in range(2, n + 1):
        starts = _sector_starts(k)
        cursor = dict(starts)
        src, coef = [[0] * 2 ** k, [0] * 2 ** k], [[0.0] * 2 ** k, [0.0] * 2 ** k]
        paths = []
        for tj, start in level:
            for new_tj in (tj + 1, tj - 1):  # up-step first keeps paths lexicographic
                if new_tj < 0:
                    continue
                col = cursor[new_tj]
                cursor[new_tj] += new_tj + 1
                # the spin-1/2 coefficients, equal bit for bit to tests/racah_oracle.py's Racah sum
                for c, tm in enumerate(range(new_tj, -new_tj - 1, -2), start=col):
                    for tmu, offset in ((1, 0), (-1, 1)):  # |0> carries m = +1/2
                        tm1 = tm - tmu
                        if abs(tm1) > tj:
                            continue
                        if new_tj > tj:
                            coeff = sqrt((tj + tmu * tm + 1) / (2 * tj + 2))
                        else:
                            coeff = -tmu * sqrt((tj - tmu * tm + 1) / (2 * tj + 2))
                        src[offset][c] = start + (tj - tm1) // 2
                        coef[offset][c] = coeff
                paths.append((new_tj, col))
        assert list(cursor.values()) == [*list(starts.values())[1:], 2 ** k]
        level = paths
        factors.append(tuple(np.array(values) for part in zip(src, coef) for values in part))
    return tuple(factors)
