"""Dense reference build of the coupling matrix, level by level.

This is the construction ``decompose`` used before it stored only the
sequential Clebsch-Gordan factors: each level writes every column of the
2^k x 2^k matrix W_k from the columns of W_{k-1} with the closed-form spin-1/2
coefficients.  The tests check the factored form against it bit for bit.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from framefree.irreps import _sector_starts


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
    """The real, column-major 2^n x 2^n coupling matrix, built densely."""
    w = np.eye(2, order="F")
    level = [(1, 0)]  # (2j, first column) of each coupling path, in path order
    for k in range(2, n + 1):
        starts = _sector_starts(k)
        cursor = dict(starts)
        nxt = np.zeros((2 ** k, 2 ** k), order="F")
        paths = []
        for tj, start in level:
            for new_tj in (tj + 1, tj - 1):  # up-step first keeps paths lexicographic
                if new_tj < 0:
                    continue
                col = cursor[new_tj]
                cursor[new_tj] += new_tj + 1
                couple_qubit(w[:, start:start + tj + 1], tj, new_tj,
                             nxt[:, col:col + new_tj + 1])
                paths.append((new_tj, col))
        assert list(cursor.values()) == [*list(starts.values())[1:], 2 ** k]
        level, w = paths, nxt
    return w
