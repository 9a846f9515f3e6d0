"""Reference coupled bases built from the Racah sum, independent of ``decompose``.

Every coefficient comes from ``clebsch_gordan``, one array per coupling path,
with none of the index arithmetic that lays blocks out in the coupling matrix.
"""

from functools import lru_cache

import numpy as np

from framefree.irreps import HalfInteger, clebsch_gordan, enumerate_paths


def racah_couple_qubit(basis: np.ndarray, tj: int, new_tj: int) -> np.ndarray:
    """Couple one more qubit to a spin-(tj/2) basis, taking coefficients from clebsch_gordan."""
    rows = basis.shape[0]
    out = np.zeros((2 * rows, new_tj + 1))
    j1, jq, jn = HalfInteger(tj), HalfInteger(1), HalfInteger(new_tj)
    for col, tm in enumerate(range(new_tj, -new_tj - 1, -2)):
        for tmu, offset in ((1, 0), (-1, 1)):  # |0> carries m = +1/2
            tm1 = tm - tmu
            if abs(tm1) > tj:
                continue
            coeff = clebsch_gordan(j1, HalfInteger(tm1), jq, HalfInteger(tmu),
                                   jn, HalfInteger(tm))
            if coeff == 0.0:
                continue
            out[offset::2, col] += coeff * basis[:, (tj - tm1) // 2]
    return out


@lru_cache(maxsize=None)
def racah_coupled_bases(n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Map each coupling path, as its 2j values, to the basis coupled along it, in path order."""
    levels = {(1,): np.eye(2)}
    for _ in range(n - 1):
        nxt = {}
        for path, basis in levels.items():
            tj = path[-1]
            for step in (1, -1):
                if tj + step >= 0:
                    nxt[path + (tj + step,)] = racah_couple_qubit(basis, tj, tj + step)
        levels = nxt
    return levels


@lru_cache(maxsize=None)
def racah_blocks(n: int) -> tuple[tuple[HalfInteger, int, int, np.ndarray], ...]:
    """(j, r, first column, basis) of every block, in canonical block order.

    The Racah levels, walked in path order and stably sorted j descending,
    give the block order, so a block's index is its place in this tuple.
    r is the path's 1-based place in ``enumerate_paths(n, j)``, and the first
    column is the running sum of the widths of the blocks before it.
    """
    ordered = sorted(racah_coupled_bases(n).items(), key=lambda item: -item[0][-1])
    rank = {}
    for tj in {path[-1] for path, _ in ordered}:
        for r, p in enumerate(enumerate_paths(n, HalfInteger(tj)), start=1):
            rank[tuple(t.twice for t in p.js)] = r
    blocks, start = [], 0
    for path, basis in ordered:
        blocks.append((HalfInteger(path[-1]), rank[path], start, basis))
        start += basis.shape[1]
    return tuple(blocks)
