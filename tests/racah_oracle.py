"""Reference coupled bases built from the Racah sum, independent of ``decompose``.

Every coefficient comes from ``clebsch_gordan``, one array per coupling path,
with none of the index arithmetic that lays blocks out in the coupling matrix.
``enumerate_paths`` walks the coupling paths by brute force, an independent
count of the multiplicities.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from framefree.irreps import HalfInteger, multiplicity


def _validated_jm(j, m) -> tuple[int, int]:
    tj = HalfInteger.of(j).twice
    tm = HalfInteger.of(m).twice
    if tj < 0:
        raise ValueError(f"angular momentum j={HalfInteger(tj)} must be nonnegative")
    if abs(tm) > tj:
        raise ValueError(f"|m| = {HalfInteger(abs(tm))} exceeds j = {HalfInteger(tj)}")
    if (tj + tm) % 2:
        raise ValueError(f"m = {HalfInteger(tm)} has the wrong parity for j = {HalfInteger(tj)}")
    return tj, tm


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Condon-Shortley coefficient <j1 m1; j2 m2 | j m>.

    Evaluated through the Racah closed-form sum in exact integer
    arithmetic; the single square root at the end is the only floating
    point step.  Returns 0 when m != m1 + m2.
    """
    tj1, tm1 = _validated_jm(j1, m1)
    tj2, tm2 = _validated_jm(j2, m2)
    tj, tm = _validated_jm(j, m)
    if (tj1 + tj2 + tj) % 2:
        raise ValueError("j1, j2, j cannot couple: total parity mismatch")
    if tj > tj1 + tj2 or tj < abs(tj1 - tj2):
        raise ValueError(f"triangle inequality violated for j1={HalfInteger(tj1)}, "
                         f"j2={HalfInteger(tj2)}, j={HalfInteger(tj)}")
    if tm1 + tm2 != tm:
        return 0.0

    f = factorial
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tj2 + tj) // 2
    c = (tj2 - tj1 + tj) // 2
    prefactor = Fraction((tj + 1) * f(a) * f(b) * f(c), f((tj1 + tj2 + tj) // 2 + 1))
    prefactor *= (f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2)
                  * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2)
                  * f((tj + tm) // 2) * f((tj - tm) // 2))
    k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    k_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denominator = (f(k) * f(a - k)
                       * f((tj1 - tm1) // 2 - k) * f((tj2 + tm2) // 2 - k)
                       * f((tj - tj2 + tm1) // 2 + k) * f((tj - tj1 - tm2) // 2 + k))
        total += Fraction(-1 if k % 2 else 1, denominator)
    if total == 0:
        return 0.0
    magnitude = sqrt(float(prefactor * total * total))
    return magnitude if total > 0 else -magnitude


def enumerate_paths(n: int, j) -> list[tuple[int, ...]]:
    """All coupling paths of length n ending at j, each as its 2j values, in lexicographic order.

    Ordering compares step sequences with an up-step before a down-step.
    The list length equals multiplicity(n, j); the count is exponential in
    n, so keep n small.
    """
    target = HalfInteger.of(j).twice
    multiplicity(n, j)  # reuse the precondition checks
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            if prefix[-1] == target:
                out.append(prefix)
            return
        remaining = n - len(prefix)
        for step in (1, -1):  # up-steps first keeps the output ordered
            nxt = prefix[-1] + step
            if nxt < 0 or abs(nxt - target) > remaining - 1:
                continue
            walk(prefix + (nxt,))

    walk((1,))
    return out


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
        for r, path in enumerate(enumerate_paths(n, HalfInteger(tj)), start=1):
            rank[path] = r
    blocks, start = [], 0
    for path, basis in ordered:
        blocks.append((HalfInteger(path[-1]), rank[path], start, basis))
        start += basis.shape[1]
    return tuple(blocks)
