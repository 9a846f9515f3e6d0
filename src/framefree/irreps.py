"""Irrep structure of the collective SU(2) action on n qubits.

The 2^n-dimensional space of n qubits splits into invariant blocks labeled
by total angular momentum j and a multiplicity label r.  Multiplicity is
labeled by the coupling path: the sequence of intermediate total-j values
obtained by coupling qubits 1, 2, ..., n left to right, which is the
convention both communicating parties must agree on.  Within one block the
columns run over m = j, j-1, ..., -j.  Blocks are ordered j descending,
then paths lexicographic by step sequence with an up-step sorting before a
down-step.

The whole structure is one real, column-major coupling matrix with the
blocks side by side in that order.  ``block(j, r)`` is the view of one
block's columns and ``sector(j)`` the view of every block with that j; no
other form of the blocks is stored.

Multiplicities follow the two-row closed form
c_j = binom(n, n/2 - j) * (2j+1) / (n/2 + j + 1), evaluated in exact
integer arithmetic; path enumeration provides an independent count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, factorial, inf, sqrt

import numpy as np

from .core import MAX_QUBITS, _readonly


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact half-integer, stored as twice its value so it never rounds."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)):
            raise TypeError(f"twice must be an integer, got {type(self.twice).__name__}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def of(value) -> "HalfInteger":
        """Coerce an int, float, Fraction, or HalfInteger to a HalfInteger."""
        if isinstance(value, HalfInteger):
            return value
        doubled = 2 * value
        if not (abs(doubled) < inf and doubled == round(doubled)):  # NaN fails too
            raise ValueError(f"{value!r} is not a half-integer")
        return HalfInteger(int(round(doubled)))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class CouplingPath:
    """Intermediate total-j values from coupling qubits left to right."""

    js: tuple[HalfInteger, ...]

    def __post_init__(self):
        js = tuple(HalfInteger.of(j) for j in self.js)
        if not js or js[0].twice != 1:
            raise ValueError("a coupling path starts at j = 1/2")
        for a, b in zip(js, js[1:]):
            if abs(b.twice - a.twice) != 1:
                raise ValueError("each step must change j by exactly 1/2")
            if b.twice < 0:
                raise ValueError("intermediate j values must stay nonnegative")
        object.__setattr__(self, "js", js)

    @property
    def n(self) -> int:
        return len(self.js)

    @property
    def final(self) -> HalfInteger:
        return self.js[-1]

    @property
    def steps(self) -> tuple[int, ...]:
        """+1 for an up-step, -1 for a down-step, in units of 1/2."""
        return tuple(b.twice - a.twice for a, b in zip(self.js, self.js[1:]))

    def __str__(self) -> str:
        return "[" + ", ".join(str(j) for j in self.js) + "]"


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


def multiplicity(n: int, j) -> int:
    """Number of blocks with total angular momentum j among n qubits."""
    j = HalfInteger.of(j)
    tj = j.twice
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if tj < 0 or tj > n:
        raise ValueError(f"j = {j} out of range 0..{n}/2 for n = {n}")
    if (n + tj) % 2:
        raise ValueError(f"j = {j} has the wrong parity for n = {n}")
    count = Fraction(comb(n, (n - tj) // 2) * (tj + 1), (n + tj) // 2 + 1)
    assert count.denominator == 1
    return int(count)


def total_irrep_count(n: int) -> int:
    """Total number of blocks over all j; equals binom(n, n/2) for even n."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    return sum(multiplicity(n, HalfInteger(tj)) for tj in range(n % 2, n + 1, 2))


def enumerate_paths(n: int, j) -> list[CouplingPath]:
    """All coupling paths of length n ending at j, in lexicographic order.

    Ordering compares step sequences with an up-step before a down-step.
    The list length equals multiplicity(n, j); the count is exponential in
    n, so keep n small.
    """
    target = HalfInteger.of(j).twice
    multiplicity(n, j)  # reuse the precondition checks
    out: list[CouplingPath] = []

    def walk(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            if prefix[-1] == target:
                out.append(CouplingPath(tuple(HalfInteger(t) for t in prefix)))
            return
        remaining = n - len(prefix)
        for step in (1, -1):  # up-steps first keeps the output ordered
            nxt = prefix[-1] + step
            if nxt < 0 or abs(nxt - target) > remaining - 1:
                continue
            walk(prefix + (nxt,))

    walk((1,))
    return out


@dataclass(frozen=True, eq=False)
class IrrepDecomposition:
    """Complete block structure of the collective SU(2) action on n qubits."""

    n: int
    multiplicity_table: dict[HalfInteger, int]
    coupling_matrix: np.ndarray  # real orthogonal; every block and sector is a view of its columns

    def block(self, j, r: int) -> np.ndarray:
        """Columns |j, m, r>, m = j..-j, of one block: a read-only view of ``coupling_matrix``."""
        j = HalfInteger.of(j)
        self.block_index(j, r)  # rejects an unknown label
        start = _sector_starts(self.n)[j.twice] + (r - 1) * (j.twice + 1)
        return self.coupling_matrix[:, start:start + j.twice + 1]

    @cached_property
    def _first_index(self) -> dict[HalfInteger, int]:
        """Index of each j's first block; equal-j blocks are contiguous, j descending."""
        table = self.multiplicity_table
        return dict(zip(table, accumulate(table.values(), initial=0)))

    @cached_property
    def column_starts(self) -> np.ndarray:
        """First ``coupling_matrix`` column of each block, in canonical block order."""
        dims = [j.twice + 1 for j, count in self.multiplicity_table.items() for _ in range(count)]
        return _readonly(np.cumsum([0, *dims[:-1]]))

    def sector(self, j) -> np.ndarray:
        """The columns of every block with this j: one read-only view of ``coupling_matrix``."""
        j = HalfInteger.of(j)
        count = self.multiplicity_table.get(j, 0)
        if not count:
            raise KeyError(f"no block with j = {j}")
        start = _sector_starts(self.n)[j.twice]
        return self.coupling_matrix[:, start:start + count * (j.twice + 1)]

    def block_index(self, j, r: int) -> int:
        j = HalfInteger.of(j)
        if r not in range(1, self.multiplicity_table.get(j, 0) + 1):
            raise KeyError(f"no block with j = {j}, r = {r}")
        return self._first_index[j] + r - 1

    def summary(self) -> dict:
        """JSON-friendly multiplicity table; j is reported as 2j."""
        return {
            "n": self.n,
            "table": [{"j2": j.twice, "multiplicity": c}
                      for j, c in self.multiplicity_table.items()],
            "total": sum(self.multiplicity_table.values()),
        }


def carrier_trace(v: np.ndarray, a: np.ndarray, width: int) -> np.ndarray:
    """Compress ``a`` onto the columns of ``v`` and trace out the carrier.

    The columns of ``v`` run over (r, m) with m fastest, ``width`` values of m
    per r, as in a ``sector``.  Entry (r, r') of the result is
    sum_m <v_{r,m}| a |v_{r',m}>, the multiplicity-space operator that frame
    averaging keeps.  With ``width`` 1 this is the plain compression v^dag a v.
    """
    count = v.shape[1] // width
    inside = (v.conj().T @ a @ v).reshape(count, width, count, width)
    return np.trace(inside, axis1=1, axis2=3)


def _couple_qubit(basis: np.ndarray, tj: int, new_tj: int, out: np.ndarray) -> None:
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


@lru_cache(maxsize=None)
def _sector_starts(k: int) -> dict[int, int]:
    """First column of each 2j sector among k qubits: j descending, c_j blocks 2j + 1 wide."""
    tjs = range(k, -1, -2)
    widths = (multiplicity(k, HalfInteger(tj)) * (tj + 1) for tj in tjs)
    return dict(zip(tjs, accumulate(widths, initial=0)))


@lru_cache(maxsize=None)
def decompose(n: int) -> IrrepDecomposition:
    """Build every invariant block of the collective SU(2) action on n qubits.

    Qubits are coupled left to right with Condon-Shortley coefficients, so
    every sign is reproducible.  Intermediate bases are shared between
    paths with a common prefix, which keeps the construction quadratic in
    the total dimension.  The result is cached and immutable.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    # Column-major: blocks are column slices, strided (and slower) in a row-major
    # matrix, such as one stacked side by side from row-major per-block arrays.
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
                _couple_qubit(w[:, start:start + tj + 1], tj, new_tj,
                              nxt[:, col:col + new_tj + 1])
                paths.append((new_tj, col))
        assert list(cursor.values()) == [*list(starts.values())[1:], 2 ** k]
        level, w = paths, nxt
    table = {HalfInteger(tj): multiplicity(n, HalfInteger(tj)) for tj in range(n, -1, -2)}
    return IrrepDecomposition(n=n, multiplicity_table=table, coupling_matrix=_readonly(w))
