"""Irrep structure of the collective SU(2) action on n qubits.

The 2^n-dimensional space of n qubits splits into invariant blocks labeled
by total angular momentum j and a multiplicity label r.  Multiplicity is
labeled by the coupling path: the sequence of intermediate total-j values
obtained by coupling qubits 1, 2, ..., n left to right, which is the
convention both communicating parties must agree on.  Within one block the
columns run over m = j, j-1, ..., -j.  Blocks are ordered j descending,
then paths lexicographic by step sequence with an up-step sorting before a
down-step.

The coupling matrix W holds every block side by side in that order, but it
is never stored: coupling qubit k to the first k - 1 multiplies the matrix
of k - 1 qubits by a factor with at most two nonzeros per column (the
sequential Schur transform of Bacon, Chuang and Harrow, quant-ph/0407082),
and ``decompose`` keeps only those factors, plus the per-block table its
last level placed: each block's 2j and first column of W, in canonical order.
``schur_transform`` applies W^T to a vector and ``columns`` builds chosen
columns of W, both from the factors.  ``block(j, r)`` (one block) and
``sector(j)`` (every block with that j) are such columns, found in the
per-block table, built on each call and kept by the caller.

Multiplicities follow the two-row closed form
c_j = binom(n, n/2 - j) * (2j+1) / (n/2 + j + 1), evaluated in exact
integer arithmetic and kept in one cached, read-only table per n, which every
count reads; ``decompose`` checks each level's blocks against it, and the path
enumeration in tests/racah_oracle.py gives an independent count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from types import MappingProxyType

import numpy as np

from .core import _check_qubit_count, _is_integer, _readonly


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact half-integer, stored as twice its value so it never rounds."""

    twice: int

    def __post_init__(self):
        if not _is_integer(self.twice):
            raise TypeError(f"twice must be an integer, got {type(self.twice).__name__}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def of(value) -> "HalfInteger":
        """Coerce an int, float, Fraction, or HalfInteger, not a bool, to a HalfInteger."""
        if isinstance(value, HalfInteger):
            return value
        doubled = 2 * value
        whole = abs(doubled) < inf and doubled == round(doubled)  # NaN fails too
        # a Python int the integer rule refuses is a bool: 2 * True would give j = 1
        if not whole or isinstance(value, (int, np.bool_)) and not _is_integer(value):
            raise ValueError(f"{value!r} is not a half-integer")
        return HalfInteger(int(round(doubled)))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def multiplicity(n: int, j) -> int:
    """Number of blocks with total angular momentum j among n qubits."""
    j = HalfInteger.of(j)
    tj = j.twice
    _check_qubit_count(n, high=None)
    if tj < 0 or tj > n:
        raise ValueError(f"j = {j} out of range 0..{n}/2 for n = {n}")
    if (n + tj) % 2:
        raise ValueError(f"j = {j} has the wrong parity for n = {n}")
    count, rest = divmod(comb(n, (n - tj) // 2) * (tj + 1), (n + tj) // 2 + 1)
    if rest:
        raise RuntimeError(f"the closed form gives a fraction for n = {n}, j = {j}")
    return count


@lru_cache(maxsize=None, typed=True)  # a bool or float equal to a cached count must miss
def _multiplicity_table(n: int) -> MappingProxyType:
    """Read-only {j: c_j} for n qubits, j descending: the one source of every count."""
    _check_qubit_count(n, high=None)
    return MappingProxyType({HalfInteger(tj): multiplicity(n, HalfInteger(tj))
                             for tj in range(n, -1, -2)})


def total_irrep_count(n: int) -> int:
    """Total number of blocks over all j; equals binom(n, n/2) for even n."""
    return sum(_multiplicity_table(n).values())


@dataclass(frozen=True, eq=False)
class IrrepDecomposition:
    """Complete block structure of the collective SU(2) action on n qubits.

    The real orthogonal coupling matrix W_n has the states |j, m, r> as
    columns, in canonical block order.  It is stored only as its factors:
    W_k = (W_{k-1} (x) I_2) C_k with W_1 = I_2, and ``factors[k - 2]`` =
    (src0, coef0, src1, coef1) holds C_k, k = 2..n, as four read-only arrays of
    length 2^k: on the rows where qubit k is |0>, column c of W_k is coef0[c]
    times column src0[c] of W_{k-1}; where it is |1>, coef1[c] times column
    src1[c].  An absent part has coefficient 0.0 and source 0.  ``twice_j``
    and ``column_starts`` are read-only integer arrays holding each block's
    2j and first column of W_n, in canonical block order.
    """

    n: int
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    twice_j: np.ndarray
    column_starts: np.ndarray

    @property
    def multiplicity_table(self) -> MappingProxyType:
        """Read-only {j: c_j}, j descending."""
        return _multiplicity_table(self.n)

    def columns(self, cols) -> np.ndarray:
        """W_n[:, cols] as a new column-major array, without building the rest of W_n.

        Walks the factors down from level n to the columns of each W_k that
        the requested ones are made of, then builds those level by level.
        Every entry is one coefficient times one entry of the level below, so
        the bits equal those of a dense level-by-level build of W_n.
        """
        cols = np.arange(2 ** self.n)[cols]
        plan = []
        for src0, coef0, src1, coef1 in reversed(self.factors):
            sources = np.stack([src0[cols], src1[cols]])
            place = np.zeros(len(src0) // 2, dtype=np.intp)  # of each W_{k-1} column, if needed
            place[sources] = 1
            below = np.flatnonzero(place)
            place[below] = np.arange(len(below))
            plan.append((place[sources], coef0[cols], coef1[cols]))
            cols = below
        w = np.asfortranarray(np.eye(2)[:, cols])
        for parts, coef0, coef1 in reversed(plan):
            out = np.empty((2 * len(w), len(coef0)), order="F")
            halves = out.reshape(2, len(w), len(coef0), order="F")  # (qubit k, row below, column)
            np.multiply(w[:, parts[0]], coef0, out=halves[0])
            np.multiply(w[:, parts[1]], coef1, out=halves[1])
            w = out
        w += 0.0  # -0.0 becomes +0.0, as when the dense build adds each product to a zero
        return w

    def schur_transform(self, a: np.ndarray) -> np.ndarray:
        """W_n^T a for one vector a of length 2^n: its coefficients on the |j, m, r>.

        One gather-multiply-add per level.  Level k applies C_k^T to the coupled
        index of qubits 1..k-1 and to qubit k, with qubits k+1..n riding along.
        Any other shape raises ``ValueError``.
        """
        x = np.array(a)
        if x.shape != (2 ** self.n,):
            raise ValueError(f"expected a vector of length {2 ** self.n}, got shape {x.shape}")
        for src0, coef0, src1, coef1 in self.factors:
            x = x.reshape(len(coef0) // 2, 2, -1)
            x = coef0[:, None] * x[src0, 0] + coef1[:, None] * x[src1, 1]
        return x.reshape(-1)

    def block(self, j, r: int) -> np.ndarray:
        """Columns |j, m, r>, m = j..-j, of one block: a new read-only column-major array."""
        j = HalfInteger.of(j)
        start = self.column_starts[self.block_index(j, r)]
        return _readonly(self.columns(slice(start, start + j.twice + 1)))

    def sector(self, j) -> np.ndarray:
        """The columns of every block with this j: one new read-only column-major array."""
        j = HalfInteger.of(j)
        found = np.flatnonzero(self.twice_j == j.twice)  # contiguous, j descending
        if not len(found):
            raise KeyError(f"no block with j = {j}")
        start = self.column_starts[found[0]]
        return _readonly(self.columns(slice(start, start + len(found) * (j.twice + 1))))

    def block_index(self, j, r: int) -> int:
        j = HalfInteger.of(j)
        found = np.flatnonzero(self.twice_j == j.twice)
        if not _is_integer(r) or r not in range(1, len(found) + 1):
            raise KeyError(f"no block with j = {j}, r = {r}")
        return int(found[r - 1])


# Change of 2j from a coupling path to its two children, up-step first so that the
# children of paths in path order are in path order too.
_STEPS = np.array([1, -1])
# 2m of qubit k on the two rows of a factor level: +1 where it is |0>, -1 where |1>.
_TMU = _STEPS[:, None]


@lru_cache(maxsize=None, typed=True)  # a bool or float equal to a cached count must miss
def decompose(n: int) -> IrrepDecomposition:
    """Build every invariant block of the collective SU(2) action on n qubits.

    Qubits are coupled left to right with Condon-Shortley coefficients, so
    every sign is reproducible.  Only the sequential Clebsch-Gordan factors
    C_2..C_n are stored, about 2^(n+3) numbers, and every column of the
    coupling matrix is built from them on request.  The result is cached and
    immutable.

    Each level k is a fixed few dozen numpy calls over arrays of its paths and
    its 2^k columns: a stable sort on -2j and a running sum of the block widths
    place the children of the level below, and the closed-form spin-1/2
    coefficients of every column come from the same float operations as the
    per-column loop in tests/dense_coupling_oracle.py (an int-to-float division,
    a square root and a sign multiplied in), so the factors equal that loop's
    bit for bit.  A cold ``decompose(12)`` takes 1.2-2.1 ms against 10-16 ms
    for the loop (2 cores); at n = 2..4, where a level has at most 16 columns,
    the loop was 3-4 times faster, 15-60 against 60-170 us.
    """
    _check_qubit_count(n)
    factors = []
    path_tj, path_start = np.array([1]), np.array([0])  # 2j, first column; in path order
    new_tj, first = path_tj, path_start  # in canonical order: at n = 1, the one block
    for k in range(2, n + 1):
        child = (path_tj[:, None] + _STEPS).ravel()
        keep = child >= 0  # no down-step from 2j = 0
        child = child[keep]
        # the children's blocks: 2j descending, path order within one 2j (the sort is stable)
        order = (-child).argsort(kind="stable")
        parent = keep.nonzero()[0][order] >> 1
        # of each new block in column order: its 2j, and its parent's 2j and first column
        new_tj, tj, start = child[order], path_tj[parent], path_start[parent]
        width = new_tj + 1
        ends = width.cumsum()
        counts = np.bincount(width, minlength=k + 2)[k + 1:0:-2]  # 2j = k, k - 2, ...
        if ends[-1] != 2 ** k or counts.tolist() != list(_multiplicity_table(k).values()):
            raise RuntimeError(f"the level-{k} blocks do not tile 2^{k} columns with c_j "
                               f"blocks of each j: {counts.tolist()} blocks by j descending")
        first = ends - width
        # every column at once, from its block's values and its 2m
        step = (new_tj - tj).repeat(width)  # +1 up, -1 down
        tj1 = (tj + 1).repeat(width)
        tm = (new_tj + 2 * first).repeat(width) - np.arange(0, 2 ** (k + 1), 2)
        tm1 = tm - _TMU  # 2m of the source column in the parent block
        present = abs(tm1) < tj1  # |tm1| <= tj
        # start + (tj - tm1) / 2, exact where present
        src = np.where(present, ((2 * start + tj).repeat(width) - tm1) >> 1, 0)
        # sqrt((tj + 1 + step tmu tm) / (2 tj + 2)), times -tmu for a down-step: only a
        # down-step's |0> part is negative
        coef = np.sqrt((tj1 + _TMU * (step * tm)) / (2 * tj1))
        coef[0] *= step
        coef = np.where(present, coef, 0.0)
        src, coef = _readonly(src), _readonly(coef)
        factors.append((src[0], coef[0], src[1], coef[1]))
        path_tj, path_start = child, np.empty_like(first)
        path_start[order] = first
    return IrrepDecomposition(n=n, factors=tuple(factors), twice_j=_readonly(new_tj),
                              column_starts=_readonly(first))
