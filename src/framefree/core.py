"""Dense complex linear algebra for multi-qubit states.

Conventions used throughout the package:

* qubit 1 is the leftmost (most significant) tensor factor, so the
  computational basis state |b1 b2 .. bn> sits at integer index b1b2..bn
  read in binary;
* everything is double precision; wrapper types check their defining
  invariants at construction time and hold read-only arrays, so values can
  be shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from numbers import Real

import numpy as np

ATOL = 1e-10

# Size limits, in qubits, from what the largest allowed call costs (2 Xeon cores, Python 3.11.7,
# numpy 2.4.6).  At n = 12 the bound is the dense 2^n x 2^n complex matrices: every twirl channel
# takes and returns one, and collective_rotation builds one, 256 MiB each (1 GiB at n = 13): that
# build takes 81-82 ms with a 257.5 MiB traced peak (best of 5, three processes).  Next
# come the W_k an SU(2) twirl channel keeps, one float64 copy: 21.6 MB in all, built in
# 72-103 ms (best of 5, three processes) with a 68.1 MB traced peak; the flat positions of the
# weight blocks, cached once per dimension, take 21.6 MB more.
# full_su2(12).apply(maximally_mixed(4096)) takes 0.69-0.87 s on a cold channel (its W_k built)
# and 0.52-0.72 s warm (three processes of five calls; 0.89-1.07 and 0.63-0.89 s with complex
# W_k), with a 791 MB traced peak over the input's build and the six calls, and 821 MB peak RSS.
# decompose(12) is not a bound: a cold build takes 0.4-0.8 ms (0.76 MiB traced peak) and
# keeps 256 KiB of factors.  Nor are the codes: classical --n 12 --trials 1, one trial of each
# of 924 messages from a cold decompose, takes 0.93-0.99 s with an 88.3 MiB traced peak and
# 123 MiB max RSS (three processes).
MAX_QUBITS = 12
MAX_RATE_QUBITS = 64  # rates are integer combinatorics, cheap at any n; this caps the table length
# twirl-check --n 8 --trials 20 takes 0.54-0.73 s (five runs), two thirds of it random_density:
# per input, 2.4 ms of draws, 1.5 ms for g g^dag and 4.0 ms for the DensityOperator check, 1.6 ms
# of it one 2^n x 2^n Cholesky.  Twirled states are checked by their weight blocks, and the 42
# trace distances, on j sectors and weight blocks, take 13 ms of 0.60 s under cProfile.
MAX_TWIRL_CHECK_QUBITS = 8
# The one batch size, in entries (1 MiB of complex128): _haar_rotation_chunks draws 256 powers
# a batch at n = 4, 16 at n = 6 and one from n = 8, and _tensor_powers builds levels whole up to
# it, then, for the one power a batch from n = 9, in runs of head rows whose scratch and stretch
# of the result stay in the 2 MiB L2: one power at n = 10 took 2.8-3.0 ms against 3.7-4.0 whole
# (best of 5), and 2^13, 2^14, 2^15 or 2^17 no less.
# Against 64-trial Bell and 1M-entry Monte Carlo batches (best of 7, 2 cores), bell took 22.6-23.2
# against 23.8-24.7 us a trial, 4.54 against 2.40 MiB traced over ten batches, and the twirl at
# n = 4/6/8 13.1-14.6 us/216-234 us/6.0-6.4 ms against 8.8-10.9 us/170-184 us/4.7-5.1 ms a sample
# (glibc faults each batch's arrays in afresh), 4.0/5.1/7.1 against 32.8/61.1/77.0 MiB traced.
_TENSOR_CHUNK_ENTRIES = 2 ** 16
# Smallest dimension at which _from_weight_stacks keeps the Hamming-weight blocks it is built
# from, and a full SU(2) twirl output its j sectors; blocks are never found in a matrix, which is
# always checked dense.  Building and checking a twirled SU(2) state from its block stacks and
# sectors took 71-77 us against 34-36 us dense at dimension 32, and 99-104 against 127-135 us at
# 64; a trace distance between two such states then took 36-37 us on the sectors against
# 54-55 us dense at 32, and 54-55 against 267-275 us at 64 (best of five timings of 300 calls,
# two runs, 2 cores).  Build and distance together: 108-113 against 89-90 us at 32, 153-159
# against 402 us at 64.
_BLOCK_MIN_DIM = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_integer(value) -> bool:
    """The library's one integer rule: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The library's one real-number rule: a Python or numpy real number, not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_qubit_count(n: int, high: int | None = MAX_QUBITS, low: int = 1) -> None:
    """The library's one ``ValueError`` for a qubit count: an integer in low..high
    (high None: no cap)."""
    if not _is_integer(n) or n < low or (high is not None and n > high):
        span = f"in {low}..{high}" if high is not None else f"at least {low}"
        raise ValueError(f"qubit count must be {span}, got {n}")


def _check_count(count: int, what: str) -> None:
    """The library's one ``ValueError`` for a trial or sample count: an integer >= 1."""
    if not _is_integer(count) or count < 1:
        raise ValueError(f"{what} must be a positive integer, got {count!r}")


def _qubit_count(dim: int) -> int:
    """The n with dim = 2^n, n >= 1, for an int dim; anything else raises ``ValueError``."""
    n = int(dim).bit_length() - 1 if _is_integer(dim) else 0
    if n < 1 or dim != 2 ** n:
        raise ValueError(f"dimension {dim} is not a qubit count's 2^n")
    return n


def _as_complex_array(values, ndim: int, finite: bool = True) -> np.ndarray:
    """A complex copy with ``ndim`` axes; with ``finite``, also no NaN or infinite entry."""
    a = np.array(values, dtype=complex)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {a.shape}")
    if finite and not np.all(np.isfinite(a)):
        raise ValueError("array has non-finite entries")
    return a


def _checked_distribution(probabilities) -> np.ndarray:
    """The library's one probability-vector check: ``ValueError`` unless 1-D, non-empty, every
    entry >= 0 and the sum within ATOL of 1 (NaN fails).  Returns it divided by its sum."""
    p = np.asarray(probabilities, dtype=float)
    lowest, total = (p.min(), p.sum()) if p.ndim == 1 and p.size else (np.nan, np.nan)
    if not (lowest >= 0.0 and abs(total - 1.0) <= ATOL):
        raise ValueError(f"not a probability vector: shape {p.shape}, min {lowest}, sum {total}")
    return p / total


class RandomSource:
    """Deterministic stream of randomness backed by a counter-based generator.

    The same seed always reproduces the same stream.  ``split`` derives
    independent child sources keyed by index, which is how concurrent
    workers are expected to obtain their own streams.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        if not all(_is_integer(k) and k >= 0 for k in (seed, *spawn_key)):
            raise ValueError(f"seed and spawn key must be nonnegative integers, "
                             f"got {seed!r} and {spawn_key!r}")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def split(self, children: int) -> list["RandomSource"]:
        """Derive ``children`` independent sources; child i is reproducible."""
        _check_count(children, "child count")
        return [RandomSource(self.seed, self.spawn_key + (i,)) for i in range(children)]

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def sample_index(self, probabilities) -> int:
        """One index drawn from a vector that ``_checked_distribution`` accepts."""
        p = _checked_distribution(probabilities)
        return int(self.generator.choice(len(p), p=p))

    def sample_counts(self, probabilities, trials: int) -> np.ndarray:
        """Each index's count over ``trials`` draws: one multinomial call at any trial count."""
        _check_count(trials, "trial count")
        return self.generator.multinomial(trials, _checked_distribution(probabilities))

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"


def _check_su2(matrices: np.ndarray) -> None:
    """The library's one SU(2) check, on a 2x2 matrix or a (k, 2, 2) stack of them.

    Raises ``ValueError`` unless every matrix is unitary and has determinant 1,
    each to ATOL; a NaN entry fails both.
    """
    gram = matrices @ matrices.conj().swapaxes(-1, -2)
    if not np.abs(gram - np.eye(2)).max() <= ATOL:
        raise ValueError("matrix is not unitary")
    if not abs(np.linalg.det(matrices) - 1.0).max() <= ATOL:
        raise ValueError("determinant is not 1")


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A 2x2 special-unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.matrix, 2)
        if m.shape != (2, 2):
            raise ValueError(f"group element must be 2x2, got {m.shape}")
        _check_su2(m)
        object.__setattr__(self, "matrix", _readonly(m))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(np.eye(2))


def haar_random_su2_batch(rng: RandomSource, size: int) -> np.ndarray:
    """Vectorized Haar sampling on SU(2); returns an array of shape (size, 2, 2).

    A uniformly random unit quaternion (w, x, y, z) is mapped to
    w*I + i*(x*sx + y*sy + z*sz), which is exactly Haar distributed.
    """
    q = rng.normal((size, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1)[:, None]).T
    out = np.empty((size, 2, 2), dtype=complex)
    out[:, 0, 0] = w + 1j * z
    out[:, 0, 1] = y + 1j * x
    out[:, 1, 0] = -y + 1j * x
    out[:, 1, 1] = w - 1j * z
    return out


def haar_random_su2(rng: RandomSource) -> GroupElement:
    """Draw one SU(2) element from the Haar measure."""
    return GroupElement(haar_random_su2_batch(rng, 1)[0])


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state on a finite-dimensional space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _as_complex_array(self.amplitudes, 1)
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", _readonly(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def normalized(values) -> "StateVector":
        a = _as_complex_array(values, 1)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(a / norm)

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        if not _is_integer(index) or index not in range(dim):
            raise ValueError(f"basis index must be an integer in 0..{dim - 1}, got {index!r}")
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return StateVector(a)

    @staticmethod
    def from_bits(bits: str) -> "StateVector":
        """Computational basis state from a bit string, qubit 1 leftmost."""
        return StateVector.basis(2 ** len(bits), int(bits, 2))

    def evolve(self, unitary) -> "StateVector":
        return StateVector(np.asarray(unitary) @ self.amplitudes)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def expectation(self, operator) -> complex:
        return complex(np.vdot(self.amplitudes, np.asarray(operator) @ self.amplitudes))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@lru_cache(maxsize=None, typed=True)  # a float equal to a cached dimension must miss
def weight_indices(dim: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each Hamming weight k = 0..n of the n qubits with dim = 2^n.

    Weight k holds the states with total m = n/2 - k, so an operator that
    commutes with the collective J_z is block diagonal in these index sets.
    """
    n = _qubit_count(dim)
    weights = np.bitwise_count(np.arange(dim, dtype=np.uint64))
    return tuple(_readonly(np.flatnonzero(weights == k)) for k in range(n + 1))


def _in_stacks(per_weight) -> list[list]:
    """Per-weight items, weight 0 first, in stacks of equal block shape: weights k and n - k
    for k < n/2, then n/2 alone for even n.  C(n, k) = C(n, n - k): the collective spin flip
    maps one weight onto the other."""
    n = len(per_weight) - 1
    return [[per_weight[k], per_weight[n - k]][:1 + (2 * k < n)] for k in range(n // 2 + 1)]


def _by_weight(stacks) -> list:
    """The inverse of ``_in_stacks``: item 0 of stack k is weight k, item 1 weight n - k."""
    return [s[0] for s in stacks] + [s[1] for s in reversed(stacks) if len(s) == 2]


@lru_cache(maxsize=None, typed=True)
def _weight_stacks(dim: int) -> tuple[np.ndarray, ...]:
    """The Hamming-weight blocks of a dim x dim matrix as flat positions, stacked by
    ``_in_stacks``: read-only (s, C(n, k), C(n, k)) arrays rows[:, :, None] * dim +
    rows[:, None, :], for the (s, C(n, k)) stack of ``weight_indices(dim)`` rows."""
    return tuple(_readonly(rows[:, :, None] * dim + rows[:, None, :])
                 for rows in map(np.stack, _in_stacks(weight_indices(dim))))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace operator.

    ``DensityOperator(matrix)`` checks the matrix as one dense matrix and
    keeps no ``blocks`` and no ``sectors``.  Blocks are built, never found: a
    state of dimension 2^n >= ``_BLOCK_MIN_DIM`` made by ``_from_weight_stacks``
    (each twirl output) or ``_from_weight_blocks`` (``maximally_mixed``) keeps
    its Hamming-weight blocks (``weight_indices``) as read-only stacks of
    equal shape, weights k and n - k together (``_in_stacks``), and
    ``blocks`` is the tuple of per-weight views into them, weight 0 first;
    no other field holds the stacks.  Its Hermitian and positivity checks run
    once per stack and read only those blocks, which have the same largest
    |m - m^dag| entry and, together, the same spectrum.  A non-finite entry makes m - m^dag
    non-finite, so the Hermitian check rejects it too, and names it; with no
    separate finiteness pass, a dense 16 x 16 check took 22.0 against 25.8 us
    and a 256 x 256 one 4.14 against 4.23 ms (medians of 150 alternating
    rounds in one process, 2 cores).
    Positivity is a Cholesky factorisation of each part plus ATOL * 1: it
    succeeds exactly when the lowest eigenvalue is above -ATOL, up to rounding
    of order dim * eps * |m|.

    A full SU(2) twirl output of that size also keeps its j sectors as
    ``sectors``: one (2j+1, Q_j) pair per j, j descending, with the matrix
    W (+)_j (Q_j (x) 1_{2j+1}) W^T up to rounding.  Each c_j x c_j Q_j is a read-only view of
    one copy of Q = (+)_j Q_j; Q is checked Hermitian, and its carrier-weighted trace against
    tr m, both to ATOL.  Only ``trace_distance`` reads them.
    """

    matrix: np.ndarray
    blocks: tuple[np.ndarray, ...] | None = field(init=False, repr=False)
    sectors: tuple[tuple[int, np.ndarray], ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_complex_array(self.matrix, 2, finite=False)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got {m.shape}")
        self._keep_checked(m, None, None)

    def _keep_checked(self, m: np.ndarray, stacks: tuple[np.ndarray, ...] | None,
                      multiplicity: tuple[np.ndarray, np.ndarray] | None) -> None:
        """Check the square m, reading only its read-only block stacks when given, and the
        read-only Q with its carriers when given; keep m, the blocks and Q's j sectors."""
        parts = (m,) if stacks is None else stacks
        for p in parts if multiplicity is None else (*parts, multiplicity[0]):
            if not np.abs(p - p.conj().mT).max() <= ATOL:  # a non-finite entry fails too
                raise ValueError("matrix is not Hermitian" if np.isfinite(p).all()
                                 else "array has non-finite entries")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace {tr} is not 1")
        sectors = None
        if multiplicity is not None:
            q, carriers = multiplicity
            weighted = carriers @ q.diagonal()
            if abs(weighted - tr) > ATOL:
                raise ValueError(f"sector trace {weighted} is not the trace {tr}")
            edges = [0, *(np.flatnonzero(np.diff(carriers)) + 1), len(carriers)]
            sectors = tuple((int(carriers[a]), q[a:b, a:b]) for a, b in zip(edges, edges[1:]))
        try:
            for p in parts:
                shifted = p.copy()  # p + ATOL * 1, without building 1
                shifted.reshape(*p.shape[:-2], -1)[..., ::p.shape[-1] + 1] += ATOL
                np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("matrix has a negative eigenvalue") from None
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "blocks", None if stacks is None else tuple(_by_weight(stacks)))
        object.__setattr__(self, "sectors", sectors)

    @staticmethod
    def _from_weight_stacks(stacks, multiplicity=None) -> "DensityOperator":
        """The operator with these Hamming-weight blocks, stacked as ``_weight_stacks`` stacks
        their positions, and zeros elsewhere.

        The matrix is built by one flat assignment of each stack into zeros, and the
        stacks kept are copies of the same arrays, so the two always agree.
        ``multiplicity``, an SU(2) output's Q = (+)_j Q_j and each block's 2j+1, is copied
        once, read-only, and checked; the Q_j are kept as views cut at the runs of equal
        carriers.  Below ``_BLOCK_MIN_DIM`` this is ``DensityOperator(matrix)``, which keeps
        neither and never reads Q.
        """
        dim = sum(s.shape[0] * s.shape[1] for s in stacks)
        m = np.zeros((dim, dim), dtype=complex)
        flat = m.reshape(-1)
        for positions, s in zip(_weight_stacks(dim), stacks, strict=True):
            flat[positions] = s
        if dim < _BLOCK_MIN_DIM:
            return DensityOperator(m)
        if multiplicity is not None:
            q = _readonly(_as_complex_array(multiplicity[0], 2, finite=False))
            multiplicity = q, multiplicity[1]
        rho = object.__new__(DensityOperator)
        rho._keep_checked(m, tuple(_readonly(_as_complex_array(s, 3, finite=False))
                                   for s in stacks), multiplicity)
        return rho

    @staticmethod
    def _from_weight_blocks(blocks, multiplicity=None) -> "DensityOperator":
        """``_from_weight_stacks`` of per-weight blocks, weight 0 first."""
        n = len(blocks) - 1
        shapes = [np.shape(b) for b in blocks]
        if n < 1 or shapes != [(comb(n, k),) * 2 for k in range(n + 1)]:
            raise ValueError(f"blocks of shapes {shapes} are not the Hamming-weight blocks "
                             f"of n >= 1 qubits")
        return DensityOperator._from_weight_stacks([np.stack(s) for s in _in_stacks(blocks)],
                                                   multiplicity)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityOperator":
        """1/dim for dim = 2^n, n >= 1, built from its identity weight blocks."""
        return DensityOperator._from_weight_blocks([np.eye(len(rows)) / dim
                                                    for rows in weight_indices(dim)])

    def evolve(self, unitary) -> "DensityOperator":
        u = np.asarray(unitary)
        return DensityOperator(u @ self.matrix @ u.conj().T)


def _tensor_powers(matrices: np.ndarray, n: int) -> np.ndarray:
    """u (x) u (x) ... (x) u, n factors, for each u of a (k, 2, 2) stack: shape (k, 2^n, 2^n).

    Each level writes the four products out * u[i, j] into the strided
    quarters of the next level: the same products as ``np.kron``, so the same
    bits, but each multiply runs over whole rows where kron's broadcast runs
    two elements at a time.

    Levels are built whole while the stack holds at most
    ``_TENSOR_CHUNK_ENTRIES`` entries.  Built whole past that, each level
    would go out to memory and be read back four times to write the next
    (at n = 10, the 4 MiB level 9 for the 16 MiB result).  But row a of the
    head level alone fixes rows a 2^t .. (a + 1) 2^t - 1 of the level t
    further on.  So the remaining levels run on one run of head rows of the
    whole stack at a time, in scratch arrays that stay in cache, and the last
    level writes the run's stretch of the result, at most that many entries,
    in place.  The one batch size (``_powers_per_stack``) holds every stack
    that reaches the runs to one power, from n = 9, so its stretch is
    contiguous.  Each entry is the same product of the same operands as in a
    whole-level build, so the bits are the same; only the order in which rows
    are visited changes.
    """
    k = len(matrices)
    out = np.array(matrices, dtype=complex)
    factors = [(i, j, matrices[:, i, j, None, None]) for i in range(2) for j in range(2)]

    def grow(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The next level of src, (k, r, d), in dst, (k, r, 2, d, 2)."""
        for i, j, factor in factors:
            np.multiply(src, factor, out=dst[:, :, i, :, j])
        return dst.reshape(k, 2 * src.shape[1], 2 * src.shape[2])

    head = 1
    while head < n and k * 4 ** (head + 1) <= _TENSOR_CHUNK_ENTRIES:
        d = 2 ** head
        out = grow(out, np.empty((k, d, 2, d, 2), dtype=complex))
        head += 1
    if head == n:
        return out
    d = 2 ** (n - 1)
    result = np.empty((k, d, 2, d, 2), dtype=complex)
    span = 2 ** (n - 1 - head)  # rows of level n - 1 that one head row fixes
    rows = min(2 ** head, max(1, _TENSOR_CHUNK_ENTRIES // (k << (2 * n - head))))
    scratch = [np.empty((k, rows << (level - head), 2, 2 ** level, 2), dtype=complex)
               for level in range(head, n - 1)]
    for start in range(0, 2 ** head, rows):
        part = out[:, start:start + rows]
        for buf in scratch:
            part = grow(part, buf[:, :part.shape[1]])
        grow(part, result[:, start * span:start * span + part.shape[1]])
    return result.reshape(k, 2 * d, 2 * d)


def _powers_per_stack(n: int) -> int:
    """The one batch size: n-fold powers in ``_TENSOR_CHUNK_ENTRIES`` entries, at least one."""
    return max(1, _TENSOR_CHUNK_ENTRIES // 4 ** n)


def _haar_rotation_chunks(rng: RandomSource, draws: int, n: int):
    """The library's one producer of Haar rotations: ``draws`` draws, ``_powers_per_stack(n)``
    a batch (the stream read as by single draws), each checked SU(2) and yielded as its
    ``_tensor_powers`` stack, (k, 2^n, 2^n): built whole up to n = 8, and from n = 9 one power
    built in parts, as ``collective_rotation`` builds it."""
    batch = _powers_per_stack(n)
    for start in range(0, draws, batch):
        gs = haar_random_su2_batch(rng, min(batch, draws - start))
        _check_su2(gs)
        yield _tensor_powers(gs, n)


def collective_rotation(g: GroupElement, n: int) -> np.ndarray:
    """The n-fold tensor power g (x) g (x) ... (x) g applied to n qubits.

    The k = 1 case of ``_tensor_powers``.  States are rotated by
    ``apply_collective_rotation``, which builds no matrix.
    """
    _check_qubit_count(n)
    return _tensor_powers(g.matrix[None], n)[0]


def apply_collective_rotation(g: GroupElement, state: StateVector) -> StateVector:
    """The state g (x) ... (x) g |state>, in O(n 2^n) work and no 2^n x 2^n array.

    Each step applies g to the leading qubit and moves that qubit to the
    back, so after n steps every qubit is rotated once and the original
    order is restored.
    """
    a = state.amplitudes
    for _ in range(_qubit_count(state.dim)):
        a = (g.matrix @ a.reshape(2, -1)).T.reshape(-1)
    return StateVector(a)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, unclipped: it may round past 1.

    For a pure sigma = |psi><psi| this reduces to <psi|rho|psi>.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    root = _psd_sqrt(rho.matrix)
    w = np.linalg.eigvalsh(root @ sigma.matrix @ root)
    # eigenvalues below the solver's noise floor would be inflated by the
    # square root; they carry no information, so drop them
    w[w < rho.dim * np.finfo(float).eps * max(w.max(), 0.0)] = 0.0
    return float(np.sqrt(w).sum() ** 2)


def _trace_norm_of_difference(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_1 of two Hermitian matrices.  Equal ones give 0 with no ``eigvalsh``: the
    difference is then exactly zero, whose eigenvalues LAPACK returns as exact zeros."""
    if np.array_equal(a, b):
        return 0.0
    return np.abs(np.linalg.eigvalsh(a - b)).sum()


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma, unclipped.

    The first of three paths that both states allow, each decomposing no
    dim x dim matrix unless it is the last:

    * Both keep ``sectors`` (full SU(2) twirl outputs): 1/2 sum_j (2j+1)
      ||Q_j - Q'_j||_1.  Proof: both matrices are W D W^T and W D' W^T with
      the same real orthogonal W, ``decompose``'s coupling matrix, whose
      columns |j, m, r> run j descending, then r, then m; so
      D = (+)_j Q_j (x) 1_{2j+1}.  Then rho - sigma = W (D - D') W^T has the
      spectrum of D - D', and that is the spectrum of each Q_j - Q'_j
      repeated 2j+1 times, as A (x) 1_d has the eigenvalues of A, each d
      times.  The stored matrices equal W D W^T up to rounding, so the two
      values agree to order dim * eps.
    * Both keep ``blocks`` (twirl outputs and ``maximally_mixed``): the
      difference is block diagonal in Hamming weight, so the distance is
      1/2 sum_k ||B_k - B'_k||_1, read one weight block at a time and added
      weight 0 first.
    * Otherwise, the dense ``eigvalsh`` of rho - sigma.

    Each path sums its weighted parts through ``_trace_norm_of_difference``,
    so a pair of equal parts adds exactly 0 without being decomposed.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if rho.sectors is not None and sigma.sectors is not None:
        parts = [(carrier, q, p) for (carrier, q), (_, p)
                 in zip(rho.sectors, sigma.sectors, strict=True)]
    elif rho.blocks is not None and sigma.blocks is not None:
        parts = [(1, a, b) for a, b in zip(rho.blocks, sigma.blocks, strict=True)]
    else:
        parts = [(1, rho.matrix, sigma.matrix)]
    return 0.5 * float(sum(weight * _trace_norm_of_difference(a, b) for weight, a, b in parts))


def random_state_vector(rng: RandomSource, dim: int) -> StateVector:
    """Haar-random pure state (complex Gaussian vector, normalized)."""
    return StateVector.normalized(rng.normal(dim) + 1j * rng.normal(dim))


def random_density(rng: RandomSource, dim: int) -> DensityOperator:
    """Random full-rank mixed state from the Ginibre ensemble.

    It has no zero entry, so its check is dense: one dim x dim Cholesky.
    """
    g = rng.normal((dim, dim)) + 1j * rng.normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
