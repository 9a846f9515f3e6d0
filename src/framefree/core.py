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

import numpy as np

ATOL = 1e-10

# Size limits, in qubits.  Each follows from what the largest allowed call costs.
# At n = 12 the bound is the dense 2^n x 2^n complex matrices: every twirl channel
# takes and returns one, and collective_rotation builds one, 256 MiB each (1 GiB at
# n = 13).  Next come the W_k that an SU(2) twirl channel keeps: 21.6 MB in all,
# built in 0.13-0.20 s with a 57.8 MB traced peak.  decompose(12) is not a bound:
# a cold build takes 1.2-2.1 ms (0.7 MB traced peak) and keeps 256 KB of factors.
MAX_QUBITS = 12
# O(n 2^n) per trial and message, binom(n, n/2) messages: one trial of every
# message takes 0.16-0.18 s at n = 10.
MAX_CODEBOOK_QUBITS = 10
MAX_RATE_QUBITS = 64  # rates are integer combinatorics, cheap at any n; this caps the table length
# 1.07-1.17 s per 20 states at n = 8, about two thirds of it random_density's own
# check: one 2^n x 2^n eigvalsh per input; twirled states are checked on weight blocks.
MAX_TWIRL_CHECK_QUBITS = 8
# Trials per batch of logical_bell_chsh_trials.  Over 2000 trials the median cost was
# 24-25 us per trial for chunks of 32 to 128 and 31 us at 250 (2 cores); the traced
# peak grows by about 37 KB per trial of a chunk, 2.5 MB at 64, whatever the trial count.
_BELL_CHUNK_TRIALS = 64
# Smallest dimension at which DensityOperator looks for Hamming-weight blocks.  Building
# and checking a twirled state took 145-199 us from its blocks against 122-124 us dense
# at dimension 32, and 250-313 against 472-532 us at 64 (best of 5, 2 cores).
_BLOCK_MIN_DIM = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_qubit_count(n: int, high: int | None = MAX_QUBITS, low: int = 1) -> None:
    """The library's one ``ValueError`` for a qubit count outside low..high (None: no cap)."""
    if n < low or (high is not None and n > high):
        span = f"in {low}..{high}" if high is not None else f"at least {low}"
        raise ValueError(f"qubit count must be {span}, got {n}")


def _qubit_count(dim: int) -> int:
    """The n with dim = 2^n, n >= 1; anything else raises ``ValueError``."""
    n = dim.bit_length() - 1
    if n < 1 or dim != 2 ** n:
        raise ValueError(f"dimension {dim} is not a qubit count's 2^n")
    return n


def _as_complex_array(values, ndim: int) -> np.ndarray:
    a = np.array(values, dtype=complex)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("array has non-finite entries")
    return a


def _checked_distribution(probabilities) -> np.ndarray:
    """The library's one probability-vector check: ``ValueError`` unless every entry is
    >= -ATOL and the sum is within ATOL of 1 (NaN fails).  Returns it clipped at 0, summing to 1."""
    p = np.asarray(probabilities, dtype=float)
    lowest, total = p.min(), p.sum()
    if not (lowest >= -ATOL and abs(total - 1.0) <= ATOL):
        raise ValueError(f"not a probability vector: min {lowest}, sum {total}")
    if lowest < 0.0:  # clipping a nonnegative vector would change nothing
        p = np.clip(p, 0.0, None)
        total = p.sum()
    return p / total


class RandomSource:
    """Deterministic stream of randomness backed by a counter-based generator.

    The same seed always reproduces the same stream.  ``split`` derives
    independent child sources keyed by index, which is how concurrent
    workers are expected to obtain their own streams.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def split(self, children: int) -> list["RandomSource"]:
        """Derive ``children`` independent sources; child i is reproducible."""
        return [RandomSource(self.seed, self.spawn_key + (i,)) for i in range(children)]

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def sample_index(self, probabilities) -> int:
        """One index drawn from a vector that ``_checked_distribution`` accepts."""
        p = _checked_distribution(probabilities)
        return int(self.generator.choice(len(p), p=p))

    def sample_counts(self, probabilities, trials: int) -> np.ndarray:
        """Each index's count over ``trials`` draws: one multinomial call at any trial count."""
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


@lru_cache(maxsize=None)
def weight_indices(dim: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each Hamming weight k = 0..n of the n qubits with dim = 2^n.

    Weight k holds the states with total m = n/2 - k, so an operator that
    commutes with the collective J_z is block diagonal in these index sets.
    """
    weights = np.bitwise_count(np.arange(dim, dtype=np.uint64))
    return tuple(_readonly(np.flatnonzero(weights == k)) for k in range(_qubit_count(dim) + 1))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace operator.

    A matrix of dimension 2^n >= ``_BLOCK_MIN_DIM`` whose entries outside its
    Hamming-weight blocks (``weight_indices``) are all exactly 0 keeps those
    blocks, read-only and weight 0 first, as ``blocks`` (otherwise None).  The
    Hermitian and positivity checks then read only the blocks, which have the
    same largest |m - m^dag| entry and, together, the same spectrum.
    """

    matrix: np.ndarray
    blocks: tuple[np.ndarray, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_complex_array(self.matrix, 2)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got {m.shape}")
        blocks = _weight_blocks(m)
        parts = (m,) if blocks is None else blocks
        if max(np.abs(p - p.conj().T).max() for p in parts) > ATOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace {tr} is not 1")
        if min(np.linalg.eigvalsh(p).min() for p in parts) < -ATOL:
            raise ValueError("matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityOperator":
        return DensityOperator(np.eye(dim) / dim)

    def evolve(self, unitary) -> "DensityOperator":
        u = np.asarray(unitary)
        return DensityOperator(u @ self.matrix @ u.conj().T)


def _weight_blocks(m: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The diagonal Hamming-weight blocks of m, or None if it has other nonzero entries."""
    dim = len(m)
    if dim < _BLOCK_MIN_DIM or dim & (dim - 1) or m[0, -1]:  # weights 0 and n couple
        return None
    blocks = tuple(_readonly(m[rows[:, None], rows]) for rows in weight_indices(dim))
    return blocks if np.count_nonzero(m) == sum(np.count_nonzero(b) for b in blocks) else None


def _tensor_powers(matrices: np.ndarray, n: int) -> np.ndarray:
    """u (x) u (x) ... (x) u, n factors, for each u of a (k, 2, 2) stack: shape (k, 2^n, 2^n).

    Each level writes the four products out * u[i, j] into the strided
    quarters of the next level: the same products as ``np.kron``, so the same
    bits, but each multiply runs over whole rows where kron's broadcast runs
    two elements at a time.
    """
    out = np.array(matrices, dtype=complex)
    factors = [(i, j, matrices[:, i, j, None, None]) for i in range(2) for j in range(2)]
    for _ in range(n - 1):
        k, d = out.shape[:2]
        nxt = np.empty((k, d, 2, d, 2), dtype=complex)
        for i, j, factor in factors:
            np.multiply(out, factor, out=nxt[:, :, i, :, j])
        out = nxt.reshape(k, 2 * d, 2 * d)
    return out


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


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma, unclipped.

    When both carry blocks, the difference is block diagonal in Hamming
    weight, so the distance is 1/2 sum_k ||B_k - B'_k||_1 and no dim x dim
    matrix is decomposed.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if rho.blocks is not None and sigma.blocks is not None:
        total = sum(np.abs(np.linalg.eigvalsh(b - c)).sum()
                    for b, c in zip(rho.blocks, sigma.blocks, strict=True))
    else:
        total = np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum()
    return 0.5 * float(total)


def random_state_vector(rng: RandomSource, dim: int) -> StateVector:
    """Haar-random pure state (complex Gaussian vector, normalized)."""
    return StateVector.normalized(rng.normal(dim) + 1j * rng.normal(dim))


def random_density(rng: RandomSource, dim: int) -> DensityOperator:
    """Random full-rank mixed state from the Ginibre ensemble."""
    g = rng.normal((dim, dim)) + 1j * rng.normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
