"""Messaging and logical-qubit codes that survive frame averaging.

Classical messages ride one per invariant block: the sender picks the
highest-weight state of each block, the receiver measures the block PVM,
and the unknown collective rotation cannot move probability between
blocks.  Quantum information rides in spaces the averaging never touches:
the j=0 sector of four qubits (a decoherence-free subspace), the
multiplicity space of the most-repeated irrep (a noiseless subsystem), or
a single total-m sector when only dephasing acts.  Exchange operators
commute with every collective rotation and act inside the logical space,
which is what makes logical measurements, and a CHSH violation, possible
without any shared frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, log2, sqrt

import numpy as np

from .core import (ATOL, DensityOperator, GroupElement, MAX_RATE_QUBITS, RandomSource,
                   StateVector, _check_count, _check_qubit_count, _haar_rotation_chunks,
                   _is_integer, _qubit_count, _readonly, apply_collective_rotation,
                   trace_distance, weight_indices)
from .irreps import (HalfInteger, IrrepDecomposition, _multiplicity_table, decompose,
                     total_irrep_count)


@dataclass(frozen=True)
class Message:
    """A classical message index."""

    index: int

    def __post_init__(self):
        if not _is_integer(self.index) or self.index < 0:
            raise ValueError(f"message index must be nonnegative, got {self.index}")


@dataclass(frozen=True, eq=False)
class CodeBookEntry:
    message: Message
    codeword: StateVector
    j: HalfInteger
    r: int


@dataclass(frozen=True, eq=False)
class CodeBook:
    """One codeword per irrep block, indexed by message."""

    entries: tuple[CodeBookEntry, ...]
    decomposition: IrrepDecomposition

    @property
    def n(self) -> int:
        return self.decomposition.n


def build_classical_codebook(n: int) -> CodeBook:
    """Codebook with the highest-weight state |j, m=j, r> of every block.

    Message i rides on block i of the canonical order (j descending, then
    path order): the block the receiver's measurement lands in is the message.
    """
    _check_qubit_count(n)
    d = decompose(n)
    labels = [(j, r) for j, count in d.multiplicity_table.items() for r in range(1, count + 1)]
    codewords = d.columns(d.column_starts).T  # first column of every block
    entries = tuple(CodeBookEntry(Message(i), StateVector(codeword), j, r)
                    for i, ((j, r), codeword) in enumerate(zip(labels, codewords)))
    return CodeBook(entries=entries, decomposition=d)


def block_outcome_probabilities(state: StateVector,
                                decomposition: IrrepDecomposition) -> np.ndarray:
    """Exact block-PVM outcome distribution, in canonical block order.

    ``schur_transform`` gives every coupled-basis coefficient in one
    gather-multiply-add per qubit, O(n 2^n) work, without the 2^n x 2^n
    coupling matrix; the squared moduli summed over each block's columns are
    its probability.
    """
    coefficients = decomposition.schur_transform(state.amplitudes)
    probabilities = np.square(coefficients.real) + np.square(coefficients.imag)
    return np.add.reduceat(probabilities, decomposition.column_starts)


def classical_round_trip(msg: Message, codebook: CodeBook, g: GroupElement,
                         rng: RandomSource) -> Message:
    """Send one codeword through an unknown frame rotation and decode it."""
    entry = codebook.entries[msg.index]  # IndexError past the end
    return Message(classical_trial(entry.codeword, codebook.decomposition, g, rng)[0])


def classical_trial(codeword: StateVector, decomposition: IrrepDecomposition, g: GroupElement,
                    rng: RandomSource) -> tuple[int, np.ndarray]:
    """One round trip: the decoded block index and the block probabilities it was drawn from.

    PVM outcome probabilities are computed exactly and then sampled, so
    the measurement pathway is exercised even though the distribution is a
    point mass for valid codewords.  The rotation is applied qubit by qubit,
    never as a 2^n x 2^n matrix.
    """
    rotated = apply_collective_rotation(g, codeword)
    probabilities = block_outcome_probabilities(rotated, decomposition)
    return rng.sample_index(probabilities), probabilities


def helstrom_success_probability(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Best two-hypothesis guessing probability at equal priors: 1/2 + D/2."""
    return 0.5 + 0.5 * trace_distance(rho0, rho1)


@dataclass(frozen=True, eq=False)
class LogicalEncoding:
    """A logical space carried by n physical qubits, read through one carrier trace.

    The isometry has 2^n rows.  Its columns run over (r, m) with m fastest,
    ``carrier_dim`` values of m per logical index r.  A code with a sector j
    has carrier 2j+1, and its isometry is that sector of ``decompose(n)``:
    the whole j_max sector for the noiseless subsystem, the j=0 sector with
    its two columns reversed for the 4-qubit code.  A subspace code (``j``
    None) has carrier 1, so its columns are the logical basis.  A read-only
    copy is stored in the dtype it was given: a real isometry stays real, at
    half the memory of a complex one.
    """

    isometry: np.ndarray
    j: HalfInteger | None = None  # SU(2) sector

    def __post_init__(self):
        if self.j is not None:
            object.__setattr__(self, "j", HalfInteger.of(self.j))
        v = np.asarray(self.isometry)  # a real sector is checked in real arithmetic
        if v.ndim != 2 or v.shape[1] % self.carrier_dim:
            raise ValueError(f"isometry shape {v.shape} is not (2^n, a multiple "
                             f"of {self.carrier_dim})")
        _qubit_count(v.shape[0])  # rejects a row count that is not 2^n, n >= 1
        if not np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= ATOL:  # NaN fails too
            raise ValueError("isometry columns are not orthonormal")
        object.__setattr__(self, "isometry", _readonly(np.array(v)))

    @property
    def n(self) -> int:
        return _qubit_count(len(self.isometry))

    @property
    def carrier_dim(self) -> int:
        return 1 if self.j is None else self.j.twice + 1

    @property
    def logical_dim(self) -> int:
        return self.isometry.shape[1] // self.carrier_dim


def dfs_encoding_4qubit() -> LogicalEncoding:
    """One logical qubit in the j=0 sector of four physical qubits."""
    # reversed so |0_L> = singlet x singlet and SWAP_12 = -Z_L; path order puts the triplet first
    return LogicalEncoding(isometry=decompose(4).sector(0)[:, ::-1], j=HalfInteger(0))


def most_repeated_irrep(n: int) -> tuple[HalfInteger, int]:
    """(j, multiplicity) with the largest multiplicity; ties pick the smaller j."""
    return max(reversed(_multiplicity_table(n).items()), key=lambda item: item[1])


def noiseless_subsystem_plan(n: int) -> LogicalEncoding:
    """Encode into the multiplicity space of the most-repeated irrep.

    The isometry is the whole j_max sector of the coupled basis.  Logical
    basis state r rides on |j_max, m=j_max, r>; frame averaging mixes only
    the carrier index, so the multiplicity index survives.
    """
    _check_qubit_count(n, low=2)
    j_max, _ = most_repeated_irrep(n)
    return LogicalEncoding(isometry=decompose(n).sector(j_max), j=j_max)


def dephasing_sector_encoding(n: int) -> LogicalEncoding:
    """Computational basis states of the largest total-m sector: Hamming weight n // 2.

    Collective dephasing only kills coherence between different total-m
    sectors, so any single sector is a protected code.
    """
    _check_qubit_count(n)
    rows = weight_indices(2 ** n)[n // 2]
    isometry = np.zeros((2 ** n, len(rows)))
    isometry[rows, np.arange(len(rows))] = 1.0
    return LogicalEncoding(isometry=isometry)


def encode_logical(psi: StateVector, encoding: LogicalEncoding) -> DensityOperator:
    """Embed a logical pure state into the physical space, on the m=j column of each r."""
    if psi.dim != encoding.logical_dim:
        raise ValueError(f"logical state dim {psi.dim} does not match "
                         f"encoding dim {encoding.logical_dim}")
    # np.dot, not @: on a real isometry @ rounds apart from the product on a complex
    # one, which moves the last bits of quantum's fidelities; np.dot matches it bit for bit
    return StateVector(np.dot(encoding.isometry[:, ::encoding.carrier_dim],
                              psi.amplitudes)).to_density()


class DecodingError(ValueError):
    """The physical state lies partly outside the code."""


def decode_logical(rho_phys: DensityOperator, encoding: LogicalEncoding) -> DensityOperator:
    """Invert the encoding: compress onto the code and trace out its carrier.

    Entry (r, r') of the result is sum_m <v_{r,m}| rho |v_{r',m}>, the
    multiplicity-space operator that frame averaging keeps; for a subspace
    code the carrier is trivial and this is the plain compression V^dag rho V.
    Nothing is post-selected: an in-code probability off 1 by more than ATOL raises.
    """
    if rho_phys.dim != len(encoding.isometry):
        raise ValueError(f"physical state dim {rho_phys.dim} does not match n = {encoding.n}")
    v, count, width = encoding.isometry, encoding.logical_dim, encoding.carrier_dim
    inside = (v.conj().T @ rho_phys.matrix @ v).reshape(count, width, count, width)
    reduced = np.trace(inside, axis1=1, axis2=3)
    probability = float(np.trace(reduced).real)
    if abs(probability - 1.0) > ATOL:
        raise DecodingError(f"in-code probability {probability} is not 1")
    return DensityOperator(0.5 * (reduced + reduced.conj().T))


def swap_qubits_matrix(a: int, b: int) -> np.ndarray:
    """The 16 x 16 permutation exchanging qubits a and b of four (1-based, qubit 1 = MSB)."""
    if not all(_is_integer(q) and 1 <= q <= 4 for q in (a, b)) or a == b:
        raise ValueError(f"need two distinct qubit labels in 1..4, got ({a}, {b})")
    pa, pb = 4 - a, 4 - b  # bit positions from the LSB
    idx = np.arange(16)
    differ = ((idx >> pa) & 1) ^ ((idx >> pb) & 1)
    swapped = idx ^ ((differ << pa) | (differ << pb))
    m = np.zeros((16, 16), dtype=complex)
    m[swapped, idx] = 1.0
    return m


@dataclass(frozen=True, eq=False)
class ExchangeAction:
    """Logical action of a qubit transposition, plus how much leaves the code."""

    matrix: np.ndarray  # logical_dim x logical_dim, Hermitian
    leakage: float


def exchange_logical_action(a: int, b: int) -> ExchangeAction:
    """Compress SWAP_ab into the logical space of ``dfs_encoding_4qubit()``.

    The reported leakage is the Frobenius norm of (I - P_code) SWAP V,
    i.e. how much of the swapped code space escapes the code.
    """
    v = dfs_encoding_4qubit().isometry
    image = swap_qubits_matrix(a, b) @ v
    logical = v.conj().T @ image
    leakage = float(np.linalg.norm(image - v @ logical))
    return ExchangeAction(matrix=logical, leakage=leakage)


def dfs_logical_paulis() -> tuple[np.ndarray, np.ndarray]:
    """(Z_L, X_L) for ``dfs_encoding_4qubit()``, built from exchange gates.

    SWAP_12 compresses to -Z_L exactly; the traceless, Z-orthogonal part
    of SWAP_23's compression is proportional to X_L.  X_L is normalized to
    square to the identity; in this basis its (0, 1) entry is +1.
    """
    z = -exchange_logical_action(1, 2).matrix
    raw = exchange_logical_action(2, 3).matrix
    x = raw - 0.5 * np.trace(raw) * np.eye(2) - 0.5 * np.trace(raw @ z) * z
    x = x / sqrt(0.5 * np.trace(x @ x.conj().T).real)
    return z, x


@dataclass(frozen=True)
class RateRow:
    n: int
    classical_rate: float
    quantum_rate: float
    dephasing_rate: float
    j2_max: int  # twice the j of the most-repeated irrep, whose multiplicity sets quantum_rate


def rate_table(n_max: int) -> tuple[RateRow, ...]:
    """Exact finite-n communication rates, in (qu)bits per transmitted qubit.

    classical: log2(block count) / n; quantum: log2(largest multiplicity)
    over n; dephasing quantum: log2(largest total-m sector) / n.  Pure
    integer combinatorics, so n up to 64 costs nothing.
    """
    _check_qubit_count(n_max, MAX_RATE_QUBITS)
    rows = []
    for n in range(1, n_max + 1):
        j_max, multiplicity = most_repeated_irrep(n)
        rows.append(RateRow(n, log2(total_irrep_count(n)) / n, log2(multiplicity) / n,
                            log2(comb(n, n // 2)) / n, j_max.twice))
    return tuple(rows)


def classical_rate_asymptote(n: int) -> float:
    """Large-n approximation 1 - log2(n)/(2n) of the classical rate."""
    _check_qubit_count(n, high=None)
    return 1.0 - log2(n) / (2 * n)


@lru_cache(maxsize=None)
def _bell_operators() -> tuple[np.ndarray, ...]:
    """Read-only Z_L, X_L, (Z_L + X_L)/sqrt2 and (Z_L - X_L)/sqrt2 on one 4-qubit code,
    and the logical Bell pair (|0_L 0_L> + |1_L 1_L>)/sqrt2 as a 16x16 coefficient matrix."""
    v = dfs_encoding_4qubit().isometry
    z, x = dfs_logical_paulis()
    zp = v @ z @ v.conj().T
    xp = v @ x @ v.conj().T
    b0 = (zp + xp) / sqrt(2.0)
    b1 = (zp - xp) / sqrt(2.0)
    pair = (np.outer(v[:, 0], v[:, 0]) + np.outer(v[:, 1], v[:, 1])) / sqrt(2.0)
    return tuple(_readonly(a) for a in (zp, xp, b0, b1, pair))


def logical_bell_chsh_trials(rng: RandomSource, rotation_trials: int) -> np.ndarray:
    """Per-trial CHSH values for a logical Bell pair split across two parties.

    The shared state is (|0_L 0_L> + |1_L 1_L>)/sqrt2 on eight qubits, one
    4-qubit code per party.  Each trial draws independent Haar rotations
    for the two quadruplets; logical observables commute with collective
    rotations, so every trial individually sits at the Tsirelson point.

    Trials run 128 to a batch of ``core._haar_rotation_chunks``, which draws and checks
    the two parties' elements alternately (ua_1, ub_1, ua_2, ...), so memory does not grow
    with the trial count; each value is the same matmul chain, bit for bit, as a trial alone.
    """
    _check_count(rotation_trials, "trial count")
    zp, xp, b0, b1, pair = _bell_operators()
    values = []
    for us in _haar_rotation_chunks(rng, 2 * rotation_trials, 4):
        ua, ub = us.reshape(-1, 2, 16, 16).transpose(1, 0, 2, 3)  # an odd batch raises here
        rotated = ua @ pair @ ub.transpose(0, 2, 1)
        adjoint = rotated.conj().transpose(0, 2, 1)
        # <A (x) B> = tr(rotated^dag A rotated B^T); each A side is shared by both B
        z_side, x_side = (adjoint @ a_op @ rotated for a_op in (zp, xp))
        zb0, zb1, xb0, xb1 = (np.trace(side @ b_op.T, axis1=1, axis2=2).real
                              for side in (z_side, x_side) for b_op in (b0, b1))
        values.append(zb0 + zb1 + xb0 - xb1)
    return np.concatenate(values)
