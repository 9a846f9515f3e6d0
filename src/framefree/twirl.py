"""Decohering channels induced by averaging over unknown frame rotations.

The full-SU(2) twirl is evaluated algebraically from the irrep
decomposition: each carrier space is replaced by its maximally mixed state
while coherence between equal-j multiplicity labels survives, and all
cross-j coherence vanishes.  The Monte Carlo variant averages explicit
Haar samples and exists as an independent check of that block structure.
Collective dephasing (a shared axis but no full frame) only kills
coherence between different total-m sectors.

Channels are represented behaviorally: each channel caches the block data
it reads on first use, ``apply`` is a pure function, and no superoperator
matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DensityOperator, MAX_QUBITS, RandomSource, _qubit_count, haar_random_su2_batch
from .irreps import IrrepDecomposition, carrier_trace, decompose

_MC_ENTRY_BUDGET = 4_000_000  # max batched matrix entries per Monte Carlo chunk


@dataclass(frozen=True, eq=False)
class TwirlChannel:
    """Trace-preserving, idempotent frame-averaging channel on n qubits.

    A channel that holds the irrep decomposition averages over the full
    SU(2); one without it averages over rotations about a shared axis only.
    """

    n: int
    decomposition: IrrepDecomposition | None = None

    @staticmethod
    def full_su2(n: int) -> "TwirlChannel":
        return TwirlChannel(n=n, decomposition=decompose(n))

    @staticmethod
    def u1_dephasing(n: int) -> "TwirlChannel":
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
        return TwirlChannel(n=n)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @cached_property
    def _sectors(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(2j+1, ``sector(j)``) for each j, built once for the life of the channel."""
        d = self.decomposition
        return tuple((j.twice + 1, d.sector(j)) for j in d.multiplicity_table)

    @cached_property
    def _sector_indices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Row and column index arrays that gather each total-m sector, weight 0 first.

        The Hamming weight of a computational basis index is n/2 - m.
        """
        weights = np.bitwise_count(np.arange(self.dim, dtype=np.uint64))
        return tuple((idx[:, None], idx) for idx in
                     (np.flatnonzero(weights == k) for k in range(self.n + 1)))

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Average rho over the channel's frame rotations, in closed form.

        Dephasing keeps every total-m sector rho_kk of rho and erases the
        coherence between sectors: sum_m P_m rho P_m.  For the full SU(2), each
        j sector S_j (``sector(j)``, cached on the channel) keeps its multiplicity
        operator M_j = ``carrier_trace(S_j, rho, 2j+1)`` and gets the maximally
        mixed carrier: the output is sum_j S_j (M_j/(2j+1) (x) I_{2j+1}) S_j^T,
        and all coherence between different j values is gone.

        The output carries those blocks with this channel as its frame: each
        rho_kk once, or each M_j/(2j+1) with weight 2j+1.  They are always
        extracted from ``rho.matrix``; the input's own blocks are never read.
        """
        if rho.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {rho.dim}, channel {self.dim}")
        result = np.zeros_like(rho.matrix)
        blocks = []
        if self.decomposition is None:
            for rows, cols in self._sector_indices:
                block = result[rows, cols] = rho.matrix[rows, cols]
                blocks.append((block, 1))
            return DensityOperator(result, blocks=tuple(blocks), frame=self)
        for width, s in self._sectors:
            block = carrier_trace(s, rho.matrix, width) / width
            # block (x) I_width, with the same products as np.kron
            mixed = block[:, None, :, None] * np.eye(width)[None, :, None, :]
            result += s @ mixed.reshape(s.shape[1], s.shape[1]) @ s.T
            blocks.append((block, width))
        return DensityOperator(0.5 * (result + result.conj().T), blocks=tuple(blocks), frame=self)


def twirl_su2_monte_carlo(rho: DensityOperator, samples: int,
                          rng: RandomSource) -> DensityOperator:
    """Average U rho U^dag over explicit Haar samples of collective rotations.

    Sampling is chunked but deterministic for a given source.
    """
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    n = _qubit_count(rho.dim)
    acc = np.zeros((rho.dim, rho.dim), dtype=complex)
    remaining = samples
    chunk_cap = max(1, _MC_ENTRY_BUDGET // (rho.dim * rho.dim))
    while remaining:
        k = min(remaining, chunk_cap)
        gs = haar_random_su2_batch(rng, k)
        us = gs
        for _ in range(n - 1):
            rows = us.shape[1]
            us = np.einsum("kab,kcd->kacbd", us, gs).reshape(k, rows * 2, rows * 2)
        acc += np.einsum("kab,bc,kdc->ad", us, rho.matrix, us.conj(), optimize=True)
        remaining -= k
    out = acc / samples
    return DensityOperator(0.5 * (out + out.conj().T))
