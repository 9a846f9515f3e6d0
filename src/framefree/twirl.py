"""Decohering channels induced by averaging over unknown frame rotations.

Both channels commute with the collective J_z, so each keeps only the
Hamming-weight blocks rho_kk of its input; collective dephasing (a shared
axis but no full frame) stops there.  The full-SU(2) twirl also replaces
each carrier space by its maximally mixed state, keeping the coherence
between equal-j multiplicity labels, and reads it inside the weight blocks
(the G-twirl of Bartlett, Rudolph and Spekkens, quant-ph/0610030).  The
Monte Carlo variant averages explicit Haar samples and exists as an
independent check of that structure; it builds each chunk's rotations with
the tensor-power kernel behind ``collective_rotation``, so every sampled
u^(x)n equals that dense rotation bit for bit.

Channels are represented behaviorally: each channel caches the block data
it reads on first use, ``apply`` is a pure function, and no superoperator
matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DensityOperator, RandomSource, _check_qubit_count, _qubit_count,
                   _readonly, _tensor_powers, haar_random_su2_batch, weight_indices)
from .irreps import decompose

# Max batched entries per Monte Carlo chunk.  At 1M/4M/16M, time per sample (best of 3, 2 cores)
# and traced peak: n = 4: 8.6/12.2/11.0 us, 35/139/553 MB; n = 8: 4.9/5.5/5.4 ms, 77/307/1222 MB.
_MC_ENTRY_BUDGET = 4_000_000


@dataclass(frozen=True, eq=False)
class TwirlChannel:
    """Trace-preserving, idempotent frame-averaging channel on n qubits.

    With ``su2`` the channel averages over the full SU(2), reading the block
    structure ``decompose(n)`` on first use; without it, over rotations about
    a shared axis only.
    """

    n: int
    su2: bool = False

    def __post_init__(self):
        _check_qubit_count(self.n)

    @staticmethod
    def full_su2(n: int) -> "TwirlChannel":
        return TwirlChannel(n=n, su2=True)

    @staticmethod
    def u1_dephasing(n: int) -> "TwirlChannel":
        return TwirlChannel(n=n)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @cached_property
    def _weight_maps(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """2j+1 of each block in canonical order, and W_k for each weight k.

        W_k is the coupling matrix on the weight-k rows and the columns
        |j, m = n/2 - k, r>: real orthogonal and C(n, k) wide, its columns from
        the blocks with 2j >= |2m|, a prefix of canonical order as j descends.
        """
        d = decompose(self.n)
        twice_j = np.repeat([j.twice for j in d.multiplicity_table],
                            list(d.multiplicity_table.values()))
        maps = []
        for k, rows in enumerate(weight_indices(self.dim)):
            cols = d.column_starts[:len(rows)] + (twice_j[:len(rows)] - self.n + 2 * k) // 2
            maps.append(_readonly(d.columns(cols)[rows]))
        return twice_j + 1, tuple(maps)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Average rho over the channel's frame rotations, in closed form.

        Dephasing keeps each weight block rho_kk: sum_m P_m rho P_m.  For the
        full SU(2), sum_k W_k^T rho_kk W_k holds every M_j on its equal-j
        entries; those entries divided by 2j+1, mapped back by W_k (.) W_k^T,
        give sum_j S_j (M_j/(2j+1) (x) I_{2j+1}) S_j^T, with the coherence
        between different j gone.  The result's blocks are found again by
        ``DensityOperator``.
        """
        if rho.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {rho.dim}, channel {self.dim}")
        indices = weight_indices(self.dim)
        blocks = [rho.matrix[rows[:, None], rows] for rows in indices]
        if self.su2:
            widths, maps = self._weight_maps
            mult = np.zeros((len(widths), len(widths)), dtype=complex)
            for w, block in zip(maps, blocks):
                mult[:len(w), :len(w)] += w.T @ block @ w
            mult = np.where(widths[:, None] == widths, mult / widths, 0.0)
            blocks = [w @ mult[:len(w), :len(w)] @ w.T for w in maps]
            blocks = [0.5 * (b + b.conj().T) for b in blocks]
        result = np.zeros_like(rho.matrix)
        for rows, block in zip(indices, blocks):
            result[rows[:, None], rows] = block
        return DensityOperator(result)


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
        us = _tensor_powers(haar_random_su2_batch(rng, k), n)
        acc += np.einsum("kab,bc,kdc->ad", us, rho.matrix, us.conj(), optimize=True)
        remaining -= k
    out = acc / samples
    return DensityOperator(0.5 * (out + out.conj().T))
