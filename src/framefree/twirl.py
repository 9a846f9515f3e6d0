"""Decohering channels induced by averaging over unknown frame rotations.

Both channels commute with the collective J_z, so each keeps only the
Hamming-weight blocks rho_kk of its input; collective dephasing (a shared
axis but no full frame) stops there.  The full-SU(2) twirl also replaces
each carrier space by its maximally mixed state, keeping the coherence
between equal-j multiplicity labels, and reads it inside the weight blocks
(the G-twirl of Bartlett, Rudolph and Spekkens, quant-ph/0610030).  The
Monte Carlo variant averages explicit Haar samples and exists as an
independent check of that structure; it takes its rotations, checked SU(2),
from ``core._haar_rotation_chunks``, whose tensor-power kernel is the one
behind ``collective_rotation``, so every sampled u^(x)n equals that dense
rotation bit for bit.

Channels are represented behaviorally: each channel caches the block data
it reads on first use, ``apply`` is a pure function, and no superoperator
matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DensityOperator, RandomSource, _by_weight, _check_count, _check_qubit_count,
                   _haar_rotation_chunks, _in_stacks, _qubit_count, _readonly, _weight_stacks,
                   weight_indices)
from .irreps import decompose


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
        """2j+1 of each block in canonical order, and W_k for each weight k, stacked.

        W_k is the coupling matrix on the weight-k rows and the columns
        |j, m = n/2 - k, r>: real orthogonal and C(n, k) wide, its columns from
        the blocks with 2j >= |2m|, a prefix of canonical order as j descends.
        Each block's 2j and first column are ``decompose(n)``'s ``twice_j`` and
        ``column_starts``.  The W_k are kept once, cast to complex (exactly, as
        every product with a complex block casts them), in the stacks of
        ``core._in_stacks``: W_k and W_{n-k} share one shape.
        """
        d = decompose(self.n)
        maps = []
        for k, rows in enumerate(weight_indices(self.dim)):
            cols = d.column_starts[:len(rows)] + (d.twice_j[:len(rows)] - self.n + 2 * k) // 2
            maps.append(d.columns(cols)[rows])
        return _readonly(d.twice_j + 1), tuple(_readonly(np.array(s, dtype=complex))
                                               for s in _in_stacks(maps))

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Average rho over the channel's frame rotations, in closed form.

        Dephasing keeps each weight block rho_kk: sum_m P_m rho P_m.  For the
        full SU(2), sum_k W_k^T rho_kk W_k holds every M_j on its equal-j
        entries; those entries divided by 2j+1, mapped back by W_k (.) W_k^T,
        give sum_j S_j (M_j/(2j+1) (x) I_{2j+1}) S_j^T, with the coherence
        between different j gone.  Each stage runs once per stack of equal-shape
        blocks, weights k and n - k together (``core._in_stacks``): one gather,
        one W_k^T B W_k product and one map back per stack, with the products
        added into the multiplicity matrix weight 0 first, so the bits are those
        of one block at a time.  At n = 8 that is 5 passes for 9 blocks (7 for
        13 at n = 12); against one block at a time, the SU(2) apply at n = 8
        took 12 % less time and the dephasing one 8 % less (median of paired
        ratios over 150 alternating rounds in one process, 2 cores), and at
        n = 3 and 4, where the output is checked dense, 31 and 26 % less.
        Either way the output is built and checked from its stacks by
        ``DensityOperator._from_weight_stacks``.  The SU(2) output also hands
        over Q = (+)_j M_j/(2j+1), the masked entries made Hermitian, with each
        block's carrier 2j+1; ``core`` decides whether to keep its j sectors.
        The blocks and sectors of ``rho`` are never read.
        """
        if rho.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {rho.dim}, channel {self.dim}")
        stacks = [rho.matrix[rows[:, :, None], rows[:, None, :]]
                  for rows in _weight_stacks(self.dim)]
        if not self.su2:
            return DensityOperator._from_weight_stacks(stacks)
        widths, maps = self._weight_maps
        mult = np.zeros((len(widths), len(widths)), dtype=complex)
        for p in _by_weight([w.mT @ s @ w for w, s in zip(maps, stacks)]):
            mult[:len(p), :len(p)] += p
        kept = np.where(widths[:, None] == widths, mult / widths, 0.0)
        stacks = [w @ kept[:w.shape[-1], :w.shape[-1]] @ w.mT for w in maps]
        stacks = [0.5 * (s + s.conj().mT) for s in stacks]
        return DensityOperator._from_weight_stacks(stacks, (0.5 * (kept + kept.conj().T), widths))


def twirl_su2_monte_carlo(rho: DensityOperator, samples: int,
                          rng: RandomSource) -> DensityOperator:
    """Average U rho U^dag over explicit Haar samples of collective rotations.

    Samples come checked from ``core._haar_rotation_chunks``, a batch at a time, so memory
    stays flat as samples grow; batched, but deterministic for a given source.
    """
    _check_count(samples, "sample count")
    n = _qubit_count(rho.dim)
    acc = np.zeros((rho.dim, rho.dim), dtype=complex)
    for us in _haar_rotation_chunks(rng, samples, n):
        acc += np.einsum("kab,bc,kdc->ad", us, rho.matrix, us.conj(), optimize=True)
    out = acc / samples
    return DensityOperator(0.5 * (out + out.conj().T))
