"""The twirl one Hamming-weight block at a time: the oracle for the stacked ``apply``.

This is ``TwirlChannel.apply`` as it ran before its stages ran once per
stack of equal-shape blocks: each weight block is gathered, conjugated by its
real W_k, added into the multiplicity matrix and mapped back on its own, and
the output is built by ``DensityOperator._from_weight_blocks``.  Each real
times complex product runs, as in the channel, as one real product on the
float64 view of the complex operand (``times_real``).  The tests check that
both channels equal it bit for bit, in matrix, blocks and sectors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from framefree.core import DensityOperator, weight_indices
from framefree.irreps import decompose
from framefree.twirl import TwirlChannel


@lru_cache(maxsize=None)
def weight_maps(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """2j+1 of each block in canonical order, and the real W_k of each weight k, weight 0
    first: the coupling matrix on the weight-k rows and the columns |j, m = n/2 - k, r>."""
    d = decompose(n)
    maps = []
    for k, rows in enumerate(weight_indices(2 ** n)):
        cols = d.column_starts[:len(rows)] + (d.twice_j[:len(rows)] - n + 2 * k) // 2
        maps.append(d.columns(cols)[rows])
    return d.twice_j + 1, tuple(maps)


def times_real(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """r @ c for a real r and a complex c: r times the interleaved real and imaginary parts
    of a contiguous copy of c, read back as complex."""
    return (r @ np.array(c, order="C").view(np.float64)).view(np.complex128)


def conjugated(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """r c r^T, the second product as (r (r c)^T)^T, so that r is on the left of both."""
    return times_real(r, times_real(r, c).T).T


def per_weight_apply(channel: TwirlChannel, rho: DensityOperator) -> DensityOperator:
    """The channel's output, one weight block at a time."""
    blocks = [rho.matrix[rows[:, None], rows] for rows in weight_indices(channel.dim)]
    if not channel.su2:
        return DensityOperator._from_weight_blocks(blocks)
    widths, maps = weight_maps(channel.n)
    mult = np.zeros((len(widths), len(widths)), dtype=complex)
    for w, block in zip(maps, blocks):
        mult[:len(w), :len(w)] += conjugated(w.T, block)
    kept = np.where(widths[:, None] == widths, mult / widths, 0.0)
    blocks = [conjugated(w, kept[:len(w), :len(w)]) for w in maps]
    blocks = [0.5 * (b + b.conj().T) for b in blocks]
    return DensityOperator._from_weight_blocks(blocks, (0.5 * (kept + kept.conj().T), widths))
