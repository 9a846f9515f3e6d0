"""Ideal two-photon linear optics over two spatial modes.

Mode index = 2*(spatial - 1) + polarization, with polarization H = 0 and
V = 1, so modes (0, 1) belong to port 1 and modes (2, 3) to port 2.  A
two-photon state is stored as the symmetric 4x4 coefficient matrix C with

    |psi> = 2^(-1/2) sum_ij C_ij a_i^dag a_j^dag |vac>,

so a mode transformation U acts as C -> U C U^T and the Frobenius norm of
C is the state norm.  Basis amplitudes carry the bosonic normalization:
amplitude(i, j) = sqrt(2) C_ij for i != j and C_ii for a doubly occupied
mode.  Devices are ideal: lossless optics and number-resolving,
polarization-insensitive detectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ATOL, GroupElement, RandomSource, StateVector, _check_count,
                   _checked_distribution, _is_integer, _readonly)

N_MODES = 4
_PAIRS = tuple((i, j) for i in range(N_MODES) for j in range(i, N_MODES))

_BEAM_SPLITTER = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
                         np.eye(2)).astype(complex)


@dataclass(frozen=True, eq=False)
class OpticalState:
    """A normalized two-photon state over the four modes."""

    pair_coefficients: np.ndarray  # symmetric 4x4

    def __post_init__(self):
        c = np.array(self.pair_coefficients, dtype=complex)
        if c.shape != (N_MODES, N_MODES):
            raise ValueError(f"coefficient matrix must be 4x4, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient matrix has non-finite entries")
        if np.abs(c - c.T).max() > ATOL:
            raise ValueError("coefficient matrix must be symmetric")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "pair_coefficients", _readonly(c))

    @staticmethod
    def from_amplitudes(amplitudes: dict[tuple[int, int], complex]) -> "OpticalState":
        """Build from basis amplitudes keyed by unordered mode pairs (i <= j)."""
        c = np.zeros((N_MODES, N_MODES), dtype=complex)
        for (i, j), amp in amplitudes.items():
            if not (_is_integer(i) and _is_integer(j) and 0 <= i <= j < N_MODES):
                raise ValueError(f"mode pair ({i}, {j}) must satisfy 0 <= i <= j < {N_MODES}")
            if i == j:
                c[i, i] += amp
            else:
                c[i, j] += amp / np.sqrt(2.0)
                c[j, i] += amp / np.sqrt(2.0)
        return OpticalState(c)

    def amplitude(self, i: int, j: int) -> complex:
        """Amplitude on the orthonormal basis element for modes {i, j}."""
        if not all(_is_integer(mode) and 0 <= mode < N_MODES for mode in (i, j)):
            raise ValueError(f"modes must be integers in 0..{N_MODES - 1}, got ({i}, {j})")
        i, j = min(i, j), max(i, j)
        scale = 1.0 if i == j else np.sqrt(2.0)
        return complex(scale * self.pair_coefficients[i, j])

    def basis_amplitudes(self) -> dict[tuple[int, int], complex]:
        return {pair: self.amplitude(*pair) for pair in _PAIRS}

    def overlap(self, other: "OpticalState") -> complex:
        return complex(np.vdot(self.pair_coefficients, other.pair_coefficients))


def apply_mode_transform(state: OpticalState, u) -> OpticalState:
    """Lift a 4x4 unitary on mode operators to the two-photon space."""
    u = np.asarray(u, dtype=complex)
    if (u.shape != (N_MODES, N_MODES) or not np.isfinite(u).all()
            or np.abs(u @ u.conj().T - np.eye(N_MODES)).max() > ATOL):
        raise ValueError("mode transform must be a 4x4 unitary")
    c = u @ state.pair_coefficients @ u.T
    return OpticalState(0.5 * (c + c.T))


def prepare_bell(which: str) -> OpticalState:
    """psi_minus = (H1 V2 - V1 H2)/sqrt2; phi_minus = (H1 H2 - V1 V2)/sqrt2."""
    s = 1.0 / np.sqrt(2.0)
    if which == "psi_minus":
        return OpticalState.from_amplitudes({(0, 3): s, (1, 2): -s})
    if which == "phi_minus":
        return OpticalState.from_amplitudes({(0, 2): s, (1, 3): -s})
    raise ValueError(f"unknown Bell state {which!r}")


def polarization_rotation(state: OpticalState, g: GroupElement) -> OpticalState:
    """Rotate the (H, V) amplitudes of both spatial modes by the same g."""
    u = np.zeros((N_MODES, N_MODES), dtype=complex)
    u[:2, :2] = u[2:, 2:] = g.matrix
    return apply_mode_transform(state, u)


def beam_splitter(state: OpticalState) -> OpticalState:
    """50/50 mixing of the two spatial ports, polarization preserved.

    Convention: a_1p -> (a_1p + a_2p)/sqrt2, a_2p -> (a_1p - a_2p)/sqrt2.
    Any 50/50 convention gives the same coincidence statistics.
    """
    return apply_mode_transform(state, _BEAM_SPLITTER)


@dataclass(frozen=True)
class DetectionDistribution:
    """Outcome probabilities of number-resolving detectors on both ports."""

    p_coincidence: float
    p_bunch_port1: float
    p_bunch_port2: float

    def __post_init__(self):
        _checked_distribution(self.as_vector())

    def as_vector(self) -> np.ndarray:
        return np.array([self.p_coincidence, self.p_bunch_port1, self.p_bunch_port2])


def detect(state: OpticalState) -> DetectionDistribution:
    """Classify the two photons as coincident or bunched at either port.

    Each probability is the squared norm of port blocks of C: a port's own block
    for bunching there, and both off-diagonal blocks, equal as C is symmetric,
    for a coincidence.
    """
    p = np.abs(state.pair_coefficients) ** 2
    return DetectionDistribution(float(2 * p[:2, 2:].sum()), float(p[:2, :2].sum()),
                                 float(p[2:, 2:].sum()))


def lift_two_qubit(state: StateVector) -> OpticalState:
    """Dual-rail embedding: qubit k becomes the polarization of spatial mode k."""
    if state.dim != 4:
        raise ValueError(f"expected a two-qubit state (dim 4), got dim {state.dim}")
    amps = {}
    for p1 in (0, 1):
        for p2 in (0, 1):
            amps[(p1, 2 + p2)] = complex(state.amplitudes[2 * p1 + p2])
    return OpticalState.from_amplitudes(amps)


@dataclass(frozen=True)
class OpticalProtocolResult:
    bit: int
    trials: int
    counts: dict[str, int]  # coincidence / bunch1 / bunch2
    error_rate: float


def run_optical_protocol(bit: int, g_fiber: GroupElement, trials: int,
                         rng: RandomSource) -> OpticalProtocolResult:
    """Full pipeline: prepare, misalign, interfere, detect, decode.

    Bit 0 rides on psi_minus and bit 1 on phi_minus; coincidence decodes
    to 0 and bunching to 1.  A common fiber rotation cannot change the
    outcome statistics, so the sampled error rate is zero.
    """
    if not _is_integer(bit) or bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    _check_count(trials, "trial count")
    bit, trials = int(bit), int(trials)
    state = prepare_bell("psi_minus" if bit == 0 else "phi_minus")
    misaligned = polarization_rotation(state, g_fiber)
    outcome_probs = detect(beam_splitter(misaligned)).as_vector()
    totals = rng.sample_counts(outcome_probs, trials)
    counts = dict(zip(("coincidence", "bunch1", "bunch2"), map(int, totals)))
    errors = counts["coincidence"] if bit else trials - counts["coincidence"]
    return OpticalProtocolResult(bit=bit, trials=trials, counts=counts,
                                 error_rate=errors / trials)
