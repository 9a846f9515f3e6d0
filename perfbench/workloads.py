"""The four workloads: inputs from a seed, a cold set-up, and one checked op.

Each op repeats what the matching CLI command does for one trial and checks
its own answer at the CLI's default tolerance.  Every call into the program
goes through ``tracer.call`` under a ``<module>.<function>`` span name, so the
traced run can attribute time to layers without touching ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from framefree.cli import RunConfig, emit_report, run_command
from framefree.core import (RandomSource, collective_rotation, fidelity, haar_random_su2,
                            random_density, random_state_vector, trace_distance)
from framefree.irreps import decompose
from framefree.optics import run_optical_protocol
from framefree.protocols import (block_outcome_probabilities, build_classical_codebook,
                                 classical_round_trip, decode_logical,
                                 dephasing_sector_encoding, dfs_encoding_4qubit,
                                 encode_logical, logical_bell_chsh_trials,
                                 noiseless_subsystem_plan)
from framefree.twirl import TwirlChannel

from perfbench.harness import check

TOL = 1e-9  # the CLI's default --tolerance
TSIRELSON = 2.0 * sqrt(2.0)
TWIRL_STATE_POOL = 32  # distinct 256x256 inputs, about 1 MB each
LOGICAL_STATE_POOL = 64

# Every span name an op or a set-up can open, in report order.
LAYER_SPANS = (
    "core.haar_random_su2",
    "core.collective_rotation",
    "core.trace_distance",
    "core.fidelity",
    "irreps.decompose",
    "irreps.block_index",
    "twirl.apply_su2",
    "twirl.apply_u1",
    "protocols.build_classical_codebook",
    "protocols.classical_round_trip",
    "protocols.block_outcome_probabilities",
    "protocols.encode_logical",
    "protocols.decode_logical",
    "protocols.logical_bell_chsh_trials",
    "optics.run_optical_protocol",
    "cli.run_command",
    "cli.emit_report",
)


class DecomposeCache:
    """Clears the ``decompose`` cache while keeping hit and miss totals.

    ``cache_clear`` also resets ``cache_info``, so the counts are folded in
    before each clear.  Totals start at zero when the object is made.
    """

    def __init__(self):
        info = decompose.cache_info()
        self._base = (info.hits, info.misses)
        self._hits = 0
        self._misses = 0

    def clear(self) -> None:
        hits, misses = self.totals()
        self._hits, self._misses = hits, misses
        self._base = (0, 0)
        decompose.cache_clear()

    def totals(self) -> tuple[int, int]:
        info = decompose.cache_info()
        return (self._hits + info.hits - self._base[0],
                self._misses + info.misses - self._base[1])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable  # (seed, scratch_dir) -> inputs; untimed
    setup: Callable  # (inputs, tracer, cache) -> state; cold build of program objects
    op: Callable  # (state, tracer, op_id) -> None; raises on a wrong answer
    setup_reps: int  # set-ups per run; setup_s is their median


# ------------------------------------------------------------ classical_n10

def _classical_inputs(seed: int, scratch: Path):
    return SimpleNamespace(seed=seed)


def _classical_setup(inputs, tracer, cache: DecomposeCache):
    cache.clear()
    tracer.call("irreps.decompose", decompose, 10)
    book = tracer.call("protocols.build_classical_codebook", build_classical_codebook, 10)
    check(len(book.entries) == comb(10, 5), f"codebook has {len(book.entries)} messages")
    return SimpleNamespace(book=book, rng=RandomSource(inputs.seed))


def _classical_op(state, tracer, op_id: int) -> None:
    book, rng = state.book, state.rng
    entry = book.entries[op_id % len(book.entries)]
    g = tracer.call("core.haar_random_su2", haar_random_su2, rng)
    decoded = tracer.call("protocols.classical_round_trip", classical_round_trip,
                          entry.message, book, g, rng)
    check(decoded == entry.message, f"sent {entry.message}, decoded {decoded}")
    u = tracer.call("core.collective_rotation", collective_rotation, g, book.n)
    probs = tracer.call("protocols.block_outcome_probabilities", block_outcome_probabilities,
                        entry.codeword.evolve(u), book.decomposition)
    k = tracer.call("irreps.block_index", book.decomposition.block_index, entry.j, entry.r)
    miss = 1.0 - float(probs[k])
    check(miss <= TOL, f"correct-block probability misses 1 by {miss}")


# ----------------------------------------------------------------- twirl_n8

def _twirl_inputs(seed: int, scratch: Path):
    rng = RandomSource(seed)
    return SimpleNamespace(states=[random_density(rng, 2 ** 8) for _ in range(TWIRL_STATE_POOL)])


def _twirl_setup(inputs, tracer, cache: DecomposeCache):
    cache.clear()
    tracer.call("irreps.decompose", decompose, 8)
    channels = (("twirl.apply_su2", TwirlChannel.full_su2(8)),
                ("twirl.apply_u1", TwirlChannel.u1_dephasing(8)))
    return SimpleNamespace(states=inputs.states, channels=channels)


def _twirl_op(state, tracer, op_id: int) -> None:
    rho = state.states[op_id % len(state.states)]
    for span, channel in state.channels:
        once = tracer.call(span, channel.apply, rho)
        twice = tracer.call(span, channel.apply, once)
        idem = tracer.call("core.trace_distance", trace_distance, twice, once)
        check(idem <= TOL, f"{span}: idempotence residual {idem}")
        trace_dev = abs(float(np.trace(once.matrix).real) - 1.0)
        check(trace_dev <= TOL, f"{span}: trace deviation {trace_dev}")


# -------------------------------------------------------------- codes_small

def _codes_inputs(seed: int, scratch: Path):
    # child 0 draws the logical states; child 1 (made in set-up) the draws inside ops
    rng = RandomSource(seed, (0,))
    pools = [[random_state_vector(rng, 2) for _ in range(LOGICAL_STATE_POOL)]
             for _ in range(3)]
    return SimpleNamespace(pools=pools, seed=seed)


def _codes_setup(inputs, tracer, cache: DecomposeCache):
    cache.clear()
    codes = (
        (dfs_encoding_4qubit(), "twirl.apply_su2", TwirlChannel.full_su2(4)),
        (noiseless_subsystem_plan(3), "twirl.apply_su2", TwirlChannel.full_su2(3)),
        (dephasing_sector_encoding(2), "twirl.apply_u1", TwirlChannel.u1_dephasing(2)),
    )
    return SimpleNamespace(codes=tuple(zip(codes, inputs.pools)),
                           rng=RandomSource(inputs.seed, (1,)))


def _codes_op(state, tracer, op_id: int) -> None:
    for (encoding, span, channel), pool in state.codes:
        psi = pool[op_id % len(pool)]
        sent = tracer.call("protocols.encode_logical", encode_logical, psi, encoding)
        received = tracer.call(span, channel.apply, sent)
        decoded = tracer.call("protocols.decode_logical", decode_logical, received, encoding)
        f = tracer.call("core.fidelity", fidelity, decoded, psi.to_density())
        check(1.0 - f <= TOL, f"n={encoding.n} code: fidelity {f}")

    values = tracer.call("protocols.logical_bell_chsh_trials", logical_bell_chsh_trials,
                         state.rng, 10)
    check(len(values) == 10, f"{len(values)} CHSH trials instead of 10")
    worst = float(np.abs(values - TSIRELSON).max())
    check(worst <= TOL, f"CHSH trial off Tsirelson by {worst}")

    fiber = tracer.call("core.haar_random_su2", haar_random_su2, state.rng)
    for bit in (0, 1):
        run = tracer.call("optics.run_optical_protocol", run_optical_protocol,
                          bit, fiber, 100, state.rng)
        check(run.trials == 100 and run.error_rate == 0.0,
              f"bit {bit}: error rate {run.error_rate} over {run.trials} trials")


# ------------------------------------------------------------ decompose_n12

def _decompose_inputs(seed: int, scratch: Path):
    return SimpleNamespace(seed=seed, out_file=scratch / "decompose_n12.json")


def _decompose_setup(inputs, tracer, cache: DecomposeCache):
    cfg = RunConfig(command="decompose", n=12, seed=inputs.seed,
                    output_path=str(inputs.out_file))
    return SimpleNamespace(cfg=cfg, cache=cache, out_file=inputs.out_file)


def _decompose_op(state, tracer, op_id: int) -> None:
    state.cache.clear()
    tracer.call("irreps.decompose", decompose, 12)
    report = tracer.call("cli.run_command", run_command, state.cfg)
    payload = report.payload
    check(report.passed, "decompose report did not pass")
    check(payload["dimension_sum"] == 2 ** 12, f"dimension sum {payload['dimension_sum']}")
    check(payload["total"] == comb(12, 6), f"{payload['total']} blocks, expected {comb(12, 6)}")
    text = tracer.call("cli.emit_report", emit_report, report, state.cfg)
    check(state.out_file.read_text(encoding="utf-8") == text, "emitted file differs from text")


WORKLOADS = {w.name: w for w in (
    Workload("classical_n10",
             "dense 2^10 rotation and block probabilities per message; reads every block",
             _classical_inputs, _classical_setup, _classical_op, setup_reps=5),
    Workload("twirl_n8",
             "dense SU(2) and U(1) twirls at n=8 with state validation and trace distance",
             _twirl_inputs, _twirl_setup, _twirl_op, setup_reps=5),
    Workload("codes_small",
             "small codes, Bell and optics: per-call Python work, control for dense kernels",
             _codes_inputs, _codes_setup, _codes_op, setup_reps=9),
    Workload("decompose_n12",
             "cold block-structure build at n=12: the only cache miss and the memory peak",
             _decompose_inputs, _decompose_setup, _decompose_op, setup_reps=3),
)}
