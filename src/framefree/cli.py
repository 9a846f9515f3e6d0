"""Command-line driver: decomposition tables, rates, channel checks, protocols.

Every command emits a Report whose verdicts can be recomputed from the
payload and the tolerance alone.  Exit codes: 0 all verdicts pass, 1
verification failure or runtime error, 2 invalid arguments.  Output is
byte-stable for a fixed (command, flags, seed) apart from the duration
field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
import uuid
from dataclasses import asdict, dataclass
from math import comb, inf, sqrt
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import (DensityOperator, MAX_CODEBOOK_QUBITS, MAX_QUBITS, MAX_RATE_QUBITS,
                   MAX_TWIRL_CHECK_QUBITS, RandomSource, fidelity, haar_random_su2,
                   random_density, random_state_vector, trace_distance)
from .irreps import decompose
from .optics import run_optical_protocol
from .protocols import (build_classical_codebook, classical_rate_asymptote, classical_trial,
                        decode_logical, dephasing_sector_encoding, dfs_encoding_4qubit,
                        encode_logical, logical_bell_chsh_trials, most_repeated_irrep,
                        noiseless_subsystem_plan, rate_table)
from .twirl import TwirlChannel

TSIRELSON = 2.0 * sqrt(2.0)


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 0  # qubit count; the largest one for rates, unused by quantum, optics and bell
    # decompose and rates are exact, so only the sampled commands set these three
    trials: int = 1000
    seed: int = 42
    tolerance: float = 1e-9
    output_format: str = "json"
    output_path: str | None = None
    singlet_first: bool = False


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float


@dataclass(frozen=True)
class Report:
    command: str
    config: dict
    payload: dict
    verdicts: tuple[Verdict, ...]
    passed: bool
    duration_s: float


def _checked(name: str, cast, accept, requirement: str):
    """An argparse type: cast the text, then reject a value that ``accept`` refuses."""
    def check(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"value must be {requirement}, got {value}")
        return value
    check.__name__ = name  # argparse shows it in "invalid <name> value: 'text'"
    return check


_positive_int = _checked("positive integer", int, lambda v: v >= 1, "positive")
_nonnegative_int = _checked("nonnegative integer", int, lambda v: v >= 0, "nonnegative")
# NaN fails the comparison too
_positive_float = _checked("positive number", float, lambda v: 0 < v < inf, "positive and finite")


# argparse reads a token as a value only if it matches its negative-number
# pattern, which covers plain decimals alone; "--tolerance -1e-9" or "-inf" would
# fail with "expected one argument" before the range check.  No option looks like
# a number, so widening the pattern to every float spelling changes nothing else.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$|^-(inf|infinity|nan)$",
    re.IGNORECASE)


def parse_args(argv) -> RunConfig:
    """Read one command and its options; an option left out takes its RunConfig default."""
    parser = argparse.ArgumentParser(
        prog="framefree",
        description="Communication protocols over collective-rotation channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, spec in command.options + _OUTPUT:
            p.add_argument(flag, **spec)
    args = vars(parser.parse_args(argv))
    if args.get("singlet_first") and args["n"] != 2:
        sub.choices[args["command"]].error("argument --singlet-first: only applies to --n 2")
    return RunConfig(**args)


def _run_decompose(cfg: RunConfig):
    d = decompose(cfg.n)
    j2 = [j.twice for j in d.multiplicity_table]
    mult = [d.multiplicity_table[j] for j in d.multiplicity_table]
    dimension_sum = sum((t + 1) * c for t, c in zip(j2, mult))
    payload = {
        "n": cfg.n,
        "j2": j2,
        "multiplicity": mult,
        "total": sum(mult),
        "dimension_sum": dimension_sum,
        "expected_dimension": 2 ** cfg.n,
    }
    verdicts = (
        Verdict("dimension_sum_matches", dimension_sum == 2 ** cfg.n,
                float(abs(dimension_sum - 2 ** cfg.n)), 0.0),
        # the ballot count C(n, floor(n/2)) equals the block total without reading the table
        Verdict("total_matches_closed_form", sum(mult) == comb(cfg.n, cfg.n // 2),
                float(abs(sum(mult) - comb(cfg.n, cfg.n // 2))), 0.0),
    )
    return payload, verdicts


def _run_rates(cfg: RunConfig):
    rows = [{
        "n": row.n,
        "classical_rate": row.classical_rate,
        "quantum_rate": row.quantum_rate,
        "dephasing_rate": row.dephasing_quantum_rate,
        "asymptotic_gap": classical_rate_asymptote(row.n) - row.classical_rate,
        "j2_max": most_repeated_irrep(row.n)[0].twice,
    } for row in rate_table(cfg.n)]
    payload = {"max_n": cfg.n, "rate_rows": rows}
    all_rates = [r[k] for r in rows for k in ("classical_rate", "quantum_rate", "dephasing_rate")]
    in_bounds = all(0.0 <= x <= 1.0 for x in all_rates)
    even = [r["classical_rate"] for r in rows if r["n"] % 2 == 0]
    monotone = all(a <= b for a, b in zip(even, even[1:]))
    verdicts = (
        Verdict("rates_within_unit_interval", in_bounds,
                float(min(all_rates)), 0.0),
        Verdict("classical_rate_monotone_even_n", monotone,
                float(min((b - a for a, b in zip(even, even[1:])), default=0.0)), 0.0),
    )
    return payload, verdicts


def _run_twirl_check(cfg: RunConfig):
    rng = RandomSource(cfg.seed)
    full = TwirlChannel.full_su2(cfg.n)
    dephasing = TwirlChannel.u1_dephasing(cfg.n)
    residuals = {}
    for name, channel in (("full_su2", full), ("u1_dephasing", dephasing)):
        idem = 0.0
        trace_dev = 0.0
        for _ in range(cfg.trials):
            rho = random_density(rng, 2 ** cfg.n)
            once = channel.apply(rho)
            idem = max(idem, trace_distance(channel.apply(once), once))
            trace_dev = max(trace_dev, abs(float(np.trace(once.matrix).real) - 1.0))
        mixed = DensityOperator.maximally_mixed(2 ** cfg.n)
        fixed = trace_distance(channel.apply(mixed), mixed)
        residuals[name] = {"idempotence": idem, "trace_deviation": trace_dev,
                           "mixed_state_fixed_point": fixed}
    payload = {"n": cfg.n, "states": cfg.trials, "residuals": residuals}
    verdicts = tuple(
        Verdict(f"{name}_{key}", value <= cfg.tolerance, value, cfg.tolerance)
        for name, entries in residuals.items()
        for key, value in entries.items()
    )
    return payload, verdicts


def _run_classical(cfg: RunConfig):
    rng = RandomSource(cfg.seed)
    codebook = build_classical_codebook(cfg.n, singlet_first=cfg.singlet_first)
    errors = 0
    min_correct = 1.0
    for entry in codebook.entries:
        block_index = codebook.decomposition.block_index(entry.j, entry.r)
        for _ in range(cfg.trials):
            decoded, probs = classical_trial(entry.message, codebook, haar_random_su2(rng), rng)
            errors += int(decoded != entry.message)
            min_correct = min(min_correct, float(probs[block_index]))
    payload = {
        "protocol": cfg.command,
        "n": cfg.n,
        "messages": len(codebook.entries),
        "trials": cfg.trials,
        "errors": errors,
        "min_correct_probability": min_correct,
    }
    verdicts = (
        Verdict("zero_decoding_errors", errors == 0, float(errors), 0.0),
        Verdict("correct_block_probability_one", 1.0 - min_correct <= cfg.tolerance,
                1.0 - min_correct, cfg.tolerance),
    )
    return payload, verdicts


def _run_quantum(cfg: RunConfig):
    rng = RandomSource(cfg.seed)
    codes = (
        ("dfs_4qubit", dfs_encoding_4qubit(), TwirlChannel.full_su2(4)),
        ("noiseless_subsystem_3qubit", noiseless_subsystem_plan(3), TwirlChannel.full_su2(3)),
        ("dephasing_2qubit", dephasing_sector_encoding(2), TwirlChannel.u1_dephasing(2)),
    )
    payload = {"protocol": cfg.command, "trials": cfg.trials, "codes": {}}
    verdicts = []
    for name, encoding, channel in codes:
        fidelities = []
        for _ in range(cfg.trials):
            psi = random_state_vector(rng, encoding.logical_dim)
            decoded = decode_logical(channel.apply(encode_logical(psi, encoding)), encoding)
            fidelities.append(fidelity(decoded, psi.to_density()))
        payload["codes"][name] = {
            "n": encoding.n,
            "logical_dim": encoding.logical_dim,
            "min_fidelity": float(min(fidelities)),
            "mean_fidelity": float(np.mean(fidelities)),
        }
        worst = float(np.abs(np.subtract(1.0, fidelities)).max())  # a raw F may pass 1
        verdicts.append(Verdict(f"{name}_min_fidelity", worst <= cfg.tolerance,
                                worst, cfg.tolerance))
    return payload, tuple(verdicts)


def _run_optics(cfg: RunConfig):
    rng = RandomSource(cfg.seed)
    fiber = haar_random_su2(rng)
    runs = [run_optical_protocol(bit, fiber, cfg.trials, rng) for bit in (0, 1)]
    payload = {"protocol": cfg.command, "trials": cfg.trials,
               "runs": [asdict(r) for r in runs]}
    verdicts = tuple(
        Verdict(f"bit{r.bit}_error_rate_zero", r.error_rate == 0.0, r.error_rate, 0.0)
        for r in runs
    )
    return payload, verdicts


def _run_bell(cfg: RunConfig):
    values = logical_bell_chsh_trials(RandomSource(cfg.seed), cfg.trials)
    mean = float(values.mean())
    worst = float(np.abs(values - TSIRELSON).max())
    payload = {"protocol": cfg.command, "trials": cfg.trials, "chsh_value": mean,
               "max_trial_deviation": worst, "tsirelson": TSIRELSON}
    verdicts = (
        Verdict("chsh_at_tsirelson", abs(mean - TSIRELSON) <= cfg.tolerance,
                abs(mean - TSIRELSON), cfg.tolerance),
        Verdict("every_trial_at_tsirelson", worst <= cfg.tolerance, worst, cfg.tolerance),
        Verdict("violates_classical_bound", mean > 2.0, mean, 2.0),
    )
    return payload, verdicts


_Option = tuple[str, dict]  # a flag and its add_argument keywords


def _qubits(flag: str, largest: int, default: int) -> tuple[_Option]:
    return ((flag, {"dest": "n", "default": default, "type": _checked(
        "qubit count", int, range(1, largest + 1).__contains__, f"in 1..{largest}")}),)


# only the sampled commands read these; optics's verdicts ask for zero errors, no tolerance
_SAMPLING = (("--trials", {"type": _positive_int}), ("--seed", {"type": _nonnegative_int}))
_TOLERANCE = (("--tolerance", {"type": _positive_float}),)
_OUTPUT = (("--output", {"dest": "output_format", "choices": ("json", "csv")}),
           ("--out-file", {"dest": "output_path", "metavar": "OUT_FILE"}))


class _Command(NamedTuple):
    handler: Callable[[RunConfig], tuple[dict, tuple[Verdict, ...]]]
    help: str
    options: tuple[_Option, ...]  # the options the handler reads, in help order


_COMMANDS = {
    "decompose": _Command(_run_decompose, "block multiplicity table for n qubits",
                          _qubits("--n", MAX_QUBITS, 4)),
    "rates": _Command(_run_rates, "communication rates up to a qubit count",
                      _qubits("--max-n", MAX_RATE_QUBITS, 16)),
    "twirl-check": _Command(_run_twirl_check, "fixed-point and idempotence residuals",
                            _qubits("--n", MAX_TWIRL_CHECK_QUBITS, 2) + _SAMPLING + _TOLERANCE),
    "classical": _Command(_run_classical, "classical round trips under random frames",
                          _qubits("--n", MAX_CODEBOOK_QUBITS, 2)
                          + (("--singlet-first", {"action": "store_true"}),)
                          + _SAMPLING + _TOLERANCE),
    "quantum": _Command(_run_quantum, "decode fidelities of the protected codes",
                        _SAMPLING + _TOLERANCE),
    "optics": _Command(_run_optics, "two-photon protocol through a random fiber", _SAMPLING),
    "bell": _Command(_run_bell, "logical CHSH value under random frames",
                     _SAMPLING + _TOLERANCE),
}


def run_command(cfg: RunConfig) -> Report:
    """Run one command; its report echoes only the settings that command reads."""
    start = time.perf_counter()
    payload, verdicts = _COMMANDS[cfg.command].handler(cfg)
    duration = time.perf_counter() - start
    read = {"command"} | {spec.get("dest", flag[2:].replace("-", "_"))
                          for flag, spec in _COMMANDS[cfg.command].options + _OUTPUT}
    return Report(
        command=cfg.command,
        config={key: value for key, value in asdict(cfg).items() if key in read},
        payload=payload,
        verdicts=verdicts,
        passed=all(v.passed for v in verdicts),
        duration_s=duration,
    )


def _csv_text(report: Report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if "rate_rows" in report.payload:  # the rate table itself, one row per n
        writer.writerow(["n", "classical_rate", "quantum_rate", "dephasing_rate",
                         "asymptotic_gap"])
        for row in report.payload["rate_rows"]:
            writer.writerow([row["n"], repr(row["classical_rate"]),
                             repr(row["quantum_rate"]), repr(row["dephasing_rate"]),
                             repr(row["asymptotic_gap"])])
    else:
        writer.writerow(["key", "value"])
        flat = json.loads(json.dumps(asdict(report), sort_keys=True))
        for key, value in sorted(_flatten(flat).items()):
            writer.writerow([key, repr(value) if isinstance(value, float) else value])
    return buffer.getvalue()


def _flatten(tree, prefix=""):
    if not isinstance(tree, (dict, list)):
        return {prefix.rstrip("."): tree}
    out = {}
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        out.update(_flatten(value, f"{prefix}{key}."))
    return out


def emit_report(report: Report, cfg: RunConfig) -> str:
    """Serialize and write the report; returns the emitted text.

    An output file is written to a temporary file beside it and renamed into
    place, so a failed write leaves the target as it was.
    """
    if cfg.output_format == "csv":
        text = _csv_text(report)
    else:
        text = json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        target = Path(cfg.output_path)
        temp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(temp, "x", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp, target)
        finally:
            temp.unlink(missing_ok=True)
    else:
        sys.stdout.write(text)
    return text


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        report = run_command(cfg)
        emit_report(report, cfg)
    except Exception as exc:
        diagnostic = {"error": type(exc).__name__, "detail": str(exc)}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 1
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
