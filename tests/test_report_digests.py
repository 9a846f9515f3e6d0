import copy
import dataclasses
from math import nextafter
from pathlib import Path

import pytest

import report_digests
from framefree.cli import emit_report, parse_args, run_command

_CFG = parse_args(["twirl-check", "--n", "1", "--trials", "3"])


@pytest.fixture(scope="module")
def report():
    return run_command(_CFG)


def _emitted(report) -> list[str]:
    """The JSON and the CSV text of one report."""
    return [emit_report(report, dataclasses.replace(_CFG, output_format=fmt))
            for fmt in ("json", "csv")]


def test_duration_is_the_only_field_dropped(report):
    slower = dataclasses.replace(report, duration_s=report.duration_s + 12.5)
    for before, after in zip(_emitted(report), _emitted(slower)):
        assert before != after
        assert report_digests.digest(before) == report_digests.digest(after)


def _nudge_payload_float(report):
    payload = copy.deepcopy(report.payload)
    residuals = payload["residuals"]["full_su2"]
    residuals["trace_deviation"] = nextafter(residuals["trace_deviation"], 1.0)
    return dataclasses.replace(report, payload=payload)


def _fail_one_verdict(report):
    first, *rest = report.verdicts
    return dataclasses.replace(report, verdicts=(dataclasses.replace(first, passed=False), *rest))


def _change_seed(report):
    return dataclasses.replace(report, config={**report.config, "seed": report.config["seed"] + 1})


@pytest.mark.parametrize("change", [_nudge_payload_float, _fail_one_verdict, _change_seed])
def test_any_other_change_moves_the_digest(report, change):
    for before, after in zip(_emitted(report), _emitted(change(report))):
        assert report_digests.digest(before) != report_digests.digest(after)


_EXPECTED = Path(__file__).resolve().parent / "report_digests.txt"


def test_every_report_matches_its_pinned_digest():
    recorded, *expected = _EXPECTED.read_text().splitlines()
    assert recorded.startswith("# ") and len(expected) == len(report_digests.MATRIX)
    environments = f"recorded with {recorded[2:]}; now {report_digests.environment()}"
    for command, line in zip(report_digests.MATRIX, expected):
        assert report_digests.digest_line(command) == line, environments
