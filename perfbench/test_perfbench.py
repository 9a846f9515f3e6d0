"""Tests of the benchmark's own code: statistics, spans, failure counting, output."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from framefree.irreps import decompose
from framefree.protocols import Message
from perfbench import run, workloads
from perfbench.harness import (REFERENCE_NOMINAL_S, NullTracer, Span, Tracer, closed_loop,
                               median, percentile, run_op, self_times, tail_percentile)

ROOT = Path(__file__).resolve().parent.parent


def ticking_clock(step=1.0):
    """A clock that advances by ``step`` on every reading."""
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]
    return clock


class TestStatistics:
    def test_percentile_interpolates_between_ranks(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)
        assert percentile([7.0], 90.0) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    @pytest.mark.parametrize("count, reported, beyond", [(92, True, 10), (91, False, 9),
                                                         (100, True, 10), (20, False, 2)])
    def test_tail_needs_ten_samples_beyond(self, count, reported, beyond):
        value, got = tail_percentile([float(i) for i in range(1, count + 1)], 90.0)
        assert got == beyond
        assert (value is not None) == reported

    def test_ties_do_not_count_as_beyond(self):
        value, beyond = tail_percentile([1.0] * 200, 90.0)
        assert value is None and beyond == 0


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [Span("op", 0.0, 10.0),
                 Span("a", 1.0, 3.0, parent=0), Span("b", 2.0, 5.0, parent=0),
                 Span("c", 8.0, 12.0, parent=0), Span("d", 2.5, 3.5, parent=2)]
        # op: 10 minus [1, 5] and [8, 10]; b: 3 minus its child d
        assert self_times(spans) == [4.0, 2.0, 2.0, 4.0, 1.0]

    def test_tracer_links_parents_and_op_ids(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("bench.op", op_id=7):
            assert tracer.call("core.fidelity", lambda x: x + 1, 1) == 2
            tracer.call("core.fidelity", lambda: None)
        op, first, second = tracer.spans
        assert (first.parent, second.parent, op.parent) == (0, 0, None)
        assert {s.op_id for s in tracer.spans} == {7}
        # op spans ticks 1..6, children cover 2..3 and 4..5
        assert tracer.layer_totals() == {"bench.op": (1, 3.0), "core.fidelity": (2, 2.0)}
        assert [s["name"] for s in tracer.to_json()] == ["bench.op", "core.fidelity",
                                                        "core.fidelity"]

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=ticking_clock())
        with pytest.raises(ZeroDivisionError):
            tracer.call("core.fidelity", lambda: 1 / 0)
        assert not math.isnan(tracer.spans[0].end)
        assert tracer.call("core.trace_distance", lambda: 3) == 3
        assert tracer.spans[1].parent is None


class TestFailureCounting:
    def test_failed_and_raising_ops_are_counted_without_latency(self):
        def op(state, tracer, op_id):
            if op_id % 3 == 1:
                raise RuntimeError("boom")
            if op_id % 3 == 2:
                workloads.check(False, "wrong answer")

        # nine clock readings per op: two around it, six for the reference, one deadline
        loop = closed_loop(op, None, NullTracer(), seconds=55.0, clock=ticking_clock(),
                           kernel=lambda: None)
        assert loop.attempted == 6
        assert loop.failed == 4
        assert loop.verified == 2 and len(loop.latencies_s(False)) == 2
        assert loop.throughput(False) == pytest.approx(2 / 6)
        assert loop.latencies_s(True) == [pytest.approx(REFERENCE_NOMINAL_S)] * 2
        assert any("CheckFailed" in e for e in loop.errors)
        assert any("RuntimeError" in e for e in loop.errors)

    def test_a_wrong_decoded_message_counts_as_failed(self, monkeypatch):
        wl = workloads.WORKLOADS["classical_n10"]
        state = wl.setup(wl.inputs(5, None), NullTracer(), workloads.DecomposeCache())
        assert closed_loop(wl.op, state, NullTracer(), seconds=0.0).failed == 0

        monkeypatch.setattr(workloads, "classical_round_trip",
                            lambda msg, *rest: Message(msg.index + 1))
        loop = closed_loop(wl.op, state, NullTracer(), seconds=0.0)
        assert (loop.attempted, loop.failed) == (1, 1)
        assert "decoded" in loop.errors[0]

    def test_a_low_fidelity_counts_as_failed(self, monkeypatch):
        wl = workloads.WORKLOADS["codes_small"]
        state = wl.setup(wl.inputs(5, None), NullTracer(), workloads.DecomposeCache())
        monkeypatch.setattr(workloads, "fidelity", lambda rho, sigma: 1.0 - 1e-6)
        _, error = run_op(wl.op, state, NullTracer(), 0)
        assert "fidelity" in error


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_every_op_passes_and_spans_only_known_layers(self, name, tmp_path):
        wl = workloads.WORKLOADS[name]
        tracer = Tracer()
        state = wl.setup(wl.inputs(3, tmp_path), tracer, workloads.DecomposeCache())
        for op_id in range(2):
            _, error = run_op(wl.op, state, tracer, op_id)
            assert error is None
        names = set(tracer.layer_totals())
        assert names <= set(workloads.LAYER_SPANS) | {"bench.op"}
        decompose.cache_clear()

    def test_decompose_cache_counts_survive_clears(self):
        cache = workloads.DecomposeCache()
        cache.clear()
        decompose(3)
        decompose(3)
        cache.clear()
        decompose(3)
        assert cache.totals() == (1, 2)


def result_line(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return report, result


class TestContract:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        assert [w["name"] for w in self.spec["workloads"]] == list(workloads.WORKLOADS)
        assert [w["why"] for w in self.spec["workloads"]] == [
            w.why for w in workloads.WORKLOADS.values()]

    def test_plain_run_reports_every_end_to_end_metric(self, capsys):
        report, result = result_line(capsys, ["--workload", "codes_small", "--seed", "2",
                                              "--seconds", "0.3", "--trace", "0"])
        expected = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert set(report["e2e"]) == set(run.E2E_UNITS)
        assert report["e2e"]["failed_frac"]["value"] == 0.0
        machine = report["machine"]
        assert machine["seed"] == 2
        assert machine["blas_threads"] is None or 1 <= machine["blas_threads"] <= machine["nproc"]

    def test_traced_run_reports_every_per_layer_metric(self, capsys):
        report, result = result_line(capsys, ["--workload", "codes_small", "--seed", "2",
                                              "--seconds", "0.5", "--trace", "1"])
        expected = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert result["metrics"]["protocols.logical_bell_chsh_trials.calls"]["value"] >= 1
        assert (ROOT / report["spans_file"]).is_file()

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "codes_small",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=120,
                             env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        assert out.returncode != 0
        assert out.stdout == ""
