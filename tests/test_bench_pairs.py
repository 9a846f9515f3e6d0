import json
from pathlib import Path

import pytest

import bench_pairs


def _run(pair, side, throughput, latency, failed=0):
    return {"pair": pair, "side": side,
            "result": {"failed": failed,
                       "metrics": {"throughput_ops_s": {"value": throughput, "unit": "1/s"},
                                   "latency_p50_ms": {"value": latency, "unit": "ms"}}}}


def test_summary_of_three_fixed_pairs():
    runs = [_run(1, "parent", 4.0, 200.0), _run(1, "change", 40.0, 20.0),
            _run(2, "change", 50.0, 210.0), _run(2, "parent", 5.0, 210.0),
            _run(3, "parent", 6.0, 190.0, failed=1), _run(3, "change", 3.0, 19.0)]
    summary = bench_pairs.summarize(
        runs, {"throughput_ops_s": "higher", "latency_p50_ms": "lower"})
    assert summary["failed"] == {"parent": 1, "change": 0}

    throughput = summary["metrics"]["throughput_ops_s"]
    assert throughput["pairs"] == 3 and throughput["change_wins"] == 2  # pair 3 lost
    assert throughput["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert throughput["change"] == {"median": 40.0, "q1": 21.5, "q3": 45.0}
    assert throughput["change_over_parent"] == pytest.approx(8.0)

    latency = summary["metrics"]["latency_p50_ms"]
    assert latency["better"] == "lower"
    assert latency["change_wins"] == 2  # pair 2 is a tie, which is no win
    assert latency["parent"]["median"] == 200.0 and latency["change"]["median"] == 20.0


def _fake_checkout(root: Path, body: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body, encoding="utf-8")
    return root


_GOOD_RUN = """import json
print(json.dumps({"report": {"machine": {"cpus": 1}}}))
names = ("throughput_ops_s", "latency_p50_ms", "setup_s", "peak_rss_mb")
print(json.dumps({"failed": 0, "metrics": {n: {"value": 1.0} for n in names}}))
"""
_FAILING_RUN = """import sys
sys.stderr.write("".join(f"line {i}\\n" for i in range(30)) + "boom\\n")
sys.exit(1)
"""


def test_a_failed_run_is_recorded_and_the_rest_still_run(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", _GOOD_RUN)
    change = _fake_checkout(tmp_path / "change", _FAILING_RUN)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--pairs", "2", "--seconds", "1",
                             "--seed", "0", "--out", str(out)])
    assert code == 1
    written = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    runs = {(run["pair"], run["side"]): run for run in written["runs"]}
    assert sorted(runs) == [(1, "change"), (1, "parent"), (2, "change"), (2, "parent")]
    for pair in (1, 2):
        assert runs[pair, "parent"]["result"]["failed"] == 0
        failed = runs[pair, "change"]
        assert failed["exit_code"] == 1
        assert len(failed["stderr_tail"]) == bench_pairs.STDERR_LINES
        assert failed["stderr_tail"][-1] == "boom"
    assert written["summary"] == {"failed": {"parent": 0, "change": 0}, "metrics": {}}
    assert "w pair 2 change: exit code 1" in capsys.readouterr().err
