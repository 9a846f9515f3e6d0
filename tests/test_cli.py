import gc
import json
import os
import tracemalloc

import numpy as np
import pytest

from framefree.cli import RunConfig, emit_report, main, parse_args, run_command
from framefree.core import DensityOperator, StateVector
from framefree import cli, irreps
from framefree.irreps import HalfInteger, decompose
from framefree.protocols import RateRow, noiseless_subsystem_plan
from framefree.twirl import TwirlChannel

SINGLET = StateVector.normalized([0.0, 1.0, -1.0, 0.0])


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None


class TestParseArgs:
    def test_decompose_defaults(self):
        cfg = parse_args(["decompose", "--n", "4"])
        assert cfg == RunConfig(command="decompose", n=4, trials=1000, seed=42,
                                tolerance=1e-9, output_format="json", output_path=None)

    def test_rates_csv(self):
        cfg = parse_args(["rates", "--max-n", "64", "--output", "csv"])
        assert cfg.command == "rates"
        assert cfg.n == 64
        assert cfg.output_format == "csv"

    @pytest.mark.parametrize("command, n", [
        ("decompose", 4), ("rates", 16), ("twirl-check", 2), ("classical", 2),
        ("quantum", 0), ("optics", 0), ("bell", 0)])
    def test_a_bare_command_takes_every_default(self, command, n):
        assert parse_args([command]) == RunConfig(
            command=command, n=n, trials=1000, seed=42, tolerance=1e-9,
            output_format="json", output_path=None, singlet_first=False)

    def test_out_of_range_n_exits_2(self, capsys):
        for value, message in (("999", "value must be in 1..12, got 999"),
                               ("abc", "invalid qubit count value: 'abc'")):
            assert main(["classical", "--n", value]) == 2
            err = capsys.readouterr().err
            assert "usage" in err and f"argument --n: {message}" in err

    def test_out_of_range_max_n_exits_2(self, capsys):
        for value, message in (("65", "value must be in 1..64, got 65"),
                               ("0", "value must be in 1..64, got 0"),
                               ("abc", "invalid qubit count value: 'abc'")):
            assert main(["rates", "--max-n", value]) == 2
            assert f"argument --max-n: {message}" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_trials_exits_2(self, capsys):
        for value, message in (("0", "value must be positive, got 0"),
                               ("abc", "invalid positive integer value: 'abc'")):
            assert main(["bell", "--trials", value]) == 2
            assert f"argument --trials: {message}" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        for value, message in (("-1", "value must be nonnegative, got -1"),
                               ("abc", "invalid nonnegative integer value: 'abc'")):
            assert main(["bell", "--trials", "2", "--seed", value]) == 2
            assert f"argument --seed: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1", "abc"])
    def test_non_finite_or_nonpositive_tolerance_exits_2(self, capsys, tolerance):
        assert main(["quantum", "--trials", "2", "--tolerance", tolerance]) == 2
        message = ("invalid positive number value: 'abc'" if tolerance == "abc"
                   else "value must be positive and finite")
        assert f"argument --tolerance: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["-1e-9", "-1E-9", "-inf"])
    def test_negative_float_spellings_reach_the_range_check(self, capsys, tolerance):
        # argparse's own pattern takes these for option flags
        for argv in (["--tolerance", tolerance], [f"--tolerance={tolerance}"]):
            assert main(["quantum", "--trials", "2", *argv]) == 2
            err = capsys.readouterr().err
            assert f"--tolerance: value must be positive and finite, got {float(tolerance)}" in err

    def test_valid_tolerances_parse_as_before(self):
        for text in ("1e-9", "1E-12", "0.5", "3"):
            assert parse_args(["quantum", "--tolerance", text]).tolerance == float(text)
            assert parse_args(["quantum", f"--tolerance={text}"]).tolerance == float(text)

    def test_singlet_first_flag(self):
        assert parse_args(["classical", "--n", "2", "--singlet-first"]).singlet_first

    def test_singlet_first_with_another_n_exits_2(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        for n in ("1", "3", "10"):
            assert main(["classical", "--n", n, "--singlet-first", "--out-file", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "usage: framefree classical" in captured.err
            assert "argument --singlet-first: only applies to --n 2" in captured.err


_SAMPLED = ("twirl-check", "classical", "quantum", "optics", "bell")
# (a valid value, the RunConfig field and value it sets, a rejected value, its message)
_SHARED = {
    "--trials": ("7", "trials", 7, "0", "value must be positive, got 0"),
    "--seed": ("7", "seed", 7, "-1", "value must be nonnegative, got -1"),
    "--tolerance": ("0.5", "tolerance", 0.5, "0", "value must be positive and finite, got 0.0"),
}
_KEPT = [(c, f) for f in _SHARED for c in _SAMPLED if (c, f) != ("optics", "--tolerance")]
_REMOVED = [(c, f) for c in ("decompose", "rates") for f in _SHARED] + [("optics", "--tolerance")]


class TestOptionTable:
    """Each command takes only the options its handler reads."""

    @pytest.mark.parametrize("command, flag", _REMOVED)
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, command, flag):
        assert main([command, flag, _SHARED[flag][0]]) == 2
        err = capsys.readouterr().err
        assert f"framefree: error: unrecognized arguments: {flag} {_SHARED[flag][0]}" in err

    @pytest.mark.parametrize("command, flag", _KEPT)
    def test_a_kept_option_parses_and_checks_its_value(self, capsys, command, flag):
        good, field, value, bad, message = _SHARED[flag]
        assert getattr(parse_args([command, flag, good]), field) == value
        assert main([command, flag, bad]) == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    def test_thirty_three_settable_values(self):
        # every command also takes --output and --out-file
        assert sum(len(c.options) + 2 for c in cli._COMMANDS.values()) == 33

    @pytest.mark.parametrize("command", ["decompose", "rates"])
    def test_an_exact_command_builds_no_random_source(self, capsys, monkeypatch, command):
        def refuse(seed):
            raise AssertionError("no draw, so no RandomSource")

        monkeypatch.setattr(cli, "RandomSource", refuse)
        assert main([command]) == 0


_READ = {"decompose": {"n"}, "rates": {"n"}, "twirl-check": {"n", "trials", "seed", "tolerance"},
         "classical": {"n", "singlet_first", "trials", "seed", "tolerance"},
         "quantum": {"trials", "seed", "tolerance"}, "optics": {"trials", "seed"},
         "bell": {"trials", "seed", "tolerance"}}


@pytest.mark.parametrize("command", _READ)
def test_a_report_echoes_only_the_settings_its_command_reads(command, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, command,
                        cli._COMMANDS[command]._replace(handler=lambda cfg: ({}, ())))
    config = run_command(parse_args([command])).config
    assert set(config) == _READ[command] | {"command", "output_format", "output_path"}


class TestCommands:
    def test_decompose_payload(self, capsys):
        code, report = run_json(capsys, ["decompose", "--n", "4"])
        assert code == 0
        assert report["payload"]["j2"] == [4, 2, 0]
        assert report["payload"]["multiplicity"] == [1, 3, 2]
        assert report["payload"]["total"] == 6
        assert report["passed"] is True

    def test_total_verdict_fails_on_a_wrong_table(self, monkeypatch):
        decompose(4)  # the factors are built and cached from the true table
        wrong = {4: 1, 2: 2, 0: 5}  # 2j: c, 16 dimensions in 8 blocks, against C(4, 2) = 6
        monkeypatch.setattr(irreps, "multiplicity", lambda n, j: wrong[HalfInteger.of(j).twice])
        irreps._multiplicity_table.cache_clear()
        try:
            verdicts = {v.name: v for v in run_command(RunConfig("decompose", n=4)).verdicts}
        finally:
            irreps._multiplicity_table.cache_clear()
        assert verdicts["dimension_sum_matches"].passed
        assert not verdicts["total_matches_closed_form"].passed
        assert verdicts["total_matches_closed_form"].value == 2.0

    def test_classical_runs_clean(self, capsys):
        code, report = run_json(capsys, ["classical", "--n", "2", "--trials", "100"])
        assert code == 0
        assert report["payload"]["errors"] == 0

    def test_classical_singlet_first(self, capsys):
        code, report = run_json(
            capsys, ["classical", "--n", "2", "--trials", "20", "--singlet-first"])
        assert code == 0
        assert report["payload"]["errors"] == 0

    @pytest.mark.parametrize("singlet_first", [False, True])
    def test_singlet_first_runs_the_singlet_trials_first(self, capsys, monkeypatch,
                                                          singlet_first):
        sent, trial = [], cli.classical_trial

        def recording_trial(codeword, decomposition, g, rng):
            sent.append(codeword)
            return trial(codeword, decomposition, g, rng)

        monkeypatch.setattr(cli, "classical_trial", recording_trial)
        flag = ["--singlet-first"] if singlet_first else []
        code, _ = run_json(capsys, ["classical", "--n", "2", "--trials", "5"] + flag)
        assert code == 0 and len(sent) == 10
        singlet = [abs(abs(c.overlap(SINGLET)) - 1.0) < 1e-12 for c in sent]
        # canonical order sends the triplet's codeword (block 0) first, the singlet last
        assert singlet == [singlet_first] * 5 + [not singlet_first] * 5

    @pytest.mark.parametrize("n, messages", [(10, 252), (12, 924)])
    def test_classical_builds_no_dense_rotation(self, capsys, n, messages):
        decompose(n)  # cached block structure, as in any later call
        tracemalloc.start()
        try:
            code, report = run_json(capsys, ["classical", "--n", str(n), "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert report["payload"]["messages"] == messages and report["payload"]["errors"] == 0
        assert peak < 16 * 4 ** n  # bytes in one 2^n x 2^n complex matrix

    def test_cold_decompose_n12_stores_no_coupling_matrix(self, capsys):
        decompose.cache_clear()
        tracemalloc.start()
        try:
            code, report = run_json(capsys, ["decompose", "--n", "12"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["payload"]["total"] == 924
        assert peak < 2 ** 22  # the 2^12 x 2^12 real matrix alone is 2^27 bytes

    def test_cold_classical_n10_assembles_no_coupling_matrix(self, capsys):
        decompose.cache_clear()
        tracemalloc.start()
        try:
            code, report = run_json(capsys, ["classical", "--n", "10", "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["payload"]["errors"] == 0
        assert peak < 2 ** 23  # bytes in one 2^10 x 2^10 real matrix

    def test_decompose_cache_holds_only_factors(self):
        rho = DensityOperator.maximally_mixed(2 ** 10)
        decompose.cache_clear()
        tracemalloc.start()
        try:
            plan = noiseless_subsystem_plan(10)
            channel = TwirlChannel.full_su2(10)
            channel.apply(rho)
            del plan, channel
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20  # the 2^10 x 2^10 real coupling matrix alone is 2^23 bytes

    def test_twirl_check(self, capsys):
        code, report = run_json(capsys, ["twirl-check", "--n", "2", "--trials", "10"])
        assert code == 0
        residuals = report["payload"]["residuals"]
        assert residuals["full_su2"]["idempotence"] <= 1e-9
        assert residuals["u1_dephasing"]["idempotence"] <= 1e-9

    def test_quantum(self, capsys):
        code, report = run_json(capsys, ["quantum", "--trials", "20"])
        assert code == 0
        for entry in report["payload"]["codes"].values():
            assert entry["min_fidelity"] >= 1.0 - 1e-9

    def test_quantum_verdicts_read_the_largest_deviation(self, capsys, monkeypatch):
        real = cli.fidelity
        monkeypatch.setattr(cli, "fidelity", lambda rho, sigma: 2.0 * real(rho, sigma))
        code, report = run_json(capsys, ["quantum", "--trials", "2"])
        assert code == 1  # min F is 2, but |1 - F| is 1 in every trial
        for verdict in report["verdicts"]:
            assert verdict["value"] > 0.99 and not verdict["passed"]

    def test_quantum_verdicts_are_their_payload_deviations(self, capsys):
        # the three deviations straddle 1e-15 at this seed, so both outcomes are read
        code, report = run_json(capsys, ["quantum", "--trials", "3", "--tolerance", "1e-15"])
        codes = report["payload"]["codes"]
        verdicts = {v["name"].removesuffix("_max_fidelity_deviation"): v
                    for v in report["verdicts"]}
        assert len(report["verdicts"]) == 3 and verdicts.keys() == codes.keys()
        for name, verdict in verdicts.items():
            assert verdict["value"] == codes[name]["max_fidelity_deviation"]
            assert verdict["threshold"] == 1e-15
            assert verdict["passed"] == (verdict["value"] <= 1e-15)
        assert {v["passed"] for v in report["verdicts"]} == {True, False} and code == 1

    def test_quantum_fails_when_the_channel_leaks_out_of_the_code(self, capsys, monkeypatch):
        twirl = TwirlChannel.apply

        def leaky(channel, rho):  # half of every output replaced by |0...0><0...0|
            out = twirl(channel, rho).matrix
            return DensityOperator(0.5 * out + 0.5 * np.diag(np.eye(len(out))[0]))

        monkeypatch.setattr(TwirlChannel, "apply", leaky)
        assert main(["quantum", "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DecodingError"

    def test_optics(self, capsys):
        code, report = run_json(capsys, ["optics", "--trials", "200"])
        assert code == 0
        for run in report["payload"]["runs"]:
            assert run["error_rate"] == 0.0

    def test_bell(self, capsys):
        code, report = run_json(capsys, ["bell", "--trials", "5"])
        assert code == 0
        assert abs(report["payload"]["chsh_value"] - 2.8284271247461903) < 1e-9

    def test_rates_json(self, capsys):
        code, report = run_json(capsys, ["rates", "--max-n", "8"])
        assert code == 0
        rows = report["payload"]["rate_rows"]
        assert rows[1]["classical_rate"] == 0.5
        assert all(row["asymptotic_gap"] > 0 for row in rows if row["n"] >= 2)

    def test_rates_within_unit_interval_reads_both_edges(self, capsys, monkeypatch):
        rows = (RateRow(n=1, classical_rate=1.5, quantum_rate=0.0, dephasing_rate=1.0, j2_max=1),)
        monkeypatch.setattr(cli, "rate_table", lambda n: rows)
        code, report = run_json(capsys, ["rates", "--max-n", "1"])
        verdict = report["verdicts"][0]
        assert verdict["name"] == "rates_within_unit_interval"
        assert verdict["passed"] is False and verdict["value"] == 0.5 and code == 1


class TestEmission:
    def test_json_round_trip_is_bit_exact(self, capsys):
        cfg = parse_args(["rates", "--max-n", "12"])
        report = run_command(cfg)
        text = emit_report(report, cfg)
        capsys.readouterr()
        parsed = json.loads(text)
        for row, emitted in zip(report.payload["rate_rows"], parsed["payload"]["rate_rows"]):
            assert emitted["classical_rate"] == row["classical_rate"]
            assert emitted["asymptotic_gap"] == row["asymptotic_gap"]

    def test_csv_rate_schema(self, capsys):
        code = main(["rates", "--max-n", "6", "--output", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,classical_rate,quantum_rate,dephasing_rate,asymptotic_gap"
        assert len(lines) == 7

    def test_csv_generic_key_value(self, capsys):
        code = main(["decompose", "--n", "2", "--output", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "key,value"

    def test_determinism_apart_from_duration(self, capsys):
        texts = []
        for _ in range(2):
            code = main(["classical", "--n", "2", "--trials", "50", "--seed", "7"])
            assert code == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if '"duration_s"' not in line]
            texts.append("\n".join(lines))
        assert texts[0] == texts[1]  # byte-identical apart from the duration field

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["decompose", "--n", "3", "--out-file", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["payload"]["total"] == 3

    def test_missing_directory_exits_1_and_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code = main(["decompose", "--n", "2", "--out-file", str(target)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "FileNotFoundError"
        assert list(tmp_path.rglob("*")) == []

    def test_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.mkdir()  # os.replace cannot put a file over a directory
        code = main(["decompose", "--n", "2", "--out-file", str(target)])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.is_dir()

    def test_failed_rename_leaves_the_old_file_whole(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "report.json"
        target.write_text("previous report")
        assert main(["decompose", "--n", "2", "--out-file", str(target)]) == 1
        assert json.loads(capsys.readouterr().err)["detail"] == "rename refused"
        assert target.read_text() == "previous report"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_file_replaces_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("stale")
        assert main(["decompose", "--n", "3", "--out-file", str(target)]) == 0
        assert json.loads(target.read_text())["payload"]["total"] == 3
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_unwritable_path_exits_1(self, capsys):
        code = main(["decompose", "--n", "2", "--out-file", "/nonexistent/dir/report.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err
