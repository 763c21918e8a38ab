import json
import subprocess
import sys

import pytest

from etcrit.cli import csv_to_rows, run

G11 = 0.7556989192088165  # eleven-boson critical coupling, full precision


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleCommands:
    def test_crit_id_example(self, capsys):
        code, out, _ = run_cli(capsys, [
            "crit-id", "--well", "exponential", "--mu", "1", "--mass", "1",
            "--N", "2", "--state", "ground", "--D", "3"])
        assert code == 0
        header, row = out.split("\n")[0].split(), out.split("\n")[1].split()
        value = float(row[header.index("g_crit")])
        assert value == pytest.approx(4.156, abs=0.001)

    def test_crit_id_improved(self, capsys):
        code, out, _ = run_cli(capsys, [
            "crit-id", "--N", "2", "--state", "(0,0)", "--method", "improved",
            "--format", "json"])
        row = json.loads(out)[0]
        assert code == 0
        assert row["g_crit"] == pytest.approx(2.9238, abs=1e-3)

    def test_energy_id(self, capsys):
        code, out, _ = run_cli(capsys, [
            "energy-id", "--N", "2", "--g", "40", "--state", "ground",
            "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["energy"] == pytest.approx(-15.71, abs=0.01)

    def test_energy_id_unbound_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "energy-id", "--N", "2", "--g", "0.5", "--state", "(1,1)"])
        assert code == 2
        assert "unbound" in err

    def test_crit_mixed_unbound(self, capsys):
        code, _, err = run_cli(capsys, [
            "crit-mixed", "--Na", "2", "--ma", "1", "--mb", "inf",
            "--well-aa", "exponential", "--well-ab", "exponential",
            "--mu", "1", "--hold", "gab=0.2", "--solve", "gaa"])
        assert code == 2
        assert "unbound" in err

    def test_crit_mixed_static_anchor(self, capsys):
        code, out, _ = run_cli(capsys, [
            "crit-mixed", "--Na", "1", "--mb", "inf", "--hold", "gaa=0",
            "--solve", "gab", "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["critical_value"] == \
            pytest.approx(2.0782, abs=1e-3)

    def test_energy_mixed(self, capsys):
        code, out, _ = run_cli(capsys, [
            "energy-mixed", "--Na", "2", "--mb", "inf", "--gaa", "0",
            "--gab", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["energy"] < 0.0

    def test_oracle_energy(self, capsys):
        code, out, _ = run_cli(capsys, [
            "oracle", "--g", "40", "--l", "0", "--n", "0", "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["value"] == pytest.approx(-17.53, abs=0.01)

    def test_oracle_critical_and_exact(self, capsys):
        code, out, _ = run_cli(capsys, [
            "oracle", "--critical", "--l", "0", "--n", "0", "--format", "json"])
        numeric = json.loads(out)[0]["value"]
        code2, out, _ = run_cli(capsys, [
            "oracle", "--exact", "--n", "0", "--format", "json"])
        exact = json.loads(out)[0]["value"]
        assert code == code2 == 0
        assert numeric == pytest.approx(exact, rel=1e-3)

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["crit-id", "--well", "exponential",
                                        "--mu", "0"])
        assert code == 1
        assert err.strip()

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, ["crit-id", "--frobnicate", "3"])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0


class TestScans:
    def test_fig2_scan_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-mixed", "--vary", "mb",
            "--values", "0.5,1,2,5", "--Na", "10",
            "--hold", f"gaa={G11!r}", "--solve", "gab", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert [r["mb"] for r in rows] == [0.5, 1.0, 2.0, 5.0]
        at_unit_mass = next(r for r in rows if r["mb"] == 1.0)
        assert at_unit_mass["critical_value"] == pytest.approx(0.756, abs=1e-3)

    def test_fig3_scan_crossing_and_unbound(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-mixed", "--vary", "hold",
            "--values", "0.2,2.0,2.16", "--Na", "2", "--mb", "inf",
            "--hold", "gab=1", "--solve", "gaa", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["status"] == "unbound"
        assert rows[0]["critical_value"] is None
        assert rows[1]["critical_value"] > 0.0 > rows[2]["critical_value"]

    def test_scan_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-id", "--vary", "N", "--range", "2:5:1",
            "--format", "json"])
        assert code == 0
        assert [r["N"] for r in json.loads(out)] == [2, 3, 4, 5]

    def test_scan_quantum_numbers(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-id", "--vary", "l", "--values", "0,1,2",
            "--N", "2", "--n", "0", "--format", "json"])
        rows = json.loads(out)
        assert [round(r["g_crit"], 1) for r in rows] == [4.2, 11.5, 22.6]

    def test_scan_method(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-id", "--vary", "method",
            "--values", "plain,improved", "--N", "2", "--n", "0", "--l", "0",
            "--format", "json"])
        rows = json.loads(out)
        assert rows[0]["g_crit"] == pytest.approx(4.156, abs=1e-3)
        assert rows[1]["g_crit"] == pytest.approx(2.924, abs=1e-3)

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "crit-id", "--vary", "N", "--values", "2,3,4",
            "--format", "csv"])
        assert code == 0
        header, rows = csv_to_rows(out)
        from etcrit.cli import rows_to_csv
        rebuilt = rows_to_csv(header, [dict(zip(header, r)) for r in rows])
        assert rebuilt == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, [
            "scan", "crit-id", "--vary", "N", "--values", "2,3",
            "--format", "csv", "--output", str(target)])
        assert code == 0 and out == ""
        header, rows = csv_to_rows(target.read_text())
        assert len(rows) == 2

    def test_scan_error_rows_recorded(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan", "energy-id", "--vary", "g", "--values", "40,-1",
            "--N", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] in ("error", "unbound", "ok")

    def test_geometry_overflow_is_an_error_row(self, capsys):
        # the stationary point found at g_ab = 0.7 lies so far out that its
        # momenta overflow; that point fails, the scan carries on
        code, out, _ = run_cli(capsys, [
            "scan", "energy-mixed", "--vary", "gab",
            "--values", "0.5,0.6,0.7,0.8", "--Na", "3", "--ma", "1",
            "--mb", "5", "--gaa", "1.2", "--well-aa", "exponential",
            "--well-ab", "exponential", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4 and rows[2]["status"] == "error"
        assert rows[2]["detail"].startswith("ConvergenceError:")
        assert rows[2]["gab"] == 0.7

    def test_bad_vary_name(self, capsys):
        code, _, err = run_cli(capsys, [
            "scan", "crit-id", "--vary", "bogus", "--values", "1"])
        assert code == 1

    def test_programmatic_scan(self):
        from etcrit.cli import ScanSpec, scan

        rows = scan(ScanSpec(command="crit-id", vary="N", values=[2, 3],
                             held={"well": "exponential", "mu": 1.0}))
        assert [r["N"] for r in rows] == [2, 3]
        assert rows[0]["g_crit"] == pytest.approx(4.156, abs=1e-3)

    def test_conflicting_flags_rejected(self, capsys):
        code, _, err = run_cli(capsys, [
            "crit-id", "--N", "2", "--state", "(1,0)", "--n", "1"])
        assert code == 1 and "conflict" in err
        code, _, err = run_cli(capsys, [
            "oracle", "--critical", "--exact", "--n", "0"])
        assert code == 1 and "conflict" in err


class TestConfigFile:
    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("well=exponential\nmu=1\nN=2\nstate=ground\n")
        code, out, _ = run_cli(capsys, [
            "crit-id", "--config", str(cfg), "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["g_crit"] == pytest.approx(4.156, abs=1e-3)

    def test_explicit_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=2\n")
        code, out, _ = run_cli(capsys, [
            "crit-id", "--config", str(cfg), "--N", "3", "--format", "json"])
        assert json.loads(out)[0]["N"] == 3

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, ["crit-id", "--config", "/no/such/file"])
        assert code == 1


class TestValidateCommand:
    def test_reports_every_criterion(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["validate"])
        lines = [ln for ln in out.splitlines() if "criterion" in ln]
        assert len(lines) == 10
        assert all(ln.startswith("PASS") for ln in lines), lines
        assert code == 0

        # a broken constant (the fault test_acceptance injects) exits 1
        from etcrit import critical

        real = critical.well_factor
        monkeypatch.setattr(critical, "well_factor",
                            lambda well: 1.001 * real(well))
        code, out, _ = run_cli(capsys, ["validate"])
        assert code == 1
        assert "FAIL criterion  1" in out


class TestEntryPoint:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "etcrit", "crit-id", "--N", "2",
             "--format", "json"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        assert json.loads(out.stdout)[0]["g_crit"] == \
            pytest.approx(4.156, abs=1e-3)
