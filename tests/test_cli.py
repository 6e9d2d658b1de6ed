from pathlib import Path

import pytest

from binoether import cli
from binoether.cli import main
from binoether.verify import CheckConfig, CheckReport, FlowError

FIXTURES = Path(__file__).resolve().parent.parent / "systems"


class TestCheck:
    def test_builtin_passes(self, capsys):
        code = main(["check", "--builtin", "dissipative", "--n", "1",
                     "--points", "8", "--t-end", "2.0", "--dt", "0.005"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        assert "jacobi" in out and "involution" in out

    def test_file_system(self, capsys):
        code = main(["check", str(FIXTURES / "dissipative-n2.sys"),
                     "--points", "8", "--t-end", "2.0", "--dt", "0.005"])
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_broken_generator_fails(self, capsys):
        code = main(["check", str(FIXTURES / "broken-generator-n1.sys"),
                     "--points", "8", "--t-end", "2.0", "--dt", "0.005"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: fail" in out
        assert "FAIL" in out

    def test_json_flag_writes_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["check", "--builtin", "dissipative", "--n", "1", "--json", str(target),
             "--points", "8", "--t-end", "2.0", "--dt", "0.005"]
        )
        assert code == 0
        report = CheckReport.from_json(target.read_text())
        assert report.verdict

    def test_tolerance_flags_forwarded(self, capsys):
        code = main(
            [
                "check", "--builtin", "dissipative", "--n", "1",
                "--points", "8", "--seed", "7", "--tol", "1e-7",
                "--t-end", "1.0", "--dt", "0.01",
            ]
        )
        assert code == 0


class TestReport:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--points", "8", "--t-end", "2.0", "--dt", "0.005"]
        assert main(["report", "--builtin", "dissipative", "--n", "1", "--json", str(a), *flags]) == 0
        assert main(["report", "--builtin", "dissipative", "--n", "1", "--json", str(b), *flags]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_json_parses(self, capsys):
        code = main(["report", "--builtin", "canonical-noether", "--n", "1",
                     "--points", "8", "--t-end", "2.0", "--dt", "0.005"])
        out = capsys.readouterr().out
        assert code == 0
        report = CheckReport.from_json(out)
        assert report.verdict
        assert report.name == "canonical-noether-n1"


class TestDefaults:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], CheckConfig()),
            (["--points", "9", "--seed", "4", "--tol", "1e-7", "--box", "1.5",
              "--drift-tol", "1e-5", "--t-end", "3.0", "--dt", "0.01"],
             CheckConfig(samples=9, seed=4, tol=1e-7, box=1.5, drift_tol=1e-5, t_end=3.0, dt=0.01)),
        ],
    )
    def test_config_flags_map_to_check_config(self, flags, expected, monkeypatch, capsys):
        seen = []

        def fake_run_report(spec, cfg):
            seen.append(cfg)
            return CheckReport(spec.name, cfg, ())

        monkeypatch.setattr(cli, "run_report", fake_run_report)
        assert main(["report", "--builtin", "dissipative", "--n", "1", *flags]) == 0
        assert seen == [expected]

    def test_flow_flags_default_to_check_config(self, monkeypatch, capsys):
        seen = []

        def fake_integrate_flow(W, h, x0, cfg):
            seen.append(cfg)
            raise FlowError("stop after parsing")

        monkeypatch.setattr(cli, "integrate_flow", fake_integrate_flow)
        assert main(["flow", "--builtin", "dissipative", "--n", "1", "--from", "q1=0,p1=1"]) == 1
        assert seen == [CheckConfig()]

    def test_flow_has_no_seed_flag(self, capsys):
        # the flow samples nothing, so a seed would have no effect
        with pytest.raises(SystemExit) as exit_info:
            main(["flow", "--builtin", "dissipative", "--n", "1", "--from", "q1=0,p1=1",
                  "--seed", "3"])
        assert exit_info.value.code == 2


class TestInvariants:
    def test_values_at_point(self, capsys):
        code = main(
            [
                "invariants", "--builtin", "dissipative", "--n", "2",
                "--at", "q1=1,p1=2,q2=0,p2=1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c1    = -6" in out
        assert "c2    = -2" in out
        assert "Y(1)  = -4" in out
        assert "Y(2)  =  12" in out

    def test_missing_coordinate_is_usage_error(self, capsys):
        code = main(["invariants", "--builtin", "dissipative", "--n", "2", "--at", "q1=1,p1=2"])
        assert code == 2
        assert "missing coordinates" in capsys.readouterr().err

    def test_singular_point_reports_stop(self, capsys):
        code = main(
            ["invariants", "--builtin", "dissipative", "--n", "1", "--at", "q1=1,p1=0"]
        )
        assert code == 1
        assert "stopped" in capsys.readouterr().err


class TestFlow:
    def test_trajectory_and_drift(self, capsys):
        code = main(
            [
                "flow", "--builtin", "dissipative", "--n", "1",
                "--from", "q1=0,p1=1", "--t-end", "2.0", "--dt", "0.001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "conservation drift: PASS" in out

    def test_broken_generator_drifts(self, capsys):
        code = main(
            [
                "flow", str(FIXTURES / "broken-generator-n1.sys"),
                "--from", "q1=0,p1=1", "--t-end", "2.0", "--dt", "0.001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "conservation drift: FAIL" in out


class TestErrors:
    def test_unknown_builtin(self, capsys):
        code = main(["check", "--builtin", "nonsense", "--n", "2"])
        assert code == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["check", "no-such-file.sys"])
        assert code == 2

    def test_no_system_given(self, capsys):
        code = main(["check"])
        assert code == 2
        assert "no system given" in capsys.readouterr().err
