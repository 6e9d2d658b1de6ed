import os
import subprocess
import sys
from pathlib import Path

import pytest

from binoether import cli, verify
from binoether.cli import main
from binoether.verify import CheckConfig, CheckReport, FlowError, integrate_flow

FIXTURES = Path(__file__).resolve().parent.parent / "systems"
GOLDEN = Path(__file__).resolve().parent / "golden"

DEFORMATION_SYSTEM = """
[system]
name = deformation
dof = 1

[poisson]
W(q1,p1) = {w}

[hamiltonian]
h = p1 + q1

[symmetry]
E(q1) = {e}
"""


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

    def test_integrates_once_and_prints_the_golden_table(self, monkeypatch, capsys):
        # the README example: the drift audit reads the trajectory printed
        calls = []

        def counting_integrate_flow(*args, **kwargs):
            calls.append(args)
            return integrate_flow(*args, **kwargs)

        monkeypatch.setattr(cli, "integrate_flow", counting_integrate_flow)
        monkeypatch.setattr(verify, "integrate_flow", counting_integrate_flow)
        code = main(["flow", "--builtin", "dissipative", "--n", "1", "--from", "q1=0,p1=1",
                     "--t-end", "10", "--dt", "0.001"])
        assert code == 0 and len(calls) == 1
        assert capsys.readouterr().out == (GOLDEN / "flow-dissipative-n1.txt").read_text(
            encoding="utf-8")

    @pytest.mark.filterwarnings("error")
    def test_a_repeated_root_stays_real_along_the_flow(self, capsys):
        # c_1 = c_2 = -1.6: Newton cannot certify a repeated root, and N's
        # eigenvalues, which the audit takes there, keep it real
        code = main(["flow", "--builtin", "dissipative", "--n", "2",
                     "--from", "q1=0.3,q2=0.3,p1=0.5,p2=0.5"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "conservation drift: PASS" in captured.out

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

    def test_a_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, error", [
        ("--seed", "-1", "seed must be non-negative, got -1"),
        ("--box", "1e308", "box must be at most 8.98847e+307, got 1e+308"),
    ])
    def test_a_config_the_sampler_refuses(self, capsys, flag, value, error):
        assert main(["check", "--builtin", "dissipative", "--n", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["flow", "--builtin", "dissipative", "--n", "1", "--from", "q1=0.3,p1=0.5"],
        ["check", "--builtin", "dissipative", "--n", "1"],
    ])
    def test_a_horizon_shorter_than_half_a_step(self, capsys, command):
        # no RK4 step: the drift audit would pass over the start state alone
        assert main([*command, "--t-end", "0.0001"]) == 2
        captured = capsys.readouterr()
        assert "must exceed half of dt" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag, field", [("--t-end", "t_end"), ("--dt", "dt")])
    @pytest.mark.parametrize("command", [
        ["flow", "--builtin", "dissipative", "--n", "1", "--from", "q1=0.3,p1=0.5"],
        ["check", "--builtin", "dissipative", "--n", "1"],
        ["report", "--builtin", "dissipative", "--n", "1"],
    ])
    def test_a_non_finite_config_float(self, capsys, command, flag, field, value):
        assert main([*command, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be finite, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("w, e, error", [
        # 3000 nested sums: differentiating W exceeds the recursion limit
        ("-(" + " + ".join(["p1"] * 3000) + ")/3000", "q1*p1", "maximum recursion depth exceeded"),
    ], ids=["deep-sum"])
    def test_a_deformation_that_cannot_be_built(self, tmp_path, capsys, w, e, error):
        # the stages that need L_E W fail, and the table is still printed
        path = tmp_path / "deformation.sys"
        path.write_text(DEFORMATION_SYSTEM.format(w=w, e=e), encoding="utf-8")
        assert main(["check", str(path), "--points", "8", "--t-end", "2.0", "--dt", "0.005"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  compat_mixed" in out and "verdict: fail" in out
        assert f"error: {error}" in out

    @pytest.mark.parametrize("command", [["invariants", "--at"],
                                         ["flow", "--t-end", "0.01", "--from"]])
    def test_a_deformation_that_cannot_be_built_reports_stop(self, tmp_path, capsys, command):
        # the deep-sum system: one "stopped:" line, exit 1, whatever the stack depth
        path = tmp_path / "deformation.sys"
        w = "-(" + " + ".join(["p1"] * 3000) + ")/3000"
        path.write_text(DEFORMATION_SYSTEM.format(w=w, e="q1*p1"), encoding="utf-8")
        assert main([command[0], str(path), *command[1:], "q1=0.5,p1=0.5"]) == 1
        assert capsys.readouterr().err == "stopped: maximum recursion depth exceeded\n"

    def test_an_overflowing_literal_product_errs_at_evaluation(self, tmp_path, capsys):
        # derivatives of sin((1e200 q1)^2) multiply 1e200 by 1e200: the
        # product stays a node (inf when evaluated), so L_E L_E W is built
        # and yang_baxter errs at evaluation, sin(inf), like every check
        path = tmp_path / "deformation.sys"
        w = "2 + sin((1e200*q1)*(1e200*q1))"
        path.write_text(DEFORMATION_SYSTEM.format(w=w, e="(p1 + q1)^2"), encoding="utf-8")
        assert main(["check", str(path), "--points", "8", "--t-end", "2.0", "--dt", "0.005"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  yang_baxter" in out and "PASS" not in out
        assert out.count("error: math domain error") == len(verify.PAPER_ANCHORS)

    def test_an_infinite_deformation_fails_closed_and_writes_no_stderr(self, tmp_path):
        # a process of its own: pytest would capture numpy's warnings
        # before they reached stderr
        path = tmp_path / "deformation.sys"
        path.write_text(DEFORMATION_SYSTEM.format(w="1e200", e="1e200*q1"), encoding="utf-8")
        src = os.pathsep.join(p for p in (str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-m", "binoether.cli", "check", str(path),
                                 "--points", "8", "--t-end", "2.0", "--dt", "0.005"],
                                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                                timeout=300)
        assert result.returncode == 1 and result.stderr == ""
        assert "FAIL  non_noether" in result.stdout and "cannot be classified" in result.stdout
        assert "vacuous" not in result.stdout

    @pytest.mark.parametrize("command", [["invariants", "--at"],
                                         ["flow", "--t-end", "0.01", "--from"]])
    def test_an_overflowing_node_scale_power_reports_stop(self, tmp_path, capsys, command):
        # ||What|| / ||W|| clamps the node scale to 1e100, whose fourth power
        # overflows: one "stopped:" line, exit 1, as for a SpectralError
        path = tmp_path / "node-power.sys"
        path.write_text("[system]\nname = node-power\ndof = 4\n[poisson]\n"
                        + "".join(f"W(q{i},p{i}) = -1e-30\n" for i in range(1, 5))
                        + "[hamiltonian]\nh = p1\n[symmetry]\n"
                        + "".join(f"E(q{i}) = q{i}*q{i}*1e110\n" for i in range(1, 5)),
                        encoding="utf-8")
        at = "q1=0.5,q2=0.6,q3=0.7,q4=0.8,p1=0.1,p2=0.2,p3=0.3,p4=0.4"
        assert main([command[0], str(path), *command[1:], at]) == 1
        assert capsys.readouterr().err == ("stopped: the pencil's node scale s = 1e+100 overflows:"
                                           " s**4 exceeds the float range\n")

    def test_no_system_given(self, capsys):
        code = main(["check"])
        assert code == 2
        assert "no system given" in capsys.readouterr().err
