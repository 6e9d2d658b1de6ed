from pathlib import Path

import numpy as np
import pytest

from binoether.expr import parse
from binoether.geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv
from binoether.systems import SystemFileError, SystemSpec, builtin_system, load_system, run_report
from binoether.verify import CheckConfig, CheckReport
from helpers import random_points

FIXTURES = Path(__file__).resolve().parent.parent / "systems"
CFG = CheckConfig()
# full-fidelity pipeline runs live in the acceptance suite; these exercise
# wiring and report structure with a lighter flow audit
FAST = CheckConfig(samples=8, t_end=2.0, dt=5e-3)


def write_system(tmp_path, text, name="test.sys"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


VALID_N1 = """
[system]
name = friction-n1
dof = 1

[poisson]
W(q1,p1) = -p1

[hamiltonian]
h = p1 + q1

[symmetry]
E(q1) = (p1 + q1)^2
"""


class TestLoadSystem:
    def test_shipped_fixture_matches_builtin(self):
        loaded = load_system(FIXTURES / "dissipative-n2.sys")
        built = builtin_system("dissipative", 2)
        assert loaded.space == built.space
        rng = np.random.default_rng(0)
        for pt in random_points(rng, 4, 16):
            assert np.allclose(evaluate_mv(loaded.W, pt), evaluate_mv(built.W, pt))
            assert np.allclose(evaluate_mv(loaded.E, pt), evaluate_mv(built.E, pt))
            assert loaded.h.eval(pt) == pytest.approx(built.h.eval(pt), rel=1e-14)

    def test_valid_minimal_file(self, tmp_path):
        spec = load_system(write_system(tmp_path, VALID_N1))
        assert spec.name == "friction-n1"
        assert spec.space.n == 1

    def test_name_defaults_to_stem(self, tmp_path):
        text = VALID_N1.replace("name = friction-n1\n", "")
        spec = load_system(write_system(tmp_path, text, name="nameless.sys"))
        assert spec.name == "nameless"

    def test_rejects_decreasing_pair_with_hint(self, tmp_path):
        text = VALID_N1.replace("W(q1,p1) = -p1", "W(p1,q1) = p1")
        with pytest.raises(SystemFileError, match=r"increasing.*W\(q1,p1\)"):
            load_system(write_system(tmp_path, text))

    def test_missing_symmetry_section(self, tmp_path):
        text = VALID_N1.split("[symmetry]")[0]
        with pytest.raises(SystemFileError, match="generator E required"):
            load_system(write_system(tmp_path, text))

    def test_empty_symmetry_section(self, tmp_path):
        text = VALID_N1.split("[symmetry]")[0] + "[symmetry]\n"
        with pytest.raises(SystemFileError, match="generator E required"):
            load_system(write_system(tmp_path, text))

    def test_duplicate_keys_rejected(self, tmp_path):
        text = VALID_N1 + "\n[poisson]\nW(q1,p1) = q1\n"
        with pytest.raises(SystemFileError, match="duplicate component W"):
            load_system(write_system(tmp_path, text))
        text = VALID_N1 + "\n[hamiltonian]\nh = q1\n"
        with pytest.raises(SystemFileError, match="duplicate 'h'"):
            load_system(write_system(tmp_path, text))
        text = VALID_N1 + "\nE(q1) = p1\n"
        with pytest.raises(SystemFileError, match=r"duplicate component E\(q1\)"):
            load_system(write_system(tmp_path, text))

    def test_unknown_coordinate(self, tmp_path):
        text = VALID_N1.replace("E(q1)", "E(q7)")
        with pytest.raises(SystemFileError, match="unknown coordinate 'q7'"):
            load_system(write_system(tmp_path, text))

    def test_expression_error_carries_line_and_column(self, tmp_path):
        text = VALID_N1.replace("h = p1 + q1", "h = p1 + zz")
        with pytest.raises(SystemFileError, match=r"line 10, column 10.*unknown identifier"):
            load_system(write_system(tmp_path, text))

    def test_missing_dof(self, tmp_path):
        text = VALID_N1.replace("dof = 1\n", "")
        with pytest.raises(SystemFileError, match="dof"):
            load_system(write_system(tmp_path, text))

    def test_dof_out_of_range(self, tmp_path):
        with pytest.raises(SystemFileError, match="1..6"):
            load_system(write_system(tmp_path, VALID_N1.replace("dof = 1", "dof = 9")))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(SystemFileError, match=r"unknown section \[extras\]"):
            load_system(write_system(tmp_path, VALID_N1 + "\n[extras]\nx = 1\n"))

    def test_content_before_section(self, tmp_path):
        with pytest.raises(SystemFileError, match="before the first section"):
            load_system(write_system(tmp_path, "dof = 1\n" + VALID_N1))


class TestBuiltin:
    def test_dissipative_n1(self):
        spec = builtin_system("dissipative", 1)
        assert spec.space.n == 1
        assert evaluate_mv(spec.W, (1.0, 2.0))[0, 1] == -2.0
        assert spec.h.eval((1.0, 2.0)) == 3.0
        assert evaluate_mv(spec.E, (1.0, 2.0))[0] == 9.0

    def test_noether_control_has_exactly_vanishing_deformation(self):
        spec = builtin_system("canonical-noether", 2)
        What = lie_derivative_mv(spec.E, spec.W)
        assert What.is_zero()

    def test_size_cap(self):
        with pytest.raises(ValueError, match="1..6"):
            builtin_system("dissipative", 9)
        with pytest.raises(ValueError, match="1..6"):
            builtin_system("dissipative", 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_system("harmonic", 2)


class TestRunReport:
    def test_dissipative_n2_all_mandatory_pass(self):
        report = run_report(builtin_system("dissipative", 2), FAST)
        assert report.verdict
        for check_id in (
            "jacobi",
            "regularity",
            "symmetry",
            "yang_baxter",
            "compat_mixed",
            "compat_deformed",
            "spectral_routes",
            "conservation_drift",
            "involution",
        ):
            assert report.record(check_id).passed, check_id
        assert len(report.spectrum_samples) == FAST.samples

    def test_drift_domain_error_keeps_its_message(self):
        # What holds ln(p1 - 0.5); the flow from p1 = 1 drives p1 below 0.5
        # at t = ln 2 while W = -p1 stays regular
        spec = builtin_system("dissipative", 1)
        E = MultiVectorField(spec.space, 1, {(1,): parse("ln(p1 - 0.5)", spec.space)})
        report = run_report(
            SystemSpec(spec.space, spec.W, spec.h, E, "ln-generator"), FAST, PhasePoint((0.0, 1.0))
        )
        record = report.record("conservation_drift")
        assert not record.passed
        assert record.notes == "error: ln of a non-positive value in 'ln(p1 - 0.5)'"

    def test_noether_control_report(self):
        report = run_report(builtin_system("canonical-noether", 2), FAST)
        assert report.verdict
        assert report.record("symmetry").passed
        nn = report.record("non_noether")
        assert nn.residual <= 1e-12
        assert "Noether" in nn.notes and "non-Noether" not in nn.notes
        for check_id in ("spectral_routes", "conservation_drift", "involution"):
            assert "vacuous" in report.record(check_id).notes

    def test_broken_generator_fails(self):
        spec = load_system(FIXTURES / "broken-generator-n1.sys")
        report = run_report(spec, FAST)
        assert not report.record("symmetry").passed
        assert not report.verdict

    def test_json_roundtrip_and_determinism(self):
        from binoether.verify import CheckReport

        spec = builtin_system("dissipative", 1)
        report = run_report(spec, FAST)
        text = report.to_json()
        assert CheckReport.from_json(text) == report
        again = run_report(builtin_system("dissipative", 1), CheckConfig(samples=8, t_end=2.0, dt=5e-3))
        assert again.to_json() == text

    def test_every_check_errors_into_its_own_record(self):
        # W = 0 has no regular point, so every sampled check raises; each id
        # (both compatibility records included) must still get a failing
        # record under the anchor its success path uses
        spec = builtin_system("dissipative", 1)
        zero_w = SystemSpec(spec.space, MultiVectorField.zero(spec.space, 2), spec.h, spec.E, "zero-w")
        report = run_report(zero_w, FAST)
        golden = Path(__file__).resolve().parent / "golden" / "dissipative-n1.json"
        success = CheckReport.from_json(golden.read_text(encoding="utf-8"))
        assert [r.id for r in report.records] == [r.id for r in success.records]
        assert len(report.records) == 10
        for r in report.records:
            assert not r.passed and r.notes.startswith("error: "), r.id
            assert r.paper_anchor == success.record(r.id).paper_anchor, r.id
        assert not report.verdict

    def test_explicit_start_point(self):
        spec = builtin_system("dissipative", 1)
        report = run_report(spec, FAST, start=PhasePoint((0.0, 1.0)))
        assert report.record("conservation_drift").passed
