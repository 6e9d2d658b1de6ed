import importlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from binoether.expr import Num, PhaseSpace, parse
from binoether.geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv
from binoether.systems import SystemFileError, SystemSpec, builtin_system, load_system, run_report
from binoether.spectral import SpectralError
from binoether.verify import (
    CheckConfig,
    CheckReport,
    Trajectory,
    sample_regular_points,
    trajectory_drift,
)
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
        for key, line in (("name", 4), ("dof", 5)):
            text = VALID_N1.replace(f"{key} = ", f"{key} = 2\n{key} = ", 1)
            with pytest.raises(SystemFileError, match=f"^line {line}: duplicate '{key}' entry$"):
                load_system(write_system(tmp_path, text))
        text = VALID_N1 + "\n[system]\ndof = 2\n"
        with pytest.raises(SystemFileError, match="^line 16: duplicate 'dof' entry$"):
            load_system(write_system(tmp_path, text))

    def test_repeated_coordinate_named(self, tmp_path):
        text = VALID_N1.replace("W(q1,p1) = -p1", "W(q1,p1) = -p1\nW(q1,q1) = 1")
        with pytest.raises(SystemFileError,
                           match=r"^line 8: repeated coordinate 'q1' in W\(q1,q1\)$"):
            load_system(write_system(tmp_path, text))

    def test_a_byte_order_mark_is_read(self, tmp_path):
        # as Windows editors save UTF-8
        for text in (VALID_N1, (FIXTURES / "dissipative-n2.sys").read_text(encoding="utf-8")):
            path = tmp_path / "bom.sys"
            path.write_text(text, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            assert repr(load_system(path)) == repr(load_system(write_system(tmp_path, text)))

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

    @pytest.mark.parametrize("old, new, error", [
        ("W(q1,p1)", "V(q1,p1)", "line 7: expected 'W(a,b) = <expr>', got key 'V(q1,p1)'"),
        ("dof = 1", "dof 1", "line 4: expected 'key = value'"),
        ("dof = 1", "dof = one", "line 4: dof must be an integer, got 'one'"),
        ("dof = 1", "dof = 1\ncolor = red", "line 5: unknown [system] key 'color'"),
        ("W(q1,p1) = -p1", "", "missing mandatory section [poisson]"),
        ("h = ", "H = ", "line 10: expected 'h = <expr>', got key 'H'"),
        ("h = p1 + q1", "", "missing mandatory [hamiltonian] entry 'h'"),
        ("h = p1 + q1", "h = p1 + 1e999*q1", "line 10, column 10: numeric literal '1e999'"
         " exceeds the float range (at offset 5)"),
        ("h = p1 + q1", "h = " + "(" * 200 + "p1 + q1" + ")" * 200,
         "line 10, column 5: expression nested too deeply (at offset 0)"),
    ], ids=["w-key", "no-equals", "dof-text", "system-key", "no-poisson", "h-key", "no-h",
            "literal-overflow", "nesting"])
    def test_rejects_with_its_message(self, tmp_path, old, new, error):
        with pytest.raises(SystemFileError) as err:
            load_system(write_system(tmp_path, VALID_N1.replace(old, new)))
        assert str(err.value) == error

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(VALID_N1.splitlines()) | st.text(max_size=30), max_size=16))
    @example(VALID_N1.replace("h = p1 + q1", "h = p1 + 1e999*q1").splitlines())
    @example(VALID_N1.replace("h = p1 + q1", "h = " + "(" * 200 + "p1 + q1" + ")" * 200).splitlines())
    def test_any_text_loads_or_raises_a_system_file_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.sys"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                load_system(path)
            except SystemFileError:
                pass


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

    def test_drift_nan_step_error_is_an_error_record(self):
        # the flow's right-hand side overflows to -inf in the first step
        spec = builtin_system("dissipative", 1)
        W = MultiVectorField(spec.space, 2, {(0, 1): Num(1.0)})
        h = parse("p1*p1*1e300*1e300", spec.space)
        report = run_report(
            SystemSpec(spec.space, W, h, spec.E, "overflow"), FAST, PhasePoint((0.5, 3.0))
        )
        record = report.record("conservation_drift")
        assert not record.passed
        assert record.notes == "error: step error estimate nan/unit time exceeds 1.000e-08 at t = 0"

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

    @pytest.mark.parametrize("w, e, error", [
        # 3000 nested sums: differentiating W exceeds the recursion limit
        ("-(" + " + ".join(["p1"] * 3000) + ")/3000", "(p1 + q1)^2",
         "maximum recursion depth exceeded"),
    ], ids=["deep-sum"])
    def test_a_deformation_that_cannot_be_built_leaves_error_records(self, tmp_path, w, e, error):
        text = (VALID_N1.replace("W(q1,p1) = -p1", f"W(q1,p1) = {w}")
                .replace("E(q1) = (p1 + q1)^2", f"E(q1) = {e}"))
        report = run_report(load_system(write_system(tmp_path, text)), FAST)
        assert len(report.records) == 10 and not report.verdict
        # every check that needs L_E W errs: W's samples and L_E W both fail
        # to build here, and a build that raises is not kept for the next check
        for check_id in ("non_noether", "yang_baxter", "compat_mixed", "compat_deformed",
                         "spectral_routes", "conservation_drift", "involution"):
            record = report.record(check_id)
            assert not record.passed and record.notes.startswith(f"error: {error}"), check_id

    def test_a_recursion_error_reads_the_same_from_any_stack_depth(self, tmp_path):
        # Python words a RecursionError by the depth at which it was raised:
        # the deep-sum report must not depend on its caller's stack depth
        w = "-(" + " + ".join(["p1"] * 3000) + ")/3000"
        spec = load_system(write_system(tmp_path, VALID_N1.replace("-p1", w, 1)))

        def deeper(k):
            return run_report(spec, FAST) if k == 0 else deeper(k - 1)

        report = deeper(0)
        assert deeper(1).to_json() == report.to_json()
        for check_id in ("non_noether", "yang_baxter", "compat_mixed", "compat_deformed",
                         "spectral_routes", "conservation_drift", "involution"):
            assert report.record(check_id).notes == "error: maximum recursion depth exceeded"

    def test_an_overflowing_literal_product_errs_at_evaluation(self, tmp_path):
        # L_E W and L_E L_E W multiply 1e200 by 1e200: the product stays a
        # node, so every deformation is built, and every record errs where
        # sin(inf) is evaluated
        text = VALID_N1.replace("W(q1,p1) = -p1", "W(q1,p1) = 2 + sin((1e200*q1)*(1e200*q1))")
        report = run_report(load_system(write_system(tmp_path, text)), FAST)
        assert len(report.records) == 10 and not report.verdict
        for record in report.records:
            assert not record.passed and record.notes == "error: math domain error", record.id

    def test_an_infinite_deformation_is_not_classified_as_noether(self, tmp_path):
        # [E, W] and its scale are both inf, and inf <= tol * inf: the
        # symmetry cannot be classified, so no record is called vacuous
        text = VALID_N1.replace("-p1\n", "1e200\n").replace("(p1 + q1)^2", "1e200*q1")
        report = run_report(load_system(write_system(tmp_path, text)), FAST)
        record = report.record("non_noether")
        assert record.residual == record.scale == float("inf")
        assert not record.passed and "cannot be classified" in record.notes
        assert not any("vacuous" in r.notes for r in report.records)

    @pytest.mark.parametrize("generator", ["q1/1e-200", "(1e10*q1)/1e-300"])
    def test_generators_divided_by_extreme_literals_get_derivatives(self, tmp_path, generator):
        # their derivatives once held 0.0/0.0 (b*b underflowed) or a literal
        # 1e310, so every bracket check erred; now each runs to a verdict
        text = VALID_N1.replace("(p1 + q1)^2", generator)
        report = run_report(load_system(write_system(tmp_path, text)), FAST)
        for check_id in ("symmetry", "non_noether", "yang_baxter", "compat_mixed",
                         "compat_deformed", "involution"):
            assert not report.record(check_id).notes.startswith("error"), check_id

    def test_a_non_finite_recursion_operator_is_named(self, tmp_path):
        # the derivative of E is the literal 1e10/1e-300 = inf, so W_hat and
        # N = W^-1 W_hat are inf: the root routes name the operator, not
        # numpy's "Array must not contain infs or NaNs"
        text = VALID_N1.replace("(p1 + q1)^2", "(1e10*q1)/1e-300")
        report = run_report(load_system(write_system(tmp_path, text)), FAST)
        for check_id in ("spectral_routes", "conservation_drift"):
            record = report.record(check_id)
            assert not record.passed
            assert record.notes.startswith("error: the recursion operator N = W^-1 What is not"
                                           " finite"), record.notes

    def test_a_non_finite_recursion_operator_names_its_state(self, tmp_path):
        # N is inf everywhere: the spectral routes name the first sample
        # point by its coordinates, as `binoether invariants --at` takes
        # them, and the drift audit its first state by its time, not as
        # "state 0 of 1" of a state-by-state replay
        text = VALID_N1.replace("(p1 + q1)^2", "(1e10*q1)/1e-300")
        spec = load_system(write_system(tmp_path, text))
        report = run_report(spec, FAST)
        q1, p1 = sample_regular_points(spec.W, FAST)[0].coords
        assert report.record("spectral_routes").notes.endswith(
            f" (an inf or NaN entry) at sample point q1={q1!r},p1={p1!r}")
        assert report.record("conservation_drift").notes.endswith(" (an inf or NaN entry) at t = 0")

    def test_the_involution_audit_names_the_same_sample_point(self, tmp_path):
        # at n = 2 the involution audit takes N's roots too: its note names
        # the first sample point as the spectral routes' note does
        text = (FIXTURES / "dissipative-n2.sys").read_text(encoding="utf-8")
        text = text.replace("E(q1) = (p1 + q1)^2", "E(q1) = (1e10*q1)/1e-300")
        spec = load_system(write_system(tmp_path, text))
        report = run_report(spec, FAST)
        first = sample_regular_points(spec.W, FAST)[0].coords
        names = ",".join(f"{k}={v!r}" for k, v in zip(spec.space.names, first))
        notes = report.record("involution").notes
        assert notes == report.record("spectral_routes").notes
        assert notes.endswith(f" (an inf or NaN entry) at sample point {names}"), notes

    def test_a_later_non_finite_state_is_named_by_its_time(self):
        # What = (1e10*q1)/1e-300 is 0 at q1 = 0 and inf at q1 = 0.5, so the
        # third state of the trajectory is the first whose N is not finite
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): parse("-p1", space)})
        What = MultiVectorField(space, 2, {(0, 1): parse("(1e10*q1)/1e-300", space)})
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0], [0.5, 1.0]]))
        with pytest.raises(SpectralError, match=r"\(an inf or NaN entry\) at t = 1$"):
            trajectory_drift(W, What, traj, FAST)

    def test_the_deformation_is_built_once(self, monkeypatch):
        # whichever module calls them, one report samples once, builds
        # L_E W once, takes Lie derivatives only for L_E W and L_E L_E W,
        # and builds N and dN, N's roots and the trace invariants at the
        # samples once each
        spec = builtin_system("dissipative", 2)
        calls = {"lie_derivative_mv": [], "sample_regular_points": [],
                 "operator_jet": [], "operator_roots": [], "trace_invariants": []}

        def counted(name, fn):
            def call(*args):
                calls[name].append(args)
                return fn(*args)
            return call

        for module in ("expr", "geometry", "spectral", "verify", "systems", "cli"):
            module = importlib.import_module(f"binoether.{module}")
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        report = run_report(spec, FAST)
        assert report.verdict
        lie = calls["lie_derivative_mv"]
        assert len(lie) == 2
        assert sum(E is spec.E and W is spec.W for E, W in lie) == 1
        assert len(calls["sample_regular_points"]) == 1
        assert [w.shape[1] for w, _ in calls["operator_jet"]] == [FAST.samples]
        for name in ("operator_roots", "trace_invariants"):
            assert sum(len(args[0]) == FAST.samples for args in calls[name]) == 1, name

    def test_explicit_start_point(self):
        spec = builtin_system("dissipative", 1)
        report = run_report(spec, FAST, start=PhasePoint((0.0, 1.0)))
        assert report.record("conservation_drift").passed
