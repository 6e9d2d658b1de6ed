import math
import sys
from pathlib import Path

import numpy as np
import pytest

from binoether.expr import EvalDomainError, Num, PhaseSpace, Var, evaluate_batch, parse
from binoether.geometry import (
    MultiVectorField,
    PhasePoint,
    evaluate_mv,
    hamiltonian_vf,
    lie_derivative_mv,
    poisson_bracket,
)
from binoether.spectral import (
    REGULARITY_FACTOR,
    pencil_coefficients,
    regularity_margin,
    secular_roots,
    y_from_coefficients,
)
from binoether.verify import (
    CheckConfig,
    CheckReport,
    CheckRecord,
    FlowError,
    SamplingError,
    SpectrumSample,
    Trajectory,
    check_compatibility,
    check_involution,
    check_jacobi,
    check_non_noether,
    check_spectral_routes,
    check_symmetry,
    check_yang_baxter,
    conservation_drift,
    integrate_flow,
    sample_regular_points,
)
from binoether.systems import SystemSpec, builtin_system, load_system, run_report
from binoether.verify import _bracket_check, _worst_case
from helpers import (
    bracket_checks,
    coupled_system,
    dense_frame_fields,
    dissipative_fields,
    pointwise_bracket_check,
    random_polynomial,
    var,
)

CFG = CheckConfig()


def rel(record):
    return record.residual / record.scale


def non_jacobi_bivector():
    """W(qi,pi) = qi*pi with the 2-dof perturbation W(q1,q2) = p1: regular
    almost everywhere but with a nonzero Jacobiator."""
    space = PhaseSpace.canonical(2)
    q1, q2 = var(space, "q1"), var(space, "q2")
    p1, p2 = var(space, "p1"), var(space, "p2")
    return space, MultiVectorField(
        space, 2, {(0, 2): q1 * p1, (1, 3): q2 * p2, (0, 1): p1}
    )


class TestConfigAndTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="samples"):
            CheckConfig(samples=4)
        with pytest.raises(ValueError, match="dt"):
            CheckConfig(dt=0.0)
        # numpy's sampler would refuse them at every check
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            CheckConfig(seed=-1)
        with pytest.raises(ValueError, match=r"^box must be at most 8\.98847e\+307, got 1e\+308$"):
            CheckConfig(box=1e308)
        assert CheckConfig(box=sys.float_info.max / 2).box == sys.float_info.max / 2

    @pytest.mark.parametrize("t_end, dt", [(1e-4, 1e-3), (5e-4, 1e-3), (0.04, 0.1)])
    def test_a_horizon_of_no_step_is_refused(self, t_end, dt):
        # t_end / dt rounds to 0 steps, so a drift audit would see x0 alone
        with pytest.raises(ValueError, match="t_end must exceed half of dt"):
            CheckConfig(t_end=t_end, dt=dt)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["box", "tol", "t_end", "dt", "drift_tol"])
    def test_non_finite_floats_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            CheckConfig(**{name: value})

    def test_trajectory_requires_uniform_steps(self):
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((3, 2)))

    def test_sampling_error_on_degenerate_bivector(self):
        space = PhaseSpace.canonical(1)
        zero_w = MultiVectorField(space, 2, {})
        with pytest.raises(SamplingError):
            sample_regular_points(zero_w, CFG)


class TestCheckJacobi:
    def test_friction_bivector_passes_exactly(self):
        _, W, _, _ = dissipative_fields(2)
        record = check_jacobi(W, CFG)
        assert record.passed and record.residual <= 1e-12

    def test_canonical_passes(self):
        space = PhaseSpace.canonical(2)
        Wc = MultiVectorField(space, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)})
        assert check_jacobi(Wc, CFG).passed

    def test_perturbed_bivector_fails(self):
        space, V = non_jacobi_bivector()
        # independent oracle: the Jacobiator of coordinate functions at one
        # point; {q1,{q2,p1}} + cyc = p1^2 for this V (nonzero)
        q1, q2, p1 = var(space, "q1"), var(space, "q2"), var(space, "p1")
        pt = PhasePoint((0.7, -0.4, 1.3, 0.9))
        J = (
            poisson_bracket(V, q1, poisson_bracket(V, q2, p1))
            + poisson_bracket(V, q2, poisson_bracket(V, p1, q1))
            + poisson_bracket(V, p1, poisson_bracket(V, q1, q2))
        )
        assert J.eval(pt) == pytest.approx(pt[2] ** 2, rel=1e-12)
        record = check_jacobi(V, CFG)
        assert not record.passed
        assert rel(record) > 1e-3


class TestCheckSymmetry:
    def test_friction_generator_passes_exactly(self):
        _, W, h, E = dissipative_fields(2)
        record = check_symmetry(E, W, h, CFG)
        assert record.passed
        assert record.residual == 0.0  # the two product terms cancel exactly

    def test_field_commutes_with_itself(self):
        _, W, h, _ = dissipative_fields(1)
        X = hamiltonian_vf(W, h)
        assert check_symmetry(X, W, h, CFG).passed

    def test_genuinely_broken_generator_fails(self):
        # E = q1*p1 d/dq1 has [E, W(h)] = p1(q1 - p1) d/dq1 != 0
        space, W, h, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {(0,): var(space, "q1") * var(space, "p1")})
        record = check_symmetry(E, W, h, CFG)
        assert not record.passed
        assert rel(record) > 1e-2

    def test_nan_residual_fails_closed(self):
        # (p1+q1)^2 * 1e400 overflows, so every residual is inf - inf = NaN;
        # a NaN that slipped past the worst-case comparison would pass
        space, W, h, _ = dissipative_fields(1)
        q1, p1 = var(space, "q1"), var(space, "p1")
        big = ((p1 + q1) * Num(1e200)) * ((p1 + q1) * Num(1e200))
        E = MultiVectorField(space, 1, {(0,): big, (1,): -big})
        record = check_symmetry(E, W, h, CFG)
        assert not record.passed
        assert math.isnan(record.residual)

    def test_translation_generator_commutes(self):
        # d/dq1 is a symmetry here (the evolution field depends only on the
        # momenta) - and a Noether one, since W is q-independent
        space, W, h, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {(0,): Num(1.0)})
        assert check_symmetry(E, W, h, CFG).passed
        rec = check_non_noether(E, W, CFG)
        assert "Noether" in rec.notes and "non-Noether" not in rec.notes


class TestCheckNonNoether:
    def test_friction_generator_is_non_noether(self):
        # frozen hand expansion: [E, W] = 2p(p+q) d/dq ^ d/dp != 0
        _, W, _, E = dissipative_fields(1)
        record = check_non_noether(E, W, CFG)
        assert record.passed  # classification record always passes
        assert "non-Noether" in record.notes
        assert record.residual > 1.0

    def test_hamiltonian_generator_is_noether(self):
        rng = np.random.default_rng(1)
        space, W, _, _ = dissipative_fields(2)
        f = random_polynomial(rng, space, max_degree=2)
        E = hamiltonian_vf(W, f)
        record = check_non_noether(E, W, CFG)
        assert "Noether" in record.notes and "non-Noether" not in record.notes

    def test_zero_generator_is_noether(self):
        space, W, _, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {})
        record = check_non_noether(E, W, CFG)
        assert record.residual == 0.0 and "Noether" in record.notes


class TestCheckYangBaxter:
    def test_friction_generator_passes(self):
        _, W, _, E = dissipative_fields(2)
        assert check_yang_baxter(E, W, CFG).passed

    def test_noether_generator_passes_trivially(self):
        space, W, _, _ = dissipative_fields(2)
        E = MultiVectorField(space, 1, {})
        record = check_yang_baxter(E, W, CFG)
        assert record.passed and record.residual == 0.0

    def test_two_dimensional_trivector_vanishes(self):
        # n = 1: any degree-3 multivector over a 2-dimensional space is zero,
        # so the condition holds for every generator
        space = PhaseSpace.canonical(1)
        Wc = MultiVectorField(space, 2, {(0, 1): Num(-1.0)})
        q1, p1 = var(space, "q1"), var(space, "p1")
        E = MultiVectorField(space, 1, {(0,): q1 * q1 * p1})
        record = check_yang_baxter(E, Wc, CFG)
        assert record.passed and record.residual == 0.0


class TestCheckCompatibility:
    def test_friction_pair_passes(self):
        _, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        mixed, deformed = check_compatibility(W, What, CFG)
        assert mixed.passed and deformed.passed

    def test_proportional_pair_passes(self):
        _, W, _, _ = dissipative_fields(2)
        mixed, deformed = check_compatibility(W, 3.0 * W, CFG)
        assert mixed.passed and deformed.passed

    def test_unrelated_bivectors_generally_fail(self):
        # V couples the blocks through q1*p2, so [W,V]^{q1 q2 p1} = -p1*p2
        space, W, _, _ = dissipative_fields(2)
        q1, q2 = var(space, "q1"), var(space, "q2")
        p1, p2 = var(space, "p1"), var(space, "p2")
        V = MultiVectorField(
            space, 2, {(0, 2): q1 * p1, (1, 3): q2 * p2, (0, 1): q1 * p2}
        )
        from binoether.geometry import schouten_bb

        # single-point cross-check of the bracket through the polarization
        # identity [W,V] = ([W+V,W+V] - [W,W] - [V,V]) / 2, with each
        # self-bracket measured independently through coordinate Jacobiators
        pt = PhasePoint((0.9, 0.6, 1.4, -1.1))
        coords = [Var(space.names[i], i) for i in range(4)]

        def jacobiator_component(U, i, j, k):
            f, g, h = coords[i], coords[j], coords[k]
            J = (
                poisson_bracket(U, f, poisson_bracket(U, g, h))
                + poisson_bracket(U, g, poisson_bracket(U, h, f))
                + poisson_bracket(U, h, poisson_bracket(U, f, g))
            )
            return J.eval(pt)

        T = schouten_bb(W, V)
        for idx in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            brute = -(
                jacobiator_component(W + V, *idx)
                - jacobiator_component(W, *idx)
                - jacobiator_component(V, *idx)
            )
            got = T.component(idx).eval(pt)
            assert got == pytest.approx(brute, rel=1e-10, abs=1e-10)

        mixed, _ = check_compatibility(W, V, CFG)
        assert not mixed.passed


SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

BRACKET_SYSTEMS = {
    **{f"dissipative-n{n}": (lambda n=n: builtin_system("dissipative", n)) for n in (1, 2, 3, 6)},
    **{f"canonical-noether-n{n}": (lambda n=n: builtin_system("canonical-noether", n))
       for n in (1, 2)},
    **{f"sys-{p.stem}": (lambda p=p: load_system(p)) for p in sorted(SYSTEMS.glob("*.sys"))},
    # large trees whose subtrees are shared objects
    "dense-frame-n2": lambda: SystemSpec(*dense_frame_fields(2, seed=7), "dense-frame-n2"),
}


class TestBatchedBracketCheck:
    """Each identity check evaluates its bracket and scale over all sample
    points in one batched pass, record for record equal to the point route."""

    @pytest.mark.parametrize("case", sorted(BRACKET_SYSTEMS))
    def test_records_equal_the_pointwise_oracle(self, case):
        spec = BRACKET_SYSTEMS[case]()
        points = sample_regular_points(spec.W, CFG)
        if case == "dense-frame-n2":
            # the oracle walks the 1.2e6-node Yang-Baxter trivector at each
            # point (0.25 s); the golden report covers all 32 samples
            points = points[:4]
        for check_id, T, A, B in bracket_checks(spec.W, spec.h, spec.E):
            batched = _bracket_check(check_id, T, A, B, points, CFG.tol)
            assert batched == pointwise_bracket_check(check_id, T, A, B, points, CFG.tol)

    @staticmethod
    def _nan_field(space, nan_first: bool):
        # one component is 0, the other inf - inf = NaN at every sample
        zero = parse("q1 - q1", space)
        nan = parse("p1*1e200*1e200 - p1*1e200*1e200", space)
        first, second = (nan, zero) if nan_first else (zero, nan)
        return MultiVectorField(space, 1, {(0,): first, (1,): second})

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_a_nan_residual_fails_in_either_component_order(self, nan_first):
        # Python's max keeps a finite value met before a NaN, so the point
        # route passed the zero-first order with residual 0.0
        space, W, _, _ = dissipative_fields(1)
        points = sample_regular_points(W, CFG)
        record = _bracket_check("symmetry", self._nan_field(space, nan_first), W, W, points,
                                CFG.tol)
        assert not record.passed
        assert math.isnan(record.residual)

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_a_nan_scale_fails_in_either_component_order(self, nan_first):
        # one component of A and its derivatives are 0, the other's are
        # inf - inf = NaN; the point route's max(0.0, nan, ...) kept 0.0
        space, W, _, _ = dissipative_fields(1)
        q1, p1 = var(space, "q1"), var(space, "p1")
        big = parse("q1*p1*1e200*1e200 - q1*p1*1e200*1e200", space)
        A = MultiVectorField(space, 1, {(0,): p1 * (q1 - q1), (1,): p1 + big} if nan_first
                             else {(0,): p1 + big, (1,): p1 * (q1 - q1)})
        T = MultiVectorField(space, 1, {(0,): q1 - q1})
        points = sample_regular_points(W, CFG)
        record = _bracket_check("symmetry", T, A, A, points, CFG.tol)
        assert record.residual == 0.0
        assert not record.passed
        assert math.isnan(record.scale)

    def test_the_first_error_met_point_by_point_is_raised(self):
        # at the first sample (q1 = 0.548, p1 = -0.921) ln(0.5 - q1) in E,
        # a scale term, is out of its domain while [E, X] is finite; the
        # bracket's own ln(p1 + 1.5) fails only at the second (p1 = -1.934)
        space, W, h, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {(0,): parse("ln(0.5 - q1)", space),
                                        (1,): parse("ln(p1 + 1.5)", space)})
        points = sample_regular_points(W, CFG)
        T = lie_derivative_mv(E, hamiltonian_vf(W, h))
        with pytest.raises(EvalDomainError, match=r"in 'ln\(p1 \+ 1.5\)'"):
            evaluate_batch(T.components.values(), [x.coords for x in points])
        record = run_report(SystemSpec(space, W, h, E, "ln-generator"), CFG).record("symmetry")
        assert record.notes == "error: ln of a non-positive value in 'ln(0.5 - q1)'"
        assert not record.passed


class TestIntegrateFlow:
    def test_closed_form_cross_check(self):
        space, W, h, _ = dissipative_fields(1)
        cfg = CheckConfig(t_end=1.0, dt=1e-3)
        traj = integrate_flow(W, h, PhasePoint((0.0, 1.0)), cfg)
        q_exact = 0.0 + 1.0 * (1 - np.exp(-1.0))
        p_exact = np.exp(-1.0)
        assert abs(traj.states[-1][0] - q_exact) <= 1e-8
        assert abs(traj.states[-1][1] - p_exact) <= 1e-8

    def test_constant_hamiltonian_freezes(self):
        space, W, _, _ = dissipative_fields(1)
        cfg = CheckConfig(t_end=0.5, dt=1e-2)
        traj = integrate_flow(W, Num(7.0), PhasePoint((0.3, 1.2)), cfg)
        assert np.all(traj.states == traj.states[0])

    def test_fixed_point_at_zero_momentum(self):
        # X vanishes at p = 0; W is degenerate there, so the regularity
        # monitor is switched off for this run
        space, W, h, _ = dissipative_fields(1)
        cfg = CheckConfig(t_end=0.5, dt=1e-2)
        traj = integrate_flow(
            W, h, PhasePoint((0.4, 0.0)), cfg, require_regular=False
        )
        assert np.all(traj.states == traj.states[0])

    def test_regularity_monitor_raises(self):
        space, W, h, _ = dissipative_fields(1)
        cfg = CheckConfig(t_end=0.5, dt=1e-2)
        with pytest.raises(FlowError, match="regularity"):
            integrate_flow(W, h, PhasePoint((0.4, 0.0)), cfg)

    def test_step_error_bound_raises(self):
        space, W, h, _ = dissipative_fields(1)
        cfg = CheckConfig(t_end=1.0, dt=0.1)
        with pytest.raises(FlowError, match="step error"):
            integrate_flow(W, h, PhasePoint((0.0, 1.0)), cfg, max_step_error=1e-12)

    def test_nan_step_error_estimate_fails(self):
        # X^q1 = -2e600 p1 overflows to -inf: the full step and the two half
        # steps both reach -inf, so their difference, the estimate, is NaN
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): Num(1.0)})
        h = parse("p1*p1*1e300*1e300", space)
        cfg = CheckConfig(t_end=0.01, dt=1e-3)
        with pytest.raises(FlowError) as err:
            integrate_flow(W, h, PhasePoint((0.5, 3.0)), cfg)
        assert str(err.value) == "step error estimate nan/unit time exceeds 1.000e-08 at t = 0"

    def test_fourth_order_convergence(self):
        space, W, h, _ = dissipative_fields(1)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            cfg = CheckConfig(t_end=1.0, dt=dt)
            traj = integrate_flow(W, h, PhasePoint((0.0, 1.0)), cfg, max_step_error=None)
            q_exact = 1 - np.exp(-1.0)
            p_exact = np.exp(-1.0)
            errs.append(
                max(abs(traj.states[-1][0] - q_exact), abs(traj.states[-1][1] - p_exact))
            )
        assert 12.0 <= errs[0] / errs[1] <= 20.0
        assert 12.0 <= errs[1] / errs[2] <= 20.0


class TestFlowMonitorOrder:
    """Regularity is checked in batches once the steps are done; the error
    raised, and its time, must be those of a check before every step."""

    # margin |p1| / (2 (p1^2 + 1)): lost once p1 < 2e-6 or p1 > 5e5, which
    # |p1| = exp(10 t) or exp(-10 t) from p1 = 1 reaches at t = 1.3122
    SPACE = PhaseSpace.canonical(2)
    W = MultiVectorField(SPACE, 2, {(0, 2): -var(SPACE, "p1"), (1, 3): Num(-1.0)})

    def flow(self, h_text, t_end, W=None, **kwargs):
        cfg = CheckConfig(t_end=t_end, dt=1e-3)
        x0 = PhasePoint((0.0, 0.0, 1.0, 1.0))
        W = self.W if W is None else W
        return integrate_flow(W, parse(h_text, self.SPACE), x0, cfg, **kwargs)

    def test_regularity_lost_mid_trajectory(self):
        with pytest.raises(FlowError) as err:
            self.flow("10*q1 + p2", 2.0)
        assert str(err.value) == "regularity lost at t = 1.313"

    def test_loss_before_a_step_error(self):
        # p1 grows; the step error passes 1e-3 near t = 1.68, after the loss
        with pytest.raises(FlowError) as err:
            self.flow("-10*q1 + p2", 2.0, max_step_error=1e-3)
        assert str(err.value) == "regularity lost at t = 1.313"

    def test_loss_before_an_error_inside_a_step(self):
        # q1' holds ln(p1 - 1e-6), out of its domain from t = 1.38 on
        with pytest.raises(FlowError) as err:
            self.flow("10*q1 + p2 + p1*ln(p1 - 0.000001)", 2.0)
        assert str(err.value) == "regularity lost at t = 1.313"

    def test_loss_before_an_error_in_w(self):
        # W itself leaves its domain where p1 < 1e-6 (t = 1.382), in the
        # same block of states as the loss; X = W(h) never reads that entry
        term = parse("ln(p1 - 0.000001) - ln(p1 - 0.000001)", self.SPACE)
        W = MultiVectorField(self.SPACE, 2, {(0, 2): -var(self.SPACE, "p1"), (1, 3): term - 1.0})
        with pytest.raises(FlowError) as err:
            self.flow("10*q1", 2.0, W)
        assert str(err.value) == "regularity lost at t = 1.313"

    def test_step_error_before_any_loss(self):
        with pytest.raises(FlowError) as err:
            self.flow("-10*q1 + p2", 2.0)
        assert str(err.value) == (
            "step error estimate 1.004e-08/unit time exceeds 1.000e-08 at t = 0.526"
        )

    def test_final_state_is_not_monitored(self):
        traj = self.flow("10*q1 + p2", 1.313)
        assert len(traj) == 1314
        assert regularity_margin(evaluate_mv(self.W, traj.states[-1])) <= REGULARITY_FACTOR


class TestConservationDrift:
    def test_friction_model_conserves(self):
        space, W, h, E = dissipative_fields(2)
        record = conservation_drift(W, E, h, PhasePoint((0.1, -0.4, 1.3, 0.8)), CFG)
        assert record.passed
        assert rel(record) <= 1e-6

    @pytest.mark.parametrize("t_end, horizon", [(0.0025, "0.002"), (10.0, "10")])
    def test_notes_name_the_horizon_integrated(self, t_end, horizon):
        # 0.0025 / 1e-3 rounds to 2 steps, which end at t = 0.002
        _, W, h, E = dissipative_fields(1)
        record = conservation_drift(W, E, h, PhasePoint((0.3, 0.5)), CheckConfig(t_end=t_end))
        assert f"relative drifts over T={horizon}: " in record.notes

    def test_noether_generator_all_zero(self):
        space, W, h, E = dissipative_fields(2)
        zero_E = MultiVectorField(space, 1, {})
        cfg = CheckConfig(t_end=2.0, dt=5e-3)
        record = conservation_drift(W, zero_E, h, PhasePoint((0.1, -0.4, 1.3, 0.8)), cfg)
        assert record.passed and record.residual == 0.0

    def test_broken_generator_drifts(self):
        # E = q1*p1 d/dq1 fails the symmetry check and its root c = -p1
        # decays along the flow: the drift audit must catch it
        space, W, h, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {(0,): var(space, "q1") * var(space, "p1")})
        assert not check_symmetry(E, W, h, CFG).passed
        cfg = CheckConfig(t_end=2.0, dt=5e-3)
        record = conservation_drift(W, E, h, PhasePoint((0.0, 1.0)), cfg)
        assert not record.passed
        assert rel(record) > 1e-2


class TestDriftRefinement:
    def test_drift_bounded_at_every_step_size(self):
        # c_i here are functions of the linear invariants p_i + q_i, which
        # every Runge-Kutta scheme preserves exactly, so the drift sits at
        # the rounding floor for all dt (never above the tolerance, and in
        # particular bounded at the default step)
        space, W, h, E = dissipative_fields(1)
        x0 = PhasePoint((0.2, 1.1))
        drifts = []
        for dt in (0.02, 0.005, 0.001):
            cfg = CheckConfig(t_end=5.0, dt=dt)
            record = conservation_drift(W, E, h, x0, cfg)
            drifts.append(rel(record))
        assert all(d <= 1e-12 for d in drifts), drifts
        assert drifts[-1] <= CheckConfig().drift_tol


def _with_nan(grads):
    grads = grads.copy()
    grads[3, 1, 0] = math.nan
    return grads


# gradient route used by check_involution -> the same route with one NaN
# gradient entry at the fourth point
NAN_POISONS = {
    "trace_invariants": lambda route: lambda *args: (route(*args)[0], _with_nan(route(*args)[1])),
    "root_pair_gradients": lambda route: lambda *args: _with_nan(route(*args)),
}


class TestCheckInvolution:
    def test_friction_n2_passes_both_brackets(self):
        _, W, _, E = dissipative_fields(2)
        record = check_involution(W, E, CFG)
        assert record.passed
        assert rel(record) <= 1e-8

    def test_n1_vacuous_pair_set(self):
        _, W, _, E = dissipative_fields(1)
        record = check_involution(W, E, CFG)
        assert record.passed
        assert "single invariant" in record.notes

    def test_repeated_roots_skip_root_pairs(self):
        # a proportional deformation has all roots equal at every point
        space, W, _, _ = dissipative_fields(2)
        E_noether = MultiVectorField(space, 1, {})
        record = check_involution(W, E_noether, CFG)
        assert record.passed
        assert "skipped" in record.notes

    def test_n6_passes_for_every_sampling_seed(self):
        # the verdict must not depend on where the points fall: root pairs
        # close together once made the jet-based brackets exceed tol
        spec = builtin_system("dissipative", 6)
        failing = [seed for seed in range(100)
                   if not check_involution(spec.W, spec.E, CheckConfig(seed=seed)).passed]
        assert failing == []

    def test_coupled_generator_passes_for_every_sampling_seed(self, tmp_path):
        # N is not normal here: root-pair gradients from eigenvectors of N
        # failed or raised LinAlgError at most of these seeds
        spec = coupled_system(tmp_path)
        failing = [seed for seed in range(100)
                   if not check_involution(spec.W, spec.E, CheckConfig(seed=seed)).passed]
        assert failing == []

    @pytest.mark.parametrize("route", sorted(NAN_POISONS))
    def test_nan_gradient_fails(self, monkeypatch, route):
        import binoether.verify as verify

        monkeypatch.setattr(verify, route, NAN_POISONS[route](getattr(verify, route)))
        _, W, _, E = dissipative_fields(2)
        record = check_involution(W, E, CFG)
        assert not record.passed
        assert math.isnan(record.residual)


class TestCheckSpectralRoutes:
    def test_samples_take_n_roots_and_pencil_invariants(self):
        spec = builtin_system("dissipative", 3)
        What = lie_derivative_mv(spec.E, spec.W)
        record, samples = check_spectral_routes(spec.W, What, CFG)
        assert record.passed and rel(record) <= 1e-12
        for s in samples:
            coeffs = pencil_coefficients(spec.W, What, s.point)
            assert s.c == secular_roots(spec.W, What, s.point).roots
            assert s.y == tuple(float(v) for v in y_from_coefficients(coeffs))

    def test_a_wrong_trace_route_fails(self, monkeypatch):
        # the second route is independent of the pencil: perturbing it
        # alone must show up as a route gap
        import binoether.verify as verify

        original = verify.trace_invariants
        monkeypatch.setattr(verify, "trace_invariants",
                            lambda *args: (original(*args)[0] * (1 + 1e-6), None))
        spec = builtin_system("dissipative", 3)
        record, _ = check_spectral_routes(spec.W, lie_derivative_mv(spec.E, spec.W), CFG)
        assert not record.passed


class TestTheoremChainSoundness:
    def test_hypotheses_imply_conclusions(self):
        # whenever Jacobi + symmetry + Yang-Baxter pass, conservation and
        # involution must pass too; a counterexample would be a bug here
        for n in (1, 2, 3):
            space, W, h, E = dissipative_fields(n)
            hypotheses = [
                check_jacobi(W, CFG),
                check_symmetry(E, W, h, CFG),
                check_yang_baxter(E, W, CFG),
            ]
            if all(r.passed for r in hypotheses):
                x0 = PhasePoint(tuple(0.2 * (i + 1) for i in range(2 * n)))
                assert conservation_drift(W, E, h, x0, CFG).passed
                assert check_involution(W, E, CFG).passed


class TestReportSerialization:
    def _tiny_report(self):
        records = (
            CheckRecord("jacobi", "[W,W] = 0", 0.0, 1.25, True, 32, "ok"),
            CheckRecord("symmetry", "[E,W(h)] = 0", 3.5e-10, 2.0, True, 32),
        )
        samples = (SpectrumSample((1.0, 2.0), (-6.0,), (-6.0,)),)
        return CheckReport("demo", CheckConfig(), records, samples)

    def test_json_roundtrip(self):
        report = self._tiny_report()
        again = CheckReport.from_json(report.to_json())
        assert again == report
        assert again.verdict == report.verdict

    def test_verdict_is_conjunction_of_mandatory(self):
        report = self._tiny_report()
        failing = CheckRecord("drift", "d/dt = 0", 1.0, 1.0, False, 10)
        report2 = CheckReport("demo", CheckConfig(), report.records + (failing,))
        assert report.verdict and not report2.verdict
        informative = CheckRecord("note", "x", 1.0, 1.0, False, 10, mandatory=False)
        report3 = CheckReport("demo", CheckConfig(), report.records + (informative,))
        assert report3.verdict


class TestWorstCase:
    def test_nan_ratio_is_the_worst_case(self):
        rel, raw, scale, where = _worst_case(
            [(1e-12, 1.0, "a"), (math.nan, 1.0, "b"), (1e-3, 1.0, "c")]
        )
        assert where == "b" and math.isnan(raw)
        assert not rel <= 1e-9

    def test_non_finite_scale_fails(self):
        rel, _, _, where = _worst_case([(0.0, 1.0, "a"), (1e-30, math.inf, "b")])
        assert where == "b" and not rel <= 1e-9

    def test_scale_floored_at_one(self):
        assert _worst_case([(2e-10, 1e-3, "a"), (3e-10, 4.0, "b")]) == (2e-10, 2e-10, 1.0, "a")
