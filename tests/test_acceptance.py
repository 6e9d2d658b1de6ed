"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from binoether.expr import Num, PhaseSpace, Var
from binoether.geometry import (
    MultiVectorField,
    PhasePoint,
    lie_derivative_mv,
    poisson_bracket,
    schouten_bb,
)
from binoether.spectral import is_regular, mixed_wedge_ratios, pfaffian, secular_roots, y_from_roots
from binoether.systems import builtin_system, run_report
from binoether.verify import (
    CheckConfig,
    check_compatibility,
    check_involution,
    check_jacobi,
    check_non_noether,
    check_symmetry,
    check_yang_baxter,
    conservation_drift,
    integrate_flow,
    sample_regular_points,
)
from helpers import (
    block_action_system,
    dissipative_fields,
    linear_coordinate_change,
    max_component_at,
    random_bivector,
    random_points,
    random_polynomial,
    var,
)

CFG = CheckConfig()  # samples=32, box=2.0, tol=1e-9, T=10, dt=1e-3, drift 1e-6


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_worked_example_end_to_end():
    with criterion("1 (worked example end-to-end, n = 1, 2, 3)"):
        for n in (1, 2, 3):
            start = time.perf_counter()
            spec = builtin_system("dissipative", n)
            jac = check_jacobi(spec.W, CFG)
            sym = check_symmetry(spec.E, spec.W, spec.h, CFG)
            yb = check_yang_baxter(spec.E, spec.W, CFG)
            What = lie_derivative_mv(spec.E, spec.W)
            mixed, deformed = check_compatibility(spec.W, What, CFG)
            elapsed = time.perf_counter() - start
            for record in (jac, sym, yb, mixed, deformed):
                assert record.passed, (n, record)
                assert record.points == 32
            assert sym.residual <= 1e-12, "the commutator cancels exactly"
            assert elapsed <= 5.0, f"n={n} took {elapsed:.2f}s"


def test_criterion_2_conserved_quantities():
    with criterion("2 (conserved quantities: kappa-proportional roots, drift, closed form)"):
        # (a) secular roots proportional to p_i + q_i with one global kappa
        all_ratios = []
        for n in (1, 2, 3):
            spec = builtin_system("dissipative", n)
            What = lie_derivative_mv(spec.E, spec.W)
            for pt in sample_regular_points(spec.W, CFG):
                roots = secular_roots(spec.W, What, pt).roots
                sums = [pt[n + i] + pt[i] for i in range(n)]
                pairings = (sorted(sums), sorted(sums, reverse=True))
                spreads = []
                for pairing in pairings:
                    ratios = [c / s for c, s in zip(roots, pairing)]
                    spreads.append((max(ratios) - min(ratios), ratios))
                spread, ratios = min(spreads, key=lambda t: abs(t[0]))
                assert abs(spread) <= 1e-8 * max(abs(r) for r in ratios), (n, pt, ratios)
                all_ratios.extend(ratios)
        kappa = float(np.median(all_ratios))
        assert max(abs(r - kappa) for r in all_ratios) <= 1e-8 * abs(kappa)
        assert kappa == pytest.approx(-2.0, rel=1e-9)  # convention-fixed value

        # (b) drift of every c_i and Y^(l) over T=10, dt=1e-3
        spec = builtin_system("dissipative", 2)
        record = conservation_drift(
            spec.W, spec.E, spec.h, PhasePoint((0.1, -0.4, 1.3, 0.8)), CFG
        )
        assert record.passed
        assert record.residual <= 1e-6 * record.scale

        # (c) RK4 against the closed-form trajectory at t = 1
        spec1 = builtin_system("dissipative", 1)
        cfg = CheckConfig(t_end=1.0, dt=1e-3)
        q0, p0 = 0.25, 1.5
        traj = integrate_flow(spec1.W, spec1.h, PhasePoint((q0, p0)), cfg)
        q_exact = q0 + p0 * (1 - np.exp(-1.0))
        p_exact = p0 * np.exp(-1.0)
        err = max(abs(traj.states[-1][0] - q_exact), abs(traj.states[-1][1] - p_exact))
        assert err <= 1e-8


def test_criterion_3_involution():
    with criterion("3 (involution of Y under both brackets, n = 2, 3)"):
        for n in (2, 3):
            spec = builtin_system("dissipative", n)
            record = check_involution(spec.W, spec.E, replace(CFG, tol=1e-8))
            assert record.passed, (n, record)
            assert record.points == 32
            assert record.residual <= 1e-8 * record.scale


def test_criterion_4_route_equivalence():
    with criterion("4 (route equivalence: wedge ratios vs symmetric root functions)"):
        # the worked example
        for n in (1, 2, 3):
            spec = builtin_system("dissipative", n)
            What = lie_derivative_mv(spec.E, spec.W)
            for pt in sample_regular_points(spec.W, CFG):
                direct = mixed_wedge_ratios(spec.W, What, pt).values
                via = y_from_roots(secular_roots(spec.W, What, pt)).values
                for a, b in zip(direct, via):
                    assert rel_err(a, b) <= 1e-9

        # 10 randomized pairs (W, lam*W + L_E W), n <= 4, dense after a
        # linear change of coordinates (spectrum stays real by construction)
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            space, Wb, Whatb = block_action_system(rng, n)
            A = rng.uniform(-1, 1, size=(2 * n, 2 * n)) + np.eye(2 * n)
            while abs(np.linalg.det(A)) < 0.3:
                A = rng.uniform(-1, 1, size=(2 * n, 2 * n)) + np.eye(2 * n)
            W = linear_coordinate_change(rng, space, Wb, matrix=A)
            What = linear_coordinate_change(rng, space, Whatb, matrix=A)
            checked = 0
            for pt in random_points(rng, 2 * n, 400):
                if not is_regular(W, pt):
                    continue
                direct = mixed_wedge_ratios(W, What, pt).values
                via = y_from_roots(secular_roots(W, What, pt)).values
                for a, b in zip(direct, via):
                    assert rel_err(a, b) <= 1e-9, (trial, n, pt)
                checked += 1
                if checked == 32:
                    break
            assert checked == 32, f"trial {trial}: only {checked} regular points"


def test_criterion_5_pfaffian():
    with criterion("5 (Pfaffian: Pf^2 = det, closed forms)"):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 6, 8, 10, 12):
            for _ in range(100):
                A = rng.uniform(-2, 2, size=(dim, dim))
                M = A - A.T
                assert rel_err(pfaffian(M) ** 2, float(np.linalg.det(M))) <= 1e-9

        assert abs(pfaffian([[0.0, 1.0], [-1.0, 0.0]]) - 1.0) <= 1e-12
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            M2 = np.array([[0.0, a], [-a, 0.0]])
            assert abs(pfaffian(M2) - a) <= 1e-12 * max(1.0, abs(a))
            M4 = np.zeros((4, 4))
            M4[0, 1], M4[1, 0] = a, -a
            M4[2, 3], M4[3, 2] = b, -b
            assert abs(pfaffian(M4) - a * b) <= 1e-12 * max(1.0, abs(a * b))


def test_criterion_6_convention_calibration():
    with criterion("6 (Jacobi equivalence fixes the bracket convention)"):
        space = PhaseSpace.canonical(2)
        rng = np.random.default_rng(8)
        # ten bivectors: four known-Jacobi, six generic polynomial ones
        constant = {
            (i, j): Num(float(rng.uniform(-2, 2)))
            for i in range(4)
            for j in range(i + 1, 4)
        }
        q1, q2 = var(space, "q1"), var(space, "q2")
        p1, p2 = var(space, "p1"), var(space, "p2")
        cases = [
            MultiVectorField(space, 2, constant),
            MultiVectorField(space, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)}),
            dissipative_fields(2)[1],
            MultiVectorField(space, 2, {(0, 2): q1 * p1 + 2.0, (1, 3): p2 * p2 + 1.0}),
        ]
        cases += [random_bivector(rng, space) for _ in range(6)]
        assert len(cases) == 10

        coords = [Var(space.names[i], i) for i in range(4)]
        triples = [
            (coords[0], coords[1], coords[2]),
            (coords[0], coords[1], coords[3]),
            (coords[0], coords[2], coords[3]),
            (coords[1], coords[2], coords[3]),
        ] + [tuple(random_polynomial(rng, space) for _ in range(3)) for _ in range(16)]
        pts = random_points(rng, 4, 32)

        verdicts = []
        for V in cases:
            T = schouten_bb(V, V)
            tri_res = max(max_component_at(T, pt) for pt in pts)
            jac_res = 0.0
            for f, g, h in triples:
                J = (
                    poisson_bracket(V, f, poisson_bracket(V, g, h))
                    + poisson_bracket(V, g, poisson_bracket(V, h, f))
                    + poisson_bracket(V, h, poisson_bracket(V, f, g))
                )
                jac_res = max(jac_res, max(abs(J.eval(pt)) for pt in pts))
            tri_pass = tri_res <= 1e-9
            jac_pass = jac_res <= 1e-9
            assert tri_pass == jac_pass, (tri_res, jac_res)
            verdicts.append(tri_pass)
        assert any(verdicts) and not all(verdicts)  # both classes exercised


def test_criterion_7a_broken_generator_symmetry():
    # Criterion as stated: E = sum (p_i+q_i) d/dq_i is a "broken" generator
    # that fails the symmetry check.  In fact [E, W(h)] = 0 exactly (the
    # flows commute) and its secular roots are constants, so the assertion
    # below cannot hold; it is kept as stated rather than weakened.  Suite
    # sensitivity is demonstrated by the q1*p1 generator in criterion 7d.
    with criterion("7a (the (p+q) d/dq generator fails the symmetry check)"):
        for n in (1, 2):
            space, W, h, _ = dissipative_fields(n)
            q = [Var(space.names[i], i) for i in range(n)]
            p = [Var(space.names[n + i], n + i) for i in range(n)]
            E = MultiVectorField(space, 1, {(i,): p[i] + q[i] for i in range(n)})
            record = check_symmetry(E, W, h, CFG)
            assert not record.passed, (
                f"n={n}: [E, W(h)] = 0 exactly (residual {record.residual:.3e}); "
                "(p+q) d/dq is a genuine symmetry, so this assertion is unattainable"
            )


def test_criterion_7b_noether_control():
    with criterion("7b (Noether control: vanishing deformation, vacuous invariants)"):
        report = run_report(builtin_system("canonical-noether", 2), CFG)
        assert report.verdict
        nn = report.record("non_noether")
        assert nn.residual <= 1e-12
        assert "Noether" in nn.notes and "non-Noether" not in nn.notes
        for check_id in ("spectral_routes", "conservation_drift", "involution"):
            rec = report.record(check_id)
            assert rec.passed and "vacuous" in rec.notes


def test_criterion_7c_non_jacobi_bivector():
    with criterion("7c (hand-built non-Jacobi bivector fails the Jacobi check)"):
        space = PhaseSpace.canonical(2)
        q1, q2 = var(space, "q1"), var(space, "q2")
        p1, p2 = var(space, "p1"), var(space, "p2")
        V = MultiVectorField(space, 2, {(0, 2): q1 * p1, (1, 3): q2 * p2, (0, 1): p1})
        record = check_jacobi(V, CFG)
        assert not record.passed


def test_criterion_7d_suite_sensitivity():
    # complement to 7a: the checks must be able to fail on a generator that
    # genuinely breaks the symmetry; E = q1*p1 d/dq1 has
    # [E, W(h)] = p1(q1 - p1) d/dq1 and its root c = -p1 decays
    with criterion("7d (a genuinely broken generator fails symmetry and drift)"):
        space, W, h, _ = dissipative_fields(1)
        E = MultiVectorField(space, 1, {(0,): var(space, "q1") * var(space, "p1")})
        sym = check_symmetry(E, W, h, CFG)
        assert not sym.passed
        drift_cfg = CheckConfig(t_end=2.0, dt=5e-3)
        drift = conservation_drift(W, E, h, PhasePoint((0.0, 1.0)), drift_cfg)
        assert not drift.passed


def test_criterion_8_order_of_accuracy():
    with criterion("8 (RK4 order: halving dt cuts the error by 12x-20x)"):
        spec = builtin_system("dissipative", 1)
        q0, p0 = 0.0, 1.0
        errors = []
        for dt in (0.1, 0.05):
            cfg = CheckConfig(t_end=1.0, dt=dt)
            traj = integrate_flow(
                spec.W, spec.h, PhasePoint((q0, p0)), cfg, max_step_error=None
            )
            q_exact = q0 + p0 * (1 - np.exp(-1.0))
            p_exact = p0 * np.exp(-1.0)
            errors.append(
                max(abs(traj.states[-1][0] - q_exact), abs(traj.states[-1][1] - p_exact))
            )
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0, ratio


def test_criterion_9_determinism():
    with criterion("9 (same seed and config give byte-identical JSON reports)"):
        first = run_report(builtin_system("dissipative", 1), CheckConfig(seed=11))
        second = run_report(builtin_system("dissipative", 1), CheckConfig(seed=11))
        assert first.to_json().encode() == second.to_json().encode()
