import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from binoether.expr import Num, PhaseSpace, parse
from binoether.geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv
from binoether.spectral import (
    NonRealSpectrumError,
    RegularityError,
    SecularSpectrum,
    SpectralError,
    invariant_gradient,
    invariant_jets,
    is_regular,
    mixed_wedge_ratios,
    multiple_root_flags,
    operator_roots,
    pencil_coefficient_jets,
    pencil_coefficients_batch,
    pfaffian,
    recursion_operator_batch,
    regularity_margin,
    regularity_margins,
    root_gradients,
    root_pair_gradients,
    roots_near,
    secular_roots,
    trace_invariants,
    y_from_roots,
)
from binoether.systems import builtin_system, load_system
from binoether.verify import CheckConfig, check_regularity, sample_regular_points
from helpers import (
    block_action_system,
    coupled_system,
    dense_frame_fields,
    dissipative_fields,
    linear_coordinate_change,
    random_points,
)


SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def random_antisymmetric(rng, dim):
    A = rng.uniform(-2, 2, size=(dim, dim))
    return A - A.T


class TestPfaffian:
    def test_2x2(self):
        assert pfaffian([[0.0, 1.0], [-1.0, 0.0]]) == 1.0
        assert abs(pfaffian([[0.0, 2.5], [-2.5, 0.0]]) - 2.5) <= 1e-12

    def test_block_diagonal(self):
        a, b = 3.0, -1.25
        M = np.zeros((4, 4))
        M[0, 1], M[1, 0] = a, -a
        M[2, 3], M[3, 2] = b, -b
        assert abs(pfaffian(M) - a * b) <= 1e-12

    def test_squared_equals_det_6x6(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = random_antisymmetric(rng, 6)
            pf = pfaffian(M)
            det = np.linalg.det(M)
            assert rel_err(pf * pf, det) <= 1e-9

    def test_squared_equals_det_up_to_12(self):
        rng = np.random.default_rng(1)
        for dim in (2, 4, 6, 8, 10, 12):
            for _ in range(5):
                M = random_antisymmetric(rng, dim)
                assert rel_err(pfaffian(M) ** 2, np.linalg.det(M)) <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="even"):
            pfaffian(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="antisymmetric"):
            pfaffian(np.eye(4))


def canonical_matrix(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[range(n), range(n, 2 * n)] = 1.0
    return J - J.T


class TestRegularityMargin:
    @pytest.mark.parametrize("n, scale", [
        (1, 1e200),   # the squares overflow: the norm is inf
        (1, 1e-170),  # the squares underflow: the norm is 0
        (6, 1e200),
        (6, 1e60),    # the norm's sixth power overflows
        (6, 1e-60),   # the norm's sixth power underflows to 0
        (6, 1e-170),
    ])
    def test_scale_free_beyond_the_floats_range(self, n, scale):
        # the margin of scale * J is taken of J itself (W / max|W_ij|)
        J = canonical_matrix(n)
        assert regularity_margin(scale * J) == regularity_margin(J)
        assert regularity_margin(scale * J) == pytest.approx(1.0 / (2 * n) ** (n / 2), rel=1e-15)
        # a dense W: the same margin up to the rounding of W / max|W_ij|
        M = random_antisymmetric(np.random.default_rng(n), 2 * n)
        assert rel_err(regularity_margin(scale * M), regularity_margin(M)) <= 1e-13
        # the batched route takes the point route's value, bit for bit
        space = PhaseSpace.canonical(n)
        W = MultiVectorField(space, 2, {(i, j): Num(scale * M[i, j])
                                        for i in range(2 * n) for j in range(i + 1, 2 * n)})
        states = np.zeros((2, 2 * n))
        assert regularity_margins(W, states).tolist() == [regularity_margin(scale * M)] * 2

    def test_margins_in_range_keep_their_formula(self):
        M = random_antisymmetric(np.random.default_rng(5), 6)
        expected = abs(pfaffian(M)) / float(np.linalg.norm(M)) ** 3
        assert regularity_margin(M) == expected
        assert regularity_margin(np.zeros((4, 4))) == 0.0
        # an infinite entry is not scaled away: |Pf| / ||W|| = inf / inf
        assert math.isnan(regularity_margin([[0.0, math.inf], [-math.inf, 0.0]]))

    def test_a_huge_constant_w_has_regular_points(self):
        # W(q1,p1) = 1e200, whose square overflows: every sample is regular
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): Num(1e200)})
        record = check_regularity(W, CheckConfig())
        assert record.passed and record.residual == regularity_margin(canonical_matrix(1))


class TestMixedWedgeRatios:
    def test_friction_value(self):
        space, W, _, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        y = mixed_wedge_ratios(W, What, PhasePoint((1.0, 2.0)))
        assert y.values[0] == pytest.approx(-6.0, rel=1e-12)

    def test_zero_deformation(self):
        space, W, _, _ = dissipative_fields(2)
        zero = MultiVectorField(space, 2, {})
        y = mixed_wedge_ratios(W, zero, PhasePoint((1.0, 0.5, 2.0, 1.0)))
        assert y.values == (0.0, 0.0)

    def test_proportional_deformation(self):
        space, W, _, _ = dissipative_fields(3)
        lam = -1.7
        y = mixed_wedge_ratios(W, lam * W, PhasePoint((0.4, 1.0, -0.3, 2.0, 1.1, 0.7)))
        for l, v in enumerate(y.values, start=1):
            assert v == pytest.approx(lam ** l, rel=1e-10)

    def test_regularity_error(self):
        space, W, _, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        with pytest.raises(RegularityError):
            mixed_wedge_ratios(W, What, PhasePoint((1.0, 0.0)))  # p1 = 0

    @pytest.mark.parametrize("route", [mixed_wedge_ratios, secular_roots])
    def test_a_nan_margin_is_a_regularity_error(self, route):
        # q1 * 1e308 * 10 overflows at q1 = 0.5, so W and its margin are NaN,
        # which is not regular (rather than Y = (nan,), or np.roots' LinAlgError)
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): parse("1 + q1*1e308*10 - q1*1e308*10", space)})
        What = MultiVectorField(space, 2, {(0, 1): parse("p1", space)})
        assert not is_regular(W, (0.5, 1.0))
        with pytest.raises(RegularityError):
            route(W, What, PhasePoint((0.5, 1.0)))


class TestSecularRoots:
    def test_friction_n1(self):
        space, W, _, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        spec = secular_roots(W, What, PhasePoint((1.0, 2.0)))
        assert spec.roots[0] == pytest.approx(-6.0, rel=1e-10)
        assert spec.simple

    def test_zero_deformation_all_zero(self):
        space, W, _, _ = dissipative_fields(2)
        zero = MultiVectorField(space, 2, {})
        spec = secular_roots(W, zero, PhasePoint((1.0, 0.5, 2.0, 1.0)))
        assert spec.roots == (0.0, 0.0)
        assert spec.multiple == (True, True)

    def test_decoupled_n2(self):
        # (q1,p1)=(1,2), (q2,p2)=(0,1): roots kappa*3 and kappa*1, kappa = -2
        space, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        spec = secular_roots(W, What, PhasePoint((1.0, 0.0, 2.0, 1.0)))
        assert spec.roots[0] == pytest.approx(-6.0, rel=1e-10)
        assert spec.roots[1] == pytest.approx(-2.0, rel=1e-10)

    @pytest.mark.parametrize("system, n", [("dissipative", 6), ("coupled-squares-n2", 2)])
    def test_repeated_roots_are_real(self, system, n):
        # c_i = -2 (q_i + p_i) = -1.6 n times; the companion matrix of the
        # pencil coefficients would split this root into non-real values (by
        # 4e-3 at n = 6), while N's eigenvalues stay real
        spec = (builtin_system(system, n) if system == "dissipative"
                else load_system(SYSTEMS / f"{system}.sys"))
        What = lie_derivative_mv(spec.E, spec.W)
        spectrum = secular_roots(spec.W, What, PhasePoint((0.3,) * n + (0.5,) * n))
        assert np.max(np.abs(np.array(spectrum.roots) + 1.6)) <= 1e-12
        assert spectrum.multiple == (True,) * n

    def test_operator_roots_refuse_a_non_finite_operator(self):
        # numpy's eigenvalue call would raise a bare LinAlgError here
        op = np.stack([np.diag([2.0, 2.0]), np.array([[np.inf, 0.0], [0.0, 1.0]])])
        assert operator_roots(op[:1]).tolist() == [[2.0]]
        with pytest.raises(SpectralError, match="recursion operator N = W\\^-1 What is not"
                                                " finite .* at state 1 of 2$"):
            operator_roots(op)

    def test_non_real_spectrum_reported(self):
        space = PhaseSpace.canonical(2)
        W = MultiVectorField(space, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)})
        What = MultiVectorField(space, 2, {(0, 1): Num(1.0), (2, 3): Num(-1.0)})
        with pytest.raises(NonRealSpectrumError):
            secular_roots(W, What, PhasePoint((0.0, 0.0, 0.0, 0.0)))


class TestYFromRoots:
    def test_single_root(self):
        spec = SecularSpectrum(PhasePoint((1.0, 2.0)), (-6.0,), (False,))
        assert y_from_roots(spec).values == (-6.0,)

    def test_two_roots_hand_expansion(self):
        c1, c2 = -6.0, -2.0
        spec = SecularSpectrum(PhasePoint((1.0, 0.0, 2.0, 1.0)), (c1, c2), (False, False))
        y = y_from_roots(spec)
        assert y.values[0] == pytest.approx((c1 + c2) / 2)
        assert y.values[1] == pytest.approx(c1 * c2)

    def test_all_zero(self):
        spec = SecularSpectrum(PhasePoint((0.0,) * 6), (0.0, 0.0, 0.0), (True,) * 3)
        assert y_from_roots(spec).values == (0.0, 0.0, 0.0)


class TestInvariantGradient:
    def test_closed_form_n1(self):
        # Y1 = -2 (p+q): gradient (kappa, kappa) with kappa = -2 at any
        # regular point
        space, W, _, E = dissipative_fields(1)
        rng = np.random.default_rng(2)
        for pt in random_points(rng, 2, 8):
            if not is_regular(W, pt):
                continue
            g = invariant_gradient(W, E, 1, pt)
            assert np.allclose(g, [-2.0, -2.0], rtol=1e-10, atol=1e-10)

    def test_proportional_deformation_constant_invariants(self):
        space, W, _, _ = dissipative_fields(2)
        pt = PhasePoint((0.3, 1.2, 1.5, -0.8))
        jets = invariant_jets(W, 2.25 * W, pt)
        for j in jets:
            assert np.max(np.abs(j.gradient)) <= 1e-10

    def test_against_finite_differences(self):
        space, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        rng = np.random.default_rng(3)
        checked = 0
        for pt in random_points(rng, 4, 20):
            if not is_regular(W, pt):
                continue
            jets = invariant_jets(W, What, pt)
            h = 1e-6
            for l in range(1, 3):
                fd = np.zeros(4)
                base = np.asarray(tuple(pt))
                for i in range(4):
                    up, dn = base.copy(), base.copy()
                    up[i] += h
                    dn[i] -= h
                    fd[i] = (
                        mixed_wedge_ratios(W, What, PhasePoint(up)).values[l - 1]
                        - mixed_wedge_ratios(W, What, PhasePoint(dn)).values[l - 1]
                    ) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(fd))))
                assert np.max(np.abs(jets[l - 1].gradient - fd)) / scale <= 1e-5
            checked += 1
        assert checked >= 8


class TestRouteEquivalence:
    def test_worked_example(self):
        for n in (1, 2, 3):
            space, W, _, E = dissipative_fields(n)
            What = lie_derivative_mv(E, W)
            rng = np.random.default_rng(10 + n)
            count = 0
            for pt in random_points(rng, 2 * n, 64):
                if not is_regular(W, pt):
                    continue
                direct = mixed_wedge_ratios(W, What, pt)
                via_roots = y_from_roots(secular_roots(W, What, pt))
                for a, b in zip(direct.values, via_roots.values):
                    assert rel_err(a, b) <= 1e-9
                count += 1
                if count == 32:
                    break
            assert count == 32

    def test_randomized_compatible_pairs(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            n = int(rng.integers(1, 5))
            space, W, What = block_action_system(rng, n)
            W = linear_coordinate_change(rng, space, W)
            # same change applied to the pair keeps the spectrum real
            rng2 = np.random.default_rng(100 + trial)
            A = rng2.uniform(-1, 1, size=(2 * n, 2 * n)) + np.eye(2 * n)
            while abs(np.linalg.det(A)) < 0.3:
                A = rng2.uniform(-1, 1, size=(2 * n, 2 * n)) + np.eye(2 * n)
            space, Wb, Whatb = block_action_system(rng, n)
            Wt = linear_coordinate_change(rng, space, Wb, matrix=A)
            Ht = linear_coordinate_change(rng, space, Whatb, matrix=A)
            count = 0
            for pt in random_points(rng, 2 * n, 200):
                if not is_regular(Wt, pt):
                    continue
                direct = mixed_wedge_ratios(Wt, Ht, pt)
                via_roots = y_from_roots(secular_roots(Wt, Ht, pt))
                for a, b in zip(direct.values, via_roots.values):
                    assert rel_err(a, b) <= 1e-9
                count += 1
                if count == 16:
                    break
            assert count >= 8


class TestScalingAndPairing:
    def test_scaling_of_roots_and_invariants(self):
        space, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        pt = PhasePoint((0.7, -0.4, 1.6, 0.9))
        lam = 3.5
        base_roots = secular_roots(W, What, pt).roots
        scaled_roots = secular_roots(W, lam * What, pt).roots
        assert np.allclose(scaled_roots, [lam * r for r in base_roots], rtol=1e-9)
        base_y = mixed_wedge_ratios(W, What, pt).values
        scaled_y = mixed_wedge_ratios(W, lam * What, pt).values
        for l in range(1, 3):
            assert rel_err(scaled_y[l - 1], lam ** l * base_y[l - 1]) <= 1e-9

    def test_root_pairing_against_generalized_eigenvalues(self):
        space, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        pt = PhasePoint((1.0, 0.0, 2.0, 1.0))
        spec = secular_roots(W, What, pt)
        Hm = evaluate_mv(What, pt)
        Wm = evaluate_mv(W, pt)
        eig = scipy.linalg.eig(Hm, Wm)[0]
        assert np.max(np.abs(eig.imag)) <= 1e-8
        doubled = np.sort(np.concatenate([spec.roots, spec.roots]))
        assert np.allclose(np.sort(eig.real), doubled, rtol=1e-8, atol=1e-8)


class TestRootGradients:
    @pytest.mark.parametrize("n", [1, 2, 3], ids=lambda n: f"n{n}")
    def test_matches_invariant_gradient(self, n):
        space, W, _, E = dissipative_fields(n)
        What = lie_derivative_mv(E, W)
        q, p = [1.0, 0.25, -0.5][:n], [2.0, 1.5, 3.0][:n]
        pt = PhasePoint(q + p)
        coeffs = pencil_coefficient_jets(W, What, pt)
        spec = secular_roots(W, What, pt)
        grads = root_gradients(coeffs, spec.roots)
        # c_i = -2 (p_i + q_i): dc_i = -2 at q_i and p_i, 0 elsewhere
        closed = [-2.0 * (p[i] + q[i]) for i in range(n)]
        assert np.allclose(spec.roots, sorted(closed)) and len(grads) == n
        for c, g in zip(spec.roots, grads):
            i = int(np.argmin(np.abs(np.subtract(closed, c))))
            want = np.zeros(2 * n)
            want[[i, n + i]] = -2.0
            assert np.allclose(g, want, rtol=1e-9, atol=1e-9)


def _builtin(name, n):
    spec = builtin_system(name, n)
    return spec.W, spec.E


# system (W, E) -> number of sampled points the oracles are compared at
ORACLE_SYSTEMS = {
    "dissipative-n1": (lambda: _builtin("dissipative", 1), 6),
    "dissipative-n2": (lambda: _builtin("dissipative", 2), 6),
    "dissipative-n3": (lambda: _builtin("dissipative", 3), 4),
    "dissipative-n6": (lambda: _builtin("dissipative", 6), 2),
    "dense-frame-n2": (lambda: dense_frame_fields(2, seed=7)[1::2], 4),
    "canonical-noether-n2": (lambda: _builtin("canonical-noether", 2), 4),
}


def _oracle_case(key):
    build, count = ORACLE_SYSTEMS[key]
    W, E = build()
    points = sample_regular_points(W, CheckConfig(samples=8))[:count]
    return W, lie_derivative_mv(E, W), points


def _elementary(c, l):
    """e_l(c): the sum over l-element index sets of the product of c."""
    return sum(math.prod(c[i] for i in subset) for subset in combinations(range(len(c)), l))


def _closed_forms(key, states):
    """Y^(1..n), their gradients, and the gradients of the ascending secular
    roots at each of the (m, 2n) states, exactly, for an ORACLE_SYSTEMS key.

    Dissipative model: c_i = -2 (q_i + p_i) and Y^(l) = e_l(c) / C(n,l),
    so dY^(l) = sum_i e_(l-1)(c without c_i) dc_i / C(n,l).  The dense frame
    is that model in y = A x, A = I + U(-0.3, 0.3) drawn from default_rng(7)
    as `dense_frame_fields` draws it: the same forms at x = A^-1 y, with
    gradients d/dy = (d/dx) A^-1.  The canonical pencil has What = 0, so Y,
    the roots and every gradient are 0."""
    m, N = states.shape
    n = N // 2
    if key.startswith("canonical-noether"):
        return np.zeros((m, n)), np.zeros((m, n, N)), np.zeros((m, n)), np.zeros((m, n, N))
    frame = np.eye(N)
    if key.startswith("dense-frame"):
        frame += np.random.default_rng(7).uniform(-0.3, 0.3, size=(N, N))
    inv = np.linalg.inv(frame)
    dc = np.zeros((n, N))
    dc[range(n), range(n)] = dc[range(n), range(n, N)] = -2.0
    dc = dc @ inv
    ys, dys, roots, droots = [], [], [], []
    for x in states @ inv.T:
        c = -2.0 * (x[:n] + x[n:])
        ys.append([_elementary(c, l) / math.comb(n, l) for l in range(1, n + 1)])
        dys.append([sum(_elementary(np.delete(c, i), l - 1) * dc[i] for i in range(n))
                    / math.comb(n, l) for l in range(1, n + 1)])
        order = np.argsort(c)
        roots.append(c[order])
        droots.append(dc[order])
    return np.array(ys), np.array(dys), np.array(roots), np.array(droots)


def _central_difference(f, x, h=1e-6):
    """d f / d x_i for i = 0..dim-1, f returning a vector."""
    base = np.asarray(tuple(x))
    columns = []
    for i in range(len(base)):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        columns.append((np.asarray(f(up)) - np.asarray(f(dn))) / (2 * h))
    return np.array(columns).T


def _close(got, want, tol):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(np.asarray(got) - want))) / scale <= tol


class TestRecursionOperatorRoute:
    """The trace route against exact closed forms (`_closed_forms`) and
    central finite differences."""

    @pytest.mark.parametrize("key", sorted(ORACLE_SYSTEMS))
    def test_invariant_gradients_match_closed_forms_and_differences(self, key):
        W, What, points = _oracle_case(key)
        states = np.array([x.coords for x in points])
        _, _, op, grad = recursion_operator_batch(W, What, states)
        values, grads = trace_invariants(op, grad)
        want, want_grads, _, _ = _closed_forms(key, states)
        for x, y, dy, wy, wdy in zip(points, values, grads, want, want_grads):
            _close(y, wy, 1e-10)
            _close(dy, wdy, 1e-10)
            fd = _central_difference(lambda z: mixed_wedge_ratios(W, What, z).values, x)
            _close(dy, fd, 1e-5)

    @pytest.mark.parametrize("key", sorted(ORACLE_SYSTEMS))
    def test_simple_root_gradients_match_closed_forms_and_differences(self, key):
        W, What, points = _oracle_case(key)
        states = np.array([x.coords for x in points])
        _, _, op, grad = recursion_operator_batch(W, What, states)
        with np.errstate(all="ignore"):  # no projector at repeated roots
            grads = root_pair_gradients(op, grad, operator_roots(op))
        _, _, roots, want_grads = _closed_forms(key, states)
        compared = 0
        for x, dc, c, wdc in zip(points, grads, roots, want_grads):
            if any(multiple_root_flags(c)):
                continue  # repeated roots: only the invariant gradients count
            _close(dc, wdc, 1e-10)
            _close(dc, _central_difference(lambda z: secular_roots(W, What, z).roots, x), 1e-5)
            compared += 1
        assert compared == (0 if key.startswith("canonical-noether") else len(points))

    def test_dissipative_root_gradients_exact(self):
        # c_i = -2 (q_i + p_i): each root gradient is -2 at q_i and p_i
        n = 6
        spec = builtin_system("dissipative", n)
        What = lie_derivative_mv(spec.E, spec.W)
        for seed in (0, 2, 16):
            points = sample_regular_points(spec.W, CheckConfig(seed=seed))
            states = np.array([x.coords for x in points])
            _, _, op, grad = recursion_operator_batch(spec.W, What, states)
            grads = root_pair_gradients(op, grad, operator_roots(op))
            c = -2.0 * (states[:, :n] + states[:, n:])
            for dc, order in zip(grads, np.argsort(c, axis=1)):
                want = np.zeros((n, 2 * n))
                want[np.arange(n), order] = want[np.arange(n), n + order] = -2.0
                assert np.max(np.abs(dc - want)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_coupled_root_gradients_closed_form(self, tmp_path, seed):
        # c = {0, -(I1 + I2)}: gradients 0 and (-1, -1, -1, -1), N not normal
        spec = coupled_system(tmp_path)
        What = lie_derivative_mv(spec.E, spec.W)
        states = np.array([x.coords for x in sample_regular_points(spec.W, CheckConfig(seed=seed))])
        total = states[:, :2].sum(axis=1) + states[:, 2:].sum(axis=1)
        want = np.sort(np.column_stack([0 * total, -total]), axis=1)
        _, _, op, grad = recursion_operator_batch(spec.W, What, states)
        for roots in (np.array([secular_roots(spec.W, What, x).roots for x in states]),
                      operator_roots(op)):
            assert np.max(np.abs(roots - want)) <= 1e-13
        grads = root_pair_gradients(op, grad, operator_roots(op))
        # the root of -(I1 + I2) is the lower one where I1 + I2 > 0
        lower = (total > 0)[:, None]
        assert np.max(np.abs(grads[:, 0] - np.where(lower, -1.0, 0.0))) <= 1e-10
        assert np.max(np.abs(grads[:, 1] - np.where(lower, 0.0, -1.0))) <= 1e-10

    def test_jets_are_one_row_of_the_route(self):
        spec = builtin_system("dissipative", 3)
        What = lie_derivative_mv(spec.E, spec.W)
        points = sample_regular_points(spec.W, CheckConfig(samples=8))
        _, _, op, grad = recursion_operator_batch(spec.W, What, [x.coords for x in points])
        values, grads = trace_invariants(op, grad)
        for x, y, dy in zip(points, values, grads):
            jets = invariant_jets(spec.W, What, x)
            assert [j.value for j in jets] == y.tolist()
            assert np.array_equal([j.gradient for j in jets], dy)

    def test_jets_raise_at_a_degenerate_point(self):
        _, W, _, E = dissipative_fields(1)
        with pytest.raises(RegularityError):
            invariant_jets(W, lie_derivative_mv(E, W), PhasePoint((1.0, 0.0)))


def _coupled(name: str, seed: int):
    """W, What of systems/coupled-<name>-n2.sys, and its sample states with
    I1 = p1 + q1 and I2 = p2 + q2 there (coordinates q1, q2, p1, p2)."""
    spec = load_system(SYSTEMS / f"coupled-{name}-n2.sys")
    states = np.array([x.coords for x in sample_regular_points(spec.W, CheckConfig(seed=seed))])
    return spec.W, lie_derivative_mv(spec.E, spec.W), states, states[:, 0] + states[:, 2], \
        states[:, 1] + states[:, 3]


class TestCoupledClosedForms:
    """Secular roots and root gradients of the coupled generators shipped in
    systems/ against closed forms.  The closed forms come from factoring
    det(What - c W) with sympy, done once outside this suite (which must not
    import sympy): (c + 2 I1)^2 (c + 2 I2)^2 p1^2 p2^2 for coupled-squares,
    and (c^2 - 4 I1 I2)^2 p1^2 p2^2 for coupled-swap."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_squares_roots_and_gradients(self, seed):
        # c = {-2 I1, -2 I2}: gradient -2 at q_i and p_i for the root of I_i
        W, What, states, i1, i2 = _coupled("squares", seed)
        keep = np.abs(i1 - i2) > 1e-3  # simple roots
        states, i1, i2 = states[keep], i1[keep], i2[keep]
        want = np.sort(np.column_stack([-2 * i1, -2 * i2]), axis=1)
        _, _, op, grad = recursion_operator_batch(W, What, states)
        coeffs = pencil_coefficients_batch(W, What, states)
        # Newton from a guess off by 1e-6, as the drift audit's may be
        near, certified = roots_near(coeffs, want * (1 + 1e-6))
        assert certified.all()
        for roots in (np.array([secular_roots(W, What, x).roots for x in states]),
                      operator_roots(op), near):
            assert np.max(np.abs(roots - want)) <= 1e-13
        grads = root_pair_gradients(op, grad, operator_roots(op))
        first_lower = (i1 > i2)[:, None]  # -2 I1 is the lower root
        unit = [np.array([-2.0, 0.0, -2.0, 0.0]), np.array([0.0, -2.0, 0.0, -2.0])]
        assert np.max(np.abs(grads[:, 0] - np.where(first_lower, *unit))) <= 1e-10
        assert np.max(np.abs(grads[:, 1] - np.where(first_lower, *unit[::-1]))) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_swap_roots_gradients_and_invariants(self, seed):
        # c^2 = 4 I1 I2: real, +-2 sqrt(I1 I2), where I1 I2 > 0, else non-real;
        # Y1 = 0 and Y2 = c1 c2 = -4 I1 I2 everywhere
        W, What, states, i1, i2 = _coupled("swap", seed)
        _, _, op, grad = recursion_operator_batch(W, What, states)
        values, _ = trace_invariants(op, grad)
        _close(values, np.column_stack([0 * i1, -4 * i1 * i2]), 1e-13)
        real = i1 * i2 > 1e-3
        assert 0 < real.sum() < len(states)  # both kinds among the samples
        for x in states[i1 * i2 < 0]:
            with pytest.raises(NonRealSpectrumError):
                secular_roots(W, What, x)
        root = 2 * np.sqrt(i1[real] * i2[real])
        want = np.column_stack([-root, root])
        roots = np.array([secular_roots(W, What, x).roots for x in states[real]])
        assert np.max(np.abs(roots - want)) <= 1e-13
        # d(2 sqrt(I1 I2)) = (I2 dI1 + I1 dI2) / sqrt(I1 I2), at q_i and p_i
        half = np.column_stack([i2[real], i1[real], i2[real], i1[real]]) / (root / 2)[:, None]
        grads = root_pair_gradients(op[real], grad[real], operator_roots(op[real]))
        assert np.max(np.abs(grads[:, 0] + half)) <= 1e-9
        assert np.max(np.abs(grads[:, 1] - half)) <= 1e-9

    def test_operator_roots_refuse_a_non_real_spectrum(self):
        # N's eigenvalues are +-2 sqrt(I1 I2) twice, non-real at the default
        # samples where I1 I2 < 0: no real parts are taken in silence
        W, What, states, i1, i2 = _coupled("swap", 0)
        assert np.any(i1 * i2 < 0)
        with pytest.raises(NonRealSpectrumError, match="non-real spectrum"):
            operator_roots(recursion_operator_batch(W, What, states)[2])

    def test_swap_non_real_rows_are_not_certified(self):
        # from +-2 sqrt(|I1 I2|), off by 1e-6, Newton certifies the real
        # rows, at the closed form; the non-real ones are masked, for N's
        # eigenvalues to refuse
        W, What, states, i1, i2 = _coupled("swap", 0)
        root = 2 * np.sqrt(np.abs(i1 * i2))
        want = np.column_stack([-root, root])
        roots, certified = roots_near(pencil_coefficients_batch(W, What, states),
                                      want * (1 + 1e-6))
        real = i1 * i2 > 1e-3
        assert not certified[i1 * i2 < 0].any() and certified[real].all()
        assert np.max(np.abs(roots[real] - want[real])) <= 1e-13
