import gc
import weakref

import numpy as np
import pytest

from binoether import geometry
from binoether.expr import Num, PhaseSpace, Var, parse
from binoether.geometry import (
    MultiVectorField,
    PhasePoint,
    _point_arrays,
    component_diffs,
    evaluate_mv,
    hamiltonian_vf,
    lie_derivative_mv,
    poisson_bracket,
    schouten_bb,
)
from helpers import (
    dissipative_fields,
    forward_jet,
    max_component_at,
    random_bivector,
    random_points,
    random_polynomial,
    random_vector_field,
    var,
)

S1 = PhaseSpace.canonical(1)
S2 = PhaseSpace.canonical(2)


class TestMultiVectorField:
    def test_normalizes_permuted_tuples(self):
        p = var(S1, "p1")
        W = MultiVectorField(S1, 2, {(1, 0): p})  # given on (p1, q1)
        assert list(W.components) == [(0, 1)]
        assert evaluate_mv(W, (1.0, 2.0))[0, 1] == -2.0

    def test_signed_access(self):
        W = MultiVectorField(S1, 2, {(0, 1): Num(3.0)})
        assert W.component((1, 0)).eval((0, 0)) == -3.0
        assert W.component((0, 0)).is_zero()
        # any index sequence, not only a tuple
        assert W.component([1, 0]).eval((0, 0)) == -3.0 and W.component(range(2)).eval((0, 0)) == 3.0

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError, match="repeated"):
            MultiVectorField(S1, 2, {(1, 1): Num(1.0)})
        with pytest.raises(ValueError, match="degree"):
            MultiVectorField(S1, 2, {(0,): Num(1.0)})
        with pytest.raises(ValueError, match="out of range"):
            MultiVectorField(S1, 2, {(0, 5): Num(1.0)})

    def test_addition_and_scaling(self):
        _, W, _, _ = dissipative_fields(1)
        combo = 2.0 * W + W
        assert combo.component((0, 1)).eval((1.0, 2.0)) == 3 * W.component((0, 1)).eval((1.0, 2.0))
        diffd = W - W
        assert max_component_at(diffd, (1.0, 2.0)) == 0.0

    def test_component_diffs_are_built_once_per_field(self):
        _, W, _, _ = dissipative_fields(2)  # W^{q_i p_i} = -p_i
        diffs = component_diffs(W)
        assert component_diffs(W) is diffs
        assert diffs == [{}, {}, {(0, 2): Num(-1.0)}, {(1, 3): Num(-1.0)}]

    def test_point_kernels_are_built_once_and_die_with_the_field(self, monkeypatch):
        # one kernel of the components and one of their partials per field,
        # each compiled at its route's second query (a first query walks the
        # trees and compiles nothing) and held by the field alone
        _, W, _, _ = dissipative_fields(2)
        compile_kernel, compiled = geometry.compile_kernel, []

        def counted(exprs, dim):
            compiled.append(compile_kernel(exprs, dim))
            return compiled[-1]

        monkeypatch.setattr(geometry, "compile_kernel", counted)
        x = (0.1, 0.2, 0.5, -0.5)
        for k in range(3):
            assert np.array_equal(evaluate_mv(W, x), [[0, 0, -0.5, 0], [0, 0, 0, 0.5],
                                                      [0.5, 0, 0, 0], [0, -0.5, 0, 0]])
            assert np.array_equal(_point_arrays(W, x, True)[2:, 0, 2], [-1.0, 0.0])
            assert len(compiled) == (0 if k == 0 else 2)
        refs = [weakref.ref(kernel) for kernel in compiled]
        del W, compiled
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)

    def test_phase_point_validation(self):
        with pytest.raises(ValueError):
            PhasePoint((float("nan"), 1.0))


class TestLieDerivative:
    def test_friction_symmetry_commutes(self):
        # E = (p+q)^2 d/dq against the evolution field X = p d/dq - p d/dp;
        # the two product terms cancel exactly, even in floating point
        space, W, h, E = dissipative_fields(1)
        X = hamiltonian_vf(W, h)
        commutator = lie_derivative_mv(E, X)
        rng = np.random.default_rng(0)
        for pt in random_points(rng, 2, 16):
            assert max_component_at(commutator, pt) == 0.0

    def test_deformed_bivector_hand_expansion(self):
        # frozen oracle: expanding the coordinate formula by hand gives
        # L_E W = 2 p (p+q) d/dq ^ d/dp
        space, W, _, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        expected = parse("2*p1*(p1+q1)", space)
        rng = np.random.default_rng(0)
        for pt in random_points(rng, 2, 16):
            assert What.component((0, 1)).eval(pt) == pytest.approx(expected.eval(pt), rel=1e-12)

    def test_zero_field(self):
        space, _, _, E = dissipative_fields(1)
        zero = MultiVectorField(space, 2, {})
        assert lie_derivative_mv(E, zero).is_zero()

    def test_requires_degree_one_generator(self):
        space, W, _, _ = dissipative_fields(1)
        with pytest.raises(ValueError, match="degree 1"):
            lie_derivative_mv(W, W)

    def test_degree_zero_is_directional_derivative(self):
        rng = np.random.default_rng(4)
        f = random_polynomial(rng, S2, max_degree=3, terms=4)
        E = random_vector_field(rng, S2)
        Lf = lie_derivative_mv(E, MultiVectorField(S2, 0, {(): f}))
        for pt in random_points(rng, 4, 8):
            _, grad = forward_jet(f, pt)
            Evec = evaluate_mv(E, pt)
            want = float(Evec @ grad)
            got = evaluate_mv(Lf, pt)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSchoutenBracket:
    def test_constant_bivector_is_jacobi(self):
        Wc = MultiVectorField(S2, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)})
        assert schouten_bb(Wc, Wc).is_zero()

    def test_friction_bivector_is_jacobi(self):
        _, W, _, _ = dissipative_fields(2)
        assert schouten_bb(W, W).is_zero()

    def test_compatibility_of_deformed_pair(self):
        space, W, _, E = dissipative_fields(2)
        What = lie_derivative_mv(E, W)
        T = schouten_bb(W, What)
        rng = np.random.default_rng(1)
        for pt in random_points(rng, 4, 32):
            assert max_component_at(T, pt) < 1e-9

    def test_degree_mismatch(self):
        _, W, _, E = dissipative_fields(1)
        with pytest.raises(ValueError, match="bivector"):
            schouten_bb(W, E)

    def test_bilinearity(self):
        rng = np.random.default_rng(2)
        A = random_bivector(rng, S2)
        B = random_bivector(rng, S2)
        C = random_bivector(rng, S2)
        left = schouten_bb(2.5 * A + B, C)
        right = 2.5 * schouten_bb(A, C) + schouten_bb(B, C)
        for pt in random_points(rng, 4, 8):
            for idx in set(left.components) | set(right.components):
                l = left.component(idx).eval(pt)
                r = right.component(idx).eval(pt)
                assert l == pytest.approx(r, rel=1e-10, abs=1e-10)

    def test_jacobi_equivalence_calibration(self):
        # schouten_bb(V,V) vanishes at a point iff the Jacobiator of the
        # induced bracket does: checked on both Jacobi and non-Jacobi data.
        rng = np.random.default_rng(3)
        jacobi_cases = [
            MultiVectorField(S2, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)}),
            dissipative_fields(2)[1],
        ]
        random_cases = [random_bivector(rng, S2) for _ in range(4)]
        coords = [Var(S2.names[i], i) for i in range(4)]
        triples = [(coords[0], coords[1], coords[2]), (coords[1], coords[2], coords[3])]
        triples += [
            tuple(random_polynomial(rng, S2, max_degree=2) for _ in range(3))
            for _ in range(4)
        ]
        pts = random_points(rng, 4, 16)
        for V in jacobi_cases + random_cases:
            T = schouten_bb(V, V)
            tri = max(max_component_at(T, pt) for pt in pts)
            jac = 0.0
            for f, g, h in triples:
                J = (
                    poisson_bracket(V, f, poisson_bracket(V, g, h))
                    + poisson_bracket(V, g, poisson_bracket(V, h, f))
                    + poisson_bracket(V, h, poisson_bracket(V, f, g))
                )
                jac = max(jac, max(abs(J.eval(pt)) for pt in pts))
            assert (tri <= 1e-9) == (jac <= 1e-9), (tri, jac)


class TestPoissonBracket:
    def test_evolution_components(self):
        space, W, h, _ = dissipative_fields(1)
        q1, p1 = var(space, "q1"), var(space, "p1")
        rng = np.random.default_rng(5)
        for pt in random_points(rng, 2, 8):
            assert poisson_bracket(W, h, q1).eval(pt) == pytest.approx(pt[1], rel=1e-14)
            assert poisson_bracket(W, h, p1).eval(pt) == pytest.approx(-pt[1], rel=1e-14)

    def test_antisymmetry_and_self_bracket(self):
        rng = np.random.default_rng(6)
        V = random_bivector(rng, S2)
        f = random_polynomial(rng, S2)
        g = random_polynomial(rng, S2)
        for pt in random_points(rng, 4, 16):
            s = poisson_bracket(V, f, g).eval(pt) + poisson_bracket(V, g, f).eval(pt)
            assert abs(s) <= 1e-12
            assert abs(poisson_bracket(V, f, f).eval(pt)) <= 1e-12

    def test_leibniz(self):
        rng = np.random.default_rng(7)
        V = random_bivector(rng, S2)
        f, g, h = (random_polynomial(rng, S2) for _ in range(3))
        lhs = poisson_bracket(V, f, g * h)
        rhs = poisson_bracket(V, f, g) * h + g * poisson_bracket(V, f, h)
        for pt in random_points(rng, 4, 16):
            a, b = lhs.eval(pt), rhs.eval(pt)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


class TestHamiltonianVF:
    def test_friction_evolution_field(self):
        space, W, h, _ = dissipative_fields(2)
        X = hamiltonian_vf(W, h)
        rng = np.random.default_rng(8)
        for pt in random_points(rng, 4, 8):
            v = evaluate_mv(X, pt)
            assert v == pytest.approx([pt[2], pt[3], -pt[2], -pt[3]], rel=1e-14)

    def test_canonical_sign_calibration(self):
        # canonical W stores W^{q1 p1} = -1, so W(q1) = -d/dp1; audited
        # against the defining identity {f, g} = (W(f))^i d_i g below.
        Wc = MultiVectorField(S1, 2, {(0, 1): Num(-1.0)})
        X = hamiltonian_vf(Wc, var(S1, "q1"))
        assert evaluate_mv(X, (0.0, 0.0)) == pytest.approx([0.0, -1.0])

    def test_defining_identity(self):
        rng = np.random.default_rng(9)
        V = random_bivector(rng, S2)
        f = random_polynomial(rng, S2)
        g = random_polynomial(rng, S2)
        X = hamiltonian_vf(V, f)
        directional = lie_derivative_mv(X, MultiVectorField(S2, 0, {(): g}))
        bracket = poisson_bracket(V, f, g)
        for pt in random_points(rng, 4, 16):
            a, b = bracket.eval(pt), evaluate_mv(directional, pt)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_constant_hamiltonian(self):
        _, W, _, _ = dissipative_fields(1)
        assert hamiltonian_vf(W, Num(4.2)).is_zero()

    def test_hamiltonian_fields_preserve_poisson_bivector(self):
        # Liouville: L_{W(f)} W = 0 whenever [W, W] = 0
        rng = np.random.default_rng(10)
        for W in [
            MultiVectorField(S2, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)}),
            dissipative_fields(2)[1],
        ]:
            for _ in range(3):
                f = random_polynomial(rng, S2, max_degree=3)
                L = lie_derivative_mv(hamiltonian_vf(W, f), W)
                for pt in random_points(rng, 4, 8):
                    scale = max(1.0, max_component_at(W, pt) ** 2)
                    assert max_component_at(L, pt) <= 1e-9 * scale


class TestEvaluateMV:
    def test_friction_bivector_component(self):
        _, W, _, _ = dissipative_fields(1)
        m = evaluate_mv(W, (1.0, 2.0))
        assert m[0, 1] == -2.0 and m[1, 0] == 2.0

    def test_zero_field(self):
        Z = MultiVectorField(S2, 2, {})
        assert np.all(evaluate_mv(Z, (1.0, 1.0, 1.0, 1.0)) == 0.0)

    def test_degree_one(self):
        _, _, _, E = dissipative_fields(1)
        assert evaluate_mv(E, (1.0, 2.0)) == pytest.approx([9.0, 0.0])

    def test_trivector_signs(self):
        T = MultiVectorField(S2, 3, {(0, 1, 2): Num(5.0)})
        arr = evaluate_mv(T, (0.0, 0.0, 0.0, 0.0))
        assert arr[0, 1, 2] == 5.0
        assert arr[1, 0, 2] == -5.0
        assert arr[2, 0, 1] == 5.0
        assert arr[0, 0, 2] == 0.0
