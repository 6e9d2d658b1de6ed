import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binoether.expr import (
    EvalDomainError,
    Jet,
    ParseError,
    PhaseSpace,
    diff,
    evaluate,
    evaluate_batch,
    evaluate_jet,
    parse,
    substitute,
)

S1 = PhaseSpace.canonical(1)   # (q1, p1)
S2 = PhaseSpace.canonical(2)   # (q1, q2, p1, p2)


def central_gradient(expr, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    g = np.zeros_like(point)
    for i in range(len(point)):
        up, dn = point.copy(), point.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (evaluate(expr, up) - evaluate(expr, dn)) / (2 * h)
    return g


class TestPhaseSpace:
    def test_canonical_order(self):
        assert S2.names == ("q1", "q2", "p1", "p2")
        assert S2.n == 2 and S2.dim == 4

    def test_rejects_bad_spaces(self):
        with pytest.raises(ValueError):
            PhaseSpace(("q1",))
        with pytest.raises(ValueError):
            PhaseSpace(("q1", "q1"))
        with pytest.raises(ValueError):
            PhaseSpace.canonical(0)


class TestParse:
    def test_two_term_sum(self):
        e = parse("p1 + q1", S1)
        assert evaluate(e, (1.0, 2.0)) == 3.0

    def test_generator_component(self):
        e = parse("(p1+q1)^2", S1)
        assert evaluate(e, (1.0, 2.0)) == 9.0

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse("p1 ^ q1", S1)
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse("p1 ^ 2.5", S1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'z'"):
            parse("q1 + z", S1)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("q1 + * p1", S1)
        assert err.value.position == 5

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse("   ", S1)

    def test_precedence(self):
        # ^ above unary minus, * / above + -
        assert evaluate(parse("-q1^2", S1), (3.0, 0.0)) == -9.0
        assert evaluate(parse("2 + 3 * q1", S1), (4.0, 0.0)) == 14.0
        assert evaluate(parse("2 - q1 - p1", S1), (1.0, 1.0)) == 0.0
        assert evaluate(parse("8 / 2 / 2", S1), (0.0, 0.0)) == 2.0
        assert evaluate(parse("2^3", S1), (0.0, 0.0)) == 8.0

    def test_functions(self):
        x = 0.7
        assert evaluate(parse("sin(q1)", S1), (x, 0.0)) == math.sin(x)
        assert evaluate(parse("ln(exp(q1))", S1), (x, 0.0)) == pytest.approx(x, rel=1e-15)

    def test_scientific_literals(self):
        assert evaluate(parse("1.5e-3 + .5", S1), (0.0, 0.0)) == 1.5e-3 + 0.5


class TestEvaluate:
    def test_direct_arithmetic(self):
        assert evaluate(parse("p1+q1", S1), (1.0, 2.0)) == 3.0
        assert evaluate(parse("(p1+q1)^2", S1), (1.0, 2.0)) == 9.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(parse("1/q1", S1), (0.0, 1.0))

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError, match="ln"):
            evaluate(parse("ln(q1)", S1), (-1.0, 0.0))


class TestEvaluateBatch:
    def test_matches_eval_bit_for_bit(self):
        texts = (
            "q1*p2 - q2/p1",
            "(q1 + p1)^3 - 2.5",
            "sin(q1)*exp(p2) + cos(q2)",
            "ln(p1^2 + 1) / (q2 - 7)",
            "-(p2^-2)",
            "4 + 0.5",
        )
        exprs = [parse(t, S2) for t in texts]
        states = np.random.default_rng(3).uniform(-2, 2, size=(200, 4))
        for e, values in zip(exprs, evaluate_batch(exprs, states)):
            assert values.shape == (200,)
            assert np.array_equal(values, [e.eval(x) for x in states])

    def test_each_shared_subtree_once(self):
        # 2^200 paths through 201 objects: eval would never finish
        e = parse("q1", S1)
        for _ in range(200):
            e = e + e
        (values,) = evaluate_batch([e], [[1.5, 0.0], [-3.0, 0.0]])
        assert np.array_equal(values, [1.5 * 2.0**200, -3.0 * 2.0**200])

    def test_domain_error_of_the_first_offending_state(self):
        # state 1 divides by zero in the second expression, state 2 takes
        # ln(-1) in the first: eval meets state 1 first
        exprs = [parse("ln(p1)", S1), parse("1/q1", S1)]
        states = [[1.0, 1.0], [0.0, 2.0], [1.0, -1.0]]
        with pytest.raises(EvalDomainError, match="division by zero in '1.0 / q1'"):
            evaluate_batch(exprs, states)
        with pytest.raises(EvalDomainError, match="ln of a non-positive value in 'ln[(]p1[)]'"):
            evaluate_batch(exprs, states[2:])


class TestDiff:
    def test_power_rule(self):
        e = parse("(p1+q1)^2", S1)
        d = diff(e, "q1", S1)
        for pt in [(1.0, 2.0), (-0.5, 0.3), (2.0, -2.0)]:
            assert evaluate(d, pt) == pytest.approx(2 * (pt[0] + pt[1]), rel=1e-14)

    def test_independent_coordinate(self):
        d = diff(parse("p1", S1), "q1", S1)
        assert evaluate(d, (3.0, 4.0)) == 0.0

    def test_product_rule(self):
        d = diff(parse("p1*q1", S1), "p1", S1)
        assert evaluate(d, (3.0, 4.0)) == 3.0

    def test_quotient_and_functions(self):
        e = parse("sin(q1)/q1 + cos(p1)*exp(q1) + ln(q1^2)", S1)
        pt = (0.9, -1.3)
        g = np.array([evaluate(diff(e, i), pt) for i in range(2)])
        assert np.allclose(g, central_gradient(e, pt), rtol=1e-6, atol=1e-6)


class TestJets:
    def test_hand_examples(self):
        j = evaluate_jet(parse("(p1+q1)^2", S1), (1.0, 2.0))
        assert j.value == 9.0
        assert np.array_equal(j.gradient, [6.0, 6.0])

        j = evaluate_jet(parse("5", S1), (0.3, -0.7))
        assert j.value == 5.0
        assert np.array_equal(j.gradient, [0.0, 0.0])

        j = evaluate_jet(parse("p1*q1", S1), (3.0, 4.0))
        assert j.value == 12.0
        assert np.array_equal(j.gradient, [4.0, 3.0])

    def test_gradient_matches_symbolic(self):
        rng = np.random.default_rng(7)
        e = parse("q1*p2^3 - sin(q2)*p1 + exp(q1/2)*q2^2", S2)
        for _ in range(10):
            pt = rng.uniform(-2, 2, size=4)
            j = evaluate_jet(e, pt)
            assert j.value == pytest.approx(evaluate(e, pt), rel=1e-15)
            sym = [evaluate(diff(e, i), pt) for i in range(4)]
            assert np.allclose(j.gradient, sym, rtol=1e-12, atol=1e-12)

    def test_jet_arithmetic_standalone(self):
        a = Jet.variable(2.0, 0, 2)
        b = Jet.variable(3.0, 1, 2)
        c = (a * b + 1.0) / a
        assert c.value == pytest.approx(7.0 / 2.0)
        # d/da [(ab+1)/a] = -1/a^2 ; d/db = 1
        assert c.gradient == pytest.approx([-0.25, 1.0])


# --- property-style checks ---------------------------------------------------

def _polynomials(space):
    coords = [st.sampled_from([name for name in space.names])]
    atoms = st.one_of(
        st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda v: f"{v!r}"),
        *coords,
    )

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: f"({ab[0]} + {ab[1]})"),
            st.tuples(children, children).map(lambda ab: f"({ab[0]} - {ab[1]})"),
            st.tuples(children, children).map(lambda ab: f"({ab[0]} * {ab[1]})"),
            st.tuples(children, st.integers(0, 3)).map(lambda ak: f"({ak[0]})^{ak[1]}"),
            children.map(lambda a: f"-({a})"),
        )

    return st.recursive(atoms, combine, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(text=_polynomials(S2), data=st.data())
def test_roundtrip_print_parse(text, data):
    e = parse(text, S2)
    printed = str(e)
    reparsed = parse(printed, S2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(8):
        pt = rng.uniform(-2, 2, size=4)
        a, b = evaluate(e, pt), evaluate(reparsed, pt)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_roundtrip_corpus_32_points():
    corpus = [
        "(p1+q1)^2",
        "-q1^2 + p1/(1 + q1^2)",
        "sin(q1)*cos(p1) - exp(q2)*ln(1 + p2^2)",
        "q1*q2*p1*p2 - 2.5*(q1 - p2)^3",
        "1e-2*q1 + .25*p1 - 3.0",
        "q1^-2 + p1^-1",
    ]
    rng = np.random.default_rng(11)
    for text in corpus:
        e = parse(text, S2)
        r = parse(str(e), S2)
        for _ in range(32):
            pt = rng.uniform(0.5, 2.0, size=4)  # positive: keeps ln/x^-k in domain
            a, b = evaluate(e, pt), evaluate(r, pt)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(3)
    exprs = [
        "q1^3*p1 - 2*q2*p2^2",
        "(q1 + q2 + p1 + p2)^4",
        "q1*p1*q2*p2",
    ]
    for text in exprs:
        e = parse(text, S2)
        for _ in range(8):
            pt = rng.uniform(-2, 2, size=4)
            j = evaluate_jet(e, pt)
            fd = central_gradient(e, pt)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(j.gradient - fd)) / scale <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    f=_polynomials(S1),
    g=_polynomials(S1),
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_diff_is_linear(f, g, a, b):
    ef, eg = parse(f, S1), parse(g, S1)
    combo = a * ef + b * eg
    rng = np.random.default_rng(5)
    for i in range(2):
        d_combo = diff(combo, i)
        d_parts = a * diff(ef, i) + b * diff(eg, i)
        for _ in range(4):
            pt = rng.uniform(-2, 2, size=2)
            lhs, rhs = evaluate(d_combo, pt), evaluate(d_parts, pt)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_substitute_linear_change():
    e = parse("q1*p1", S1)
    sub = substitute(e, {0: parse("q1 + 2*p1", S1)})
    assert evaluate(sub, (1.0, 3.0)) == (1.0 + 6.0) * 3.0
