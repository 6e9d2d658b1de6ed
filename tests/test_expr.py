import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from binoether.expr import (
    Add,
    Call,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Num,
    ParseError,
    PhaseSpace,
    Pow,
    Sub,
    Var,
    compile_kernel,
    diff,
    evaluate,
    evaluate_batch,
    evaluate_jet,
    in_state_order,
    parse,
    substitute,
)
from helpers import forward_jet

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

    @pytest.mark.parametrize("text, message, position", [
        ("q1 $ p1", "unexpected character '$'", 3),
        ("(q1 + p1", "expected ')'", 8),
        ("q1 p1", "unexpected trailing input 'p1'", 3),
        ("p1 + 1e999*q1", "numeric literal '1e999' exceeds the float range", 5),
        ("(" * 200 + "p1" + ")" * 200, "expression nested too deeply", 0),
        ("q1^" + "1" * 5000, "exponent has too many digits", 3),
    ], ids=["character", "paren", "trailing", "literal-overflow", "nesting", "exponent-digits"])
    def test_rejects_with_message_and_offset(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, S1)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position

    def test_moderate_nesting_parses(self):
        assert evaluate(parse("(" * 100 + "p1 + q1" + ")" * 100, S1), (1.0, 2.0)) == 3.0

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet="()+-*/^ .e0123456789qp1lnsicoxp", max_size=40))
    @example("p1 + 1e999*q1")
    @example("(" * 200 + "p1" + ")" * 200)
    def test_any_text_parses_or_raises_a_parse_error(self, text):
        try:
            parse(text, S1)
        except ParseError:
            pass


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
        # one state alone runs on its Python floats
        for x in states[:20]:
            for e, values in zip(exprs, evaluate_batch(exprs, [x])):
                assert values.shape == (1,)
                assert values.tobytes() == np.array([e.eval(x)]).tobytes()

    def test_each_shared_subtree_once(self):
        # 2^200 paths through 201 objects: eval would never finish
        e = parse("q1", S1)
        for _ in range(200):
            e = e + e
        (values,) = evaluate_batch([e], [[1.5, 0.0], [-3.0, 0.0]])
        assert np.array_equal(values, [1.5 * 2.0**200, -3.0 * 2.0**200])
        # one state, on floats, keeps the memo too
        (values,) = evaluate_batch([e], [[1.5, 0.0]])
        assert values.tolist() == [1.5 * 2.0**200]

    def test_domain_error_of_the_first_offending_state(self):
        # state 1 divides by zero in the second expression, state 2 takes
        # ln(-1) in the first: eval meets state 1 first
        exprs = [parse("ln(p1)", S1), parse("1/q1", S1)]
        states = [[1.0, 1.0], [0.0, 2.0], [1.0, -1.0]]
        with pytest.raises(EvalDomainError, match="division by zero in '1.0 / q1'"):
            evaluate_batch(exprs, states)
        with pytest.raises(EvalDomainError, match="ln of a non-positive value in 'ln[(]p1[)]'"):
            evaluate_batch(exprs, states[2:])

    def test_a_failing_pass_replays_without_the_point_walk(self, monkeypatch):
        # the replay is the memoized one-state pass: no node's `eval` runs
        def refuse(self, point):
            raise AssertionError(f"{type(self).__name__}.eval called")

        for node in (Num, Var, Add, Sub, Mul, Div, Neg, Pow, Call):
            monkeypatch.setattr(node, "eval", refuse)
        exprs = [parse("q1 * p1", S1), parse("ln(q1 + 1.5)", S1)]
        with pytest.raises(EvalDomainError, match=r"^ln of a non-positive value in 'ln\(q1 \+ 1.5\)'$"):
            evaluate_batch(exprs, [[1.0, 2.0], [-2.0, 2.0]])

    def test_a_domain_error_in_a_shared_tree_is_quick_and_its_message_bounded(self):
        # 2^20 paths through 21 objects: the replay and the message stay small
        e = parse("q1", S1)
        for _ in range(20):
            e = e + e
        start = time.perf_counter()
        with pytest.raises(EvalDomainError) as err:
            evaluate_batch([Call("ln", e)], [[1.0, 0.0], [-1.0, 0.0]])
        assert time.perf_counter() - start < 0.1
        message = str(err.value)
        assert message.startswith("ln of a non-positive value in 'ln(... + ... + (... + ...)")
        assert len(message) < 2000
        assert "..." not in str(Call("ln", parse("q1 + p1", S1)))  # str() prints whole trees


@st.composite
def shared_dags(draw):
    """Output expressions over S2 built bottom-up from a pool: each new node
    takes its children from the pool, so subtree objects are shared, and
    every node type appears with some probability."""
    pool = [Var(name, i) for i, name in enumerate(S2.names)]
    pool += [Num(v) for v in draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 3.0, 1e200]), min_size=1, max_size=3))]
    pick = st.integers(0, 10**6)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "call"]))
        a, b = (pool[draw(pick) % len(pool)] for _ in range(2))
        if kind == "neg":
            pool.append(Neg(a))
        elif kind == "pow":
            pool.append(Pow(a, draw(st.integers(-3, 4))))
        elif kind == "call":
            pool.append(Call(draw(st.sampled_from(["sin", "cos", "exp", "ln"])), a))
        else:
            pool.append({"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b))
    # compound nodes first, so that shrinking keeps them
    return draw(st.lists(st.sampled_from(pool[4:] + pool[:4]), min_size=1, max_size=4))


def outcome(evaluate_all):
    """The values, as bytes so that NaNs and signed zeros compare, or the
    type and message of the first error."""
    try:
        return np.array(evaluate_all(), dtype=float).tobytes()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


class TestCompileKernel:
    @settings(max_examples=400, deadline=None)
    @given(shared_dags(), st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 800.0, 1e155, -1e155])
        | st.floats(-3.0, 3.0, allow_nan=False), min_size=4, max_size=4))
    def test_matches_eval_bit_for_bit_and_error_for_error(self, exprs, point):
        kernel = compile_kernel(exprs, S2.dim)
        assert outcome(lambda: kernel(*point)) == outcome(lambda: [e.eval(point) for e in exprs])

    def test_each_shared_subtree_once(self):
        # 2^200 paths through 201 objects: one temporary per object
        e = parse("q1", S1)
        for _ in range(200):
            e = e + e
        assert compile_kernel([e, Num(0.5)], S1.dim)(1.5, 0.0) == (1.5 * 2.0**200, 0.5)

    def test_deep_trees_compile(self):
        # 500 levels of p1 - (...), which inline would nest 500 parentheses
        # deep, and as many of (...) + p1*q1: a temporary every 16 levels
        q, p = parse("q1", S1), parse("p1", S1)
        right, left = q, q
        for _ in range(500):
            right, left = p - right, left + p * q
        point = (0.5, 0.25)
        assert compile_kernel([right, left], S1.dim)(*point) == (right.eval(point), left.eval(point))

    def test_denominator_before_numerator(self):
        # both operands leave the domain at (0, -1): eval tests q1 first
        e = parse("ln(p1) / q1", S1)
        with pytest.raises(EvalDomainError, match="division by zero"):
            e.eval((0.0, -1.0))
        with pytest.raises(EvalDomainError, match="division by zero in 'ln[(]p1[)] / q1'"):
            compile_kernel([e], S1.dim)(0.0, -1.0)


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

    def test_derivative_is_kept_per_node_and_index(self):
        e = parse("sin(q1)/q1 + cos(p1)*exp(q1)^2 - ln(q1 * p1)", S1)
        for i in range(S1.dim):
            assert e.diff(i) is e.diff(i)
            assert e.a.diff(i) is e.a.diff(i)  # every inner node keeps its own
        assert e.diff(0) is not e.diff(1)
        # the cache is no dataclass field: equality, hashing and fields stay
        fresh = parse("sin(q1)/q1 + cos(p1)*exp(q1)^2 - ln(q1 * p1)", S1)
        assert fresh == e and hash(fresh) == hash(e)
        assert [f.name for f in dataclasses.fields(e)] == ["a", "b"]

    def test_a_shared_subtree_has_one_derivative(self):
        # base occurs three times in e; its derivative cos(q1) * p1 is built
        # once, and all three occurrences in d/dq1 are that one object
        base = parse("sin(q1) * p1", S1)
        d = (base * base + base).diff(0)
        assert repr(d.b) == "(cos(Var(q1)) * Var(p1))"
        assert d.a.a.a is d.b and d.a.b.b is d.b

    def test_constant_folds_reuse_an_operand_of_the_same_bits(self):
        # the derivative of a linear form folds to its coefficient without
        # a new literal per summand
        two, zero, negzero = Num(2.0), Num(0.0), Num(-0.0)
        assert (two + zero) is two and (zero - two).value == -2.0
        assert (two * Num(1.0)) is two
        assert diff(parse("3*q1 + 0*p1 - q1", S1), "q1", S1) == Num(2.0)
        # 0.0 + -0.0 is +0.0: only the operand with the same sign is reused
        assert (zero + negzero) is zero and (negzero + zero) is zero
        assert math.copysign(1.0, (negzero + negzero).value) == -1.0

    def test_constant_power_that_overflows_is_not_folded(self):
        # d/dq1 (5e-324)^0 builds 0 * (5e-324)^-1 * 0, whose power overflows
        # a float: the derivative must still fold to 0 instead of raising
        d = diff(parse("(5e-324)^0 + q1", S1), "q1", S1)
        assert evaluate(d, (0.3, 0.4)) == 1.0
        with pytest.raises(OverflowError):
            evaluate(Num(5e-324) ** -1, (0.3, 0.4))


    def test_constant_sum_or_product_that_overflows_is_not_folded(self):
        # the second derivative of (1e200 q1)^2 multiplies 1e200 by 1e200:
        # no literal holds the product, so the node stays, as for a power,
        # and evaluates to inf where it is used
        d = diff(diff(parse("(1e200*q1)*(1e200*q1)", S1), "q1", S1), "q1", S1)
        assert evaluate(d, (0.3, 0.4)) == math.inf
        big = Num(1e308)
        assert type(big * big) is Mul and evaluate(big * big, (0.3, 0.4)) == math.inf
        assert type(big + big) is Add and type(-big - big) is Sub
        assert evaluate(-big - big, (0.3, 0.4)) == -math.inf

    def test_quotient_by_a_constant_squares_no_denominator(self):
        # d/dq1 (a/b) = a'/b - a b'/b^2, and b*b = 1e-400 folds to 0.0: where
        # b' is the literal 0 the derivative is a'/b, never 0.0/0.0
        assert diff(parse("q1/1e-200", S1), "q1", S1) == Num(1e200)
        d = diff(parse("(q1*p1)/(1e-200*exp(p1))", S1), "q1", S1)
        assert evaluate(d, (0.3, 0.4)) == 0.4 / (1e-200 * math.exp(0.4))
        # a b' is not zero: the quotient rule keeps its second term
        d = diff(parse("q1/(q1*1e-200 + 1)", S1), "q1", S1)
        assert evaluate(d, (0.3, 0.4)) == pytest.approx(1.0, rel=1e-12)

    def test_constant_quotient_that_overflows_is_not_folded(self):
        # d/dq1 (1e10 q1)/1e-300 is 1e10/1e-300: no literal holds it, so the
        # node stays, as for a sum or a product, and evaluates to inf
        d = diff(parse("(1e10*q1)/1e-300", S1), "q1", S1)
        assert type(d) is Div and evaluate(d, (0.3, 0.4)) == math.inf
        assert (Num(1.0) / Num(4.0)) == Num(0.25) and (Num(0.0) / Num(4.0)).value == 0.0


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
            value, gradient = forward_jet(e, pt)
            assert value == pytest.approx(evaluate(e, pt), rel=1e-15)
            sym = [evaluate(diff(e, i), pt) for i in range(4)]
            assert np.allclose(gradient, sym, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("text", [
        *(f"{fn}({arg})" for fn in ("sin", "cos", "exp", "ln") for arg in ("q1", "q1*p1 + 2")),
        *(f"q1^{k}" for k in (-2, 0, 1, 3)),
    ])
    def test_unary_jet_is_eval_and_diff_exactly(self, text):
        # the forward-mode oracle applies the same float operations as eval
        # and the derivative trees, so value and gradient agree to the bit
        e, x = parse(text, S1), (0.7, 1.3)
        value, gradient = forward_jet(e, x)
        assert value == evaluate(e, x)
        assert gradient.tolist() == [evaluate(diff(e, i), x) for i in range(S1.dim)]

    @pytest.mark.parametrize("text, x", [
        ("ln(q1)", (0.0, 1.0)),
        ("q1^-1", (0.0, 1.0)),
        ("exp(q1)", (1000.0, 1.0)),
    ])
    def test_unary_jet_raises_the_eval_domain_error(self, text, x):
        e = parse(text, S1)
        with pytest.raises(EvalDomainError) as from_eval:
            evaluate(e, x)
        with pytest.raises(EvalDomainError) as from_jet:
            evaluate_jet(e, x)
        assert type(from_jet.value) is type(from_eval.value)
        assert str(from_jet.value) == str(from_eval.value)


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


@pytest.mark.parametrize("text, replacement, printed", [
    ("q1*p1", "q1 + 2*p1", "(q1 + 2.0 * p1) * p1"),
    ("q1 + p1", "q1 + 2*p1", "q1 + 2.0 * p1 + p1"),
    ("p1 - q1", "q1 + 2*p1", "p1 - (q1 + 2.0 * p1)"),
    ("p1 / q1", "q1 + 2*p1", "p1 / (q1 + 2.0 * p1)"),
    ("-q1", "q1 + 2*p1", "-(q1 + 2.0 * p1)"),
    ("q1^3", "q1 + 2*p1", "(q1 + 2.0 * p1)^3"),
    ("ln(q1)", "q1 + 2*p1", "ln(q1 + 2.0 * p1)"),
    # the folding constructors apply to every rebuilt node
    ("q1 + p1", "0", "p1"),
    ("q1 - p1", "0", "-p1"),
    ("q1 * p1", "0", "0.0"),
    ("q1 / p1", "0", "0.0"),
    ("p1 / q1", "1", "p1"),
    ("-q1", "2", "-2.0"),
    ("q1^2", "3", "9.0"),
    ("sin(q1)", "0", "sin(0.0)"),
])
def test_substitute_every_node_type(text, replacement, printed):
    e = parse(text, S1)
    sub = substitute(e, {0: parse(replacement, S1)})
    assert str(sub) == printed
    x = (0.7, 3.0)
    assert evaluate(sub, x) == evaluate(e, (evaluate(parse(replacement, S1), x), x[1]))


@pytest.mark.parametrize("node, sym, printed, swapped", [
    (Add, "+", "q1 + p1 + sin(p1)", "sin(p1) + (q1 + p1)"),
    (Sub, "-", "q1 + p1 - sin(p1)", "sin(p1) - (q1 + p1)"),
    (Mul, "*", "(q1 + p1) * sin(p1)", "sin(p1) * (q1 + p1)"),
    (Div, "/", "(q1 + p1) / sin(p1)", "sin(p1) / (q1 + p1)"),
])
def test_binary_nodes_keep_their_identity_and_printing(node, sym, printed, swapped):
    a, b = parse("q1 + p1", S1), parse("sin(p1)", S1)
    e = node(a, b)
    assert [f.name for f in dataclasses.fields(e)] == ["a", "b"]
    assert e == node(parse("q1 + p1", S1), b) and hash(e) == hash((a, b))
    assert all(e != other(a, b) for other in (Add, Sub, Mul, Div) if other is not node)
    assert repr(e) == f"((Var(q1) + Var(p1)) {sym} sin(Var(p1)))"
    assert str(e) == printed and str(node(b, a)) == swapped


@st.composite
def raising_passes(draw):
    """(start, end, errors at states, spurious states, which state a raising
    pass names) for a pass of fn over states [start, end)."""
    size = draw(st.integers(1, 1100) | st.sampled_from([1, 2, 3, 1023, 1024, 1025]))
    start = draw(st.integers(0, 5))
    states = st.integers(start, start + size - 1)
    kinds = st.sampled_from([ValueError, ZeroDivisionError, OverflowError])
    failing = draw(st.dictionaries(states, kinds, max_size=4))
    spurious = draw(st.sets(states, max_size=3))
    return start, start + size, failing, spurious, draw(st.sampled_from([min, max]))


@settings(max_examples=300, deadline=None)
@given(raising_passes())
@example((0, 1024, {1023: ValueError}, set(), min))
@example((3, 1027, {}, {3, 1026}, max))
def test_in_state_order_equals_a_state_by_state_loop(case):
    # fn's rows depend on each state alone; a state in failing raises on every
    # pass that holds it, and a pass of several states names one of them (the
    # first or the last).  A spurious state raises only on a pass of several
    # states, as a batch error that no state meets alone would
    start, end, failing, spurious, named = case
    calls = []

    def fn(a, b):
        calls.append((a, b))
        if b - a > 1 and spurious & set(range(a, b)):
            raise ArithmeticError("spurious batch error")
        hit = [j for j in failing if a <= j < b]
        if hit:
            j = named(hit)
            raise failing[j](f"at state {j}")
        j = np.arange(a, b, dtype=float)
        return np.column_stack([j, np.sqrt(j) / 3.0]), -j

    def loop():  # fn(j, j + 1) for each state j in order
        rows = [fn(j, j + 1) for j in range(start, end)]
        return np.column_stack(tuple(map(np.concatenate, zip(*rows))))

    want = outcome(loop)
    calls.clear()
    got = outcome(lambda: np.column_stack(
        in_state_order(fn, start, end, (ArithmeticError, ValueError))))
    assert got == want
    # no pass twice: at most the 2B - 1 passes of the halving tree
    assert len(set(calls)) == len(calls) <= 2 * (end - start) - 1
    if not spurious:
        assert len(calls) <= 2 * math.ceil(math.log2(end - start)) + 1
