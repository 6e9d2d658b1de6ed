"""The trajectory route of the drift audit: batched pencil coefficients,
secular roots, invariants and regularity margins must equal the point route
state by state, bit for bit."""

import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from binoether import spectral, verify
from binoether.expr import Call, EvalDomainError, Num, PhaseSpace, emit_kernel, parse
from binoether.geometry import (
    MultiVectorField,
    PhasePoint,
    evaluate_mv,
    hamiltonian_vf,
    lie_derivative_mv,
)
from binoether.spectral import (
    NonRealSpectrumError,
    operator_batch,
    operator_roots,
    pencil_coefficients,
    pencil_coefficients_batch,
    regularity_margin,
    regularity_margins,
    secular_roots,
    y_from_coefficients,
)
from binoether.systems import SystemSpec, builtin_system, load_system, run_report
from binoether.verify import (
    TRAJECTORY_BLOCK,
    CheckConfig,
    CheckReport,
    SamplingError,
    check_involution,
    check_spectral_routes,
    conservation_drift,
    integrate_flow,
    sample_regular_points,
)
from helpers import (
    dense_frame_dissipative,
    dense_frame_fields,
    dissipative_fields,
    reference_flow_states,
    reference_roots,
    reference_sample_points,
)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{f"dissipative-n{n}": (lambda n=n: builtin_system("dissipative", n)) for n in range(1, 7)},
    # What = 0 identically: every state takes the zero-deformation shortcut
    "canonical-noether-n2": lambda: builtin_system("canonical-noether", 2),
    **{f"sys-{p.stem}": (lambda p=p: load_system(p)) for p in sorted(SYSTEMS.glob("*.sys"))},
}

# one state, one whole block, and one state past a block
SIZES = (1, TRAJECTORY_BLOCK, TRAJECTORY_BLOCK + 1)


def same(a, b) -> bool:
    """Equal values, zeros of equal sign and NaNs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@lru_cache(maxsize=None)
def flow(case: str):
    """(W, What, states) of the case's flow from its first sample point,
    TRAJECTORY_BLOCK + 1 states long."""
    spec = CASES[case]()
    cfg = CheckConfig(t_end=TRAJECTORY_BLOCK * 1e-3, dt=1e-3)
    x0 = sample_regular_points(spec.W, cfg)[0]
    states = integrate_flow(spec.W, spec.h, x0, cfg).states
    assert len(states) == TRAJECTORY_BLOCK + 1
    return spec.W, lie_derivative_mv(spec.E, spec.W), states


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_route_matches_point_route(case, m):
    W, What, states = flow(case)
    states = states[:m]
    coeffs = pencil_coefficients_batch(W, What, states)
    point = [pencil_coefficients(W, What, x) for x in states]
    assert same(coeffs, point)
    # N's roots in a stack of states, as the drift audit takes them, and
    # one state at a time, as its point route and `secular_roots` take them
    assert same(operator_roots(operator_batch(W, What, states)),
                [secular_roots(W, What, x).roots for x in states])
    assert same(
        np.column_stack(y_from_coefficients(coeffs.T)), [y_from_coefficients(c) for c in point]
    )
    assert same(
        regularity_margins(W, states), [regularity_margin(evaluate_mv(W, x)) for x in states]
    )


@pytest.mark.parametrize("case", sorted(CASES) + ["dense-frame-dissipative-n2"])
def test_compiled_flow_matches_the_tree_evaluated_flow(case):
    # the compiled right-hand side and the float RK4 give the states of the
    # numpy RK4 over tree evaluation, bit for bit
    if case in CASES:
        spec = CASES[case]()
        W, h, t_end = spec.W, spec.h, 1.0
    else:
        _, W, h = dense_frame_dissipative(2, seed=7)
        t_end = 0.2
    cfg = CheckConfig(t_end=t_end, dt=1e-3)
    x0 = sample_regular_points(W, cfg)[0]
    states = integrate_flow(W, h, x0, cfg).states
    assert same(states, reference_flow_states(W, h, x0, cfg.t_end, cfg.dt))


@pytest.mark.parametrize("case", ["dissipative-n1", "dissipative-n2", "dissipative-n3",
                                  "dissipative-n6", "dense-frame-dissipative-n2"])
def test_unchecked_flow_matches_the_tree_evaluated_flow(case):
    # without the step-error estimate the compiled loop takes only full steps
    if case in CASES:
        spec = CASES[case]()
        W, h, t_end = spec.W, spec.h, 1.0
    else:
        _, W, h = dense_frame_dissipative(2, seed=7)
        t_end = 0.2
    cfg = CheckConfig(t_end=t_end, dt=1e-3)
    x0 = sample_regular_points(W, cfg)[0]
    states = integrate_flow(W, h, x0, cfg, max_step_error=None).states
    assert np.array_equal(states, reference_flow_states(W, h, x0, cfg.t_end, cfg.dt))


FLOW_SPACE = PhaseSpace.canonical(2)
# margin |p1| / (2 (p1^2 + 1)): lost once p1 < 2e-6 or p1 > 5e5
FLOW_W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): parse("-p1", FLOW_SPACE), (1, 3): Num(-1.0)})


@pytest.mark.parametrize("h_text, max_step_error, p1", [
    ("10*q1 + p2", 1e-8, 1.0),                          # regularity lost at t = 1.313
    ("10*q1 + p2", None, 1.0),                          # the same, without the estimate
    ("-10*q1 + p2", 1e-3, 1.0),                         # lost before the step error
    ("-10*q1 + p2", 1e-8, 1.0),                         # step error at t = 0.526
    ("-10*q1 + p2", 1e-7, 1.0),                         # no error: every state
    ("10*q1 + p2 + p1*ln(p1 - 0.000001)", 1e-8, 1.0),   # lost before a domain error
    ("p1*ln(p1 - 1.5)", 1e-8, 1.0),                     # domain error in the first step
    ("ln(p1)", 1e-8, 0.0),                              # lost at x0, where the step divides by 0
])
def test_flow_outcome_matches_a_step_by_step_loop(h_text, max_step_error, p1):
    # the same states, or the same first error with the same text, as a loop
    # that tests regularity before each step and the estimate after it
    x0, cfg = (0.0, 0.0, p1, 1.0), CheckConfig(t_end=2.0, dt=1e-3)
    h = parse(h_text, FLOW_SPACE)
    got = outcome(lambda: integrate_flow(FLOW_W, h, x0, cfg, max_step_error).states)
    want = outcome(lambda: reference_flow_states(FLOW_W, h, x0, cfg.t_end, cfg.dt,
                                                 max_step_error, require_regular=True))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def kernel_text(W, h):
    """(body, outputs, env, reads) of the field X = W(h) that the RK4 loop inlines."""
    X = hamiltonian_vf(W, h)
    return emit_kernel([X.component((i,)) for i in range(W.space.dim)])


def assert_flow_matches_the_oracle(W, h, x0, cfg, max_step_error, require_regular=True):
    # the same states, or the same first error with the same text
    got = outcome(lambda: integrate_flow(W, h, x0, cfg, max_step_error, require_regular).states)
    want = outcome(lambda: reference_flow_states(W, h, x0, cfg.t_end, cfg.dt,
                                                 max_step_error, require_regular))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same(got, want)
    return got


SINE = parse("sin(q1) + 2", FLOW_SPACE)  # one object, shared wherever it is used


@pytest.mark.parametrize("blocks, h_text, shape", [
    # X = (-1, -q2, 0, p2) in (q1, q2, p1, p2): a literal and a bare
    # coordinate among the outputs, and q1 and p1 are never read
    ((Num(1.0), Num(1.0)), "p1 + q2*p2",
     lambda body, outputs, reads: (outputs[0], outputs[2], outputs[3], reads)
     == ("-1.0", "0.0", "{x}3", (1, 3))),
    # X^p1 is the shared subtree itself, which X^q2 and X^p2 also use
    ((SINE, SINE), "q1 + q2*p2",
     lambda body, outputs, reads: outputs[2].startswith("{t}")
     and sum(f"{outputs[2]} " in line.split(" = ")[1] + " " for line in body) == 2),
    # two outputs are one object
    ((SINE, SINE), "q1 + q2",
     lambda body, outputs, reads: outputs[2] == outputs[3] and outputs[2].startswith("{t}")),
], ids=["literal-and-coordinate", "shared-output", "one-object-twice"])
@pytest.mark.parametrize("max_step_error", [None, 1e-8])
def test_inlined_outputs_match_a_step_by_step_loop(blocks, h_text, shape, max_step_error):
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): blocks[0], (1, 3): blocks[1]})
    h = parse(h_text, FLOW_SPACE)
    body, outputs, _, reads = kernel_text(W, h)
    assert shape(body, outputs, reads)
    states = assert_flow_matches_the_oracle(W, h, (0.3, -0.7, 0.5, 1.1),
                                            CheckConfig(t_end=0.2, dt=1e-3), max_step_error)
    assert len(states) == 201


def q1_sites(q, dt, steps):
    """q1 at each of the 11 evaluations of every checked step of the flow
    q1' = q1, in a step-by-step loop's order: k1..k4 of the full step, k2..k4 of the
    first half step (which shares k1), then k1..k4 of the second; and the
    states."""
    half, sixth, dt2 = 0.5 * dt, dt / 6.0, dt / 2
    half2, sixth2 = 0.5 * dt2, dt2 / 6.0

    def rk4(y, h, d, s):
        # f is the identity, so each k is its stage argument
        k2 = y + h * y
        k3 = y + h * k2
        k4 = y + d * k3
        return [k2, k3, k4], y + s * (((y + 2.0 * k2) + 2.0 * k3) + k4)

    sites, states = [], [q]
    for _ in range(steps):
        full, new = rk4(q, half, dt, sixth)
        first, m = rk4(q, half2, dt2, sixth2)
        second, _ = rk4(m, half2, dt2, sixth2)
        sites += [q, *full, *first, m, *second]
        q = new
        states.append(q)
    return sites, states


# q1' = q1 and p1' = -p1; q2' = -W^q2p2 with W^q2p2 = 1 wherever it is defined
SITE_H = "-q1*p1 + p2"
SITE_X0, SITE_CFG = (0.5, 0.0, 1.0, 1.0), CheckConfig(t_end=0.005, dt=1e-3)


@pytest.mark.parametrize("w_text, site, first_hit, error", [
    # the denominator is 0 first at k3 of the second half step of step 2
    ("(q1 - {c})/(q1 - {c})", 2 * 11 + 9, lambda q, c: q == c, "division by zero in "),
    # ln's argument is <= 0 first at k2 of the full step of step 2
    ("ln({c} - q1)/ln({c} - q1)", 2 * 11 + 1, lambda q, c: q >= c,
     "ln of a non-positive value in 'ln("),
], ids=["div-at-a-late-stage", "call-domain-error"])
@pytest.mark.parametrize("max_step_error", [1e-8, None])
def test_a_late_stage_domain_error_matches_a_step_by_step_loop(w_text, site, first_hit, error,
                                                               max_step_error):
    sites, states = q1_sites(SITE_X0[0], SITE_CFG.dt, 5)
    plain = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0), (1, 3): Num(1.0)})
    h = parse(SITE_H, FLOW_SPACE)
    assert list(integrate_flow(plain, h, SITE_X0, SITE_CFG).states[:, 0]) == states
    c = sites[site]
    assert [k for k, q in enumerate(sites) if first_hit(q, c)][0] == site
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0),
                                         (1, 3): parse(w_text.format(c=repr(c)), FLOW_SPACE)})
    got = assert_flow_matches_the_oracle(W, h, SITE_X0, SITE_CFG, max_step_error)
    if max_step_error is not None:  # an unchecked step runs only its full step's 4 sites
        assert got[0] is EvalDomainError and got[1].startswith(error)


@pytest.mark.parametrize("step, site", [(300, 5), (300, 9), (TRAJECTORY_BLOCK, 1)],
                         ids=["first-half", "second-half", "full-step-at-a-block-edge"])
def test_a_domain_error_in_a_later_block_matches_a_step_by_step_loop(step, site):
    # the denominator is 0 first at one site of a step in the second block
    # of states.  No full step meets a half step's site, so the full steps
    # run on to the end and the deferred estimate raises it; at k2 of step
    # 256 the loop stops, and the last block holds state 256 alone
    cfg = CheckConfig(t_end=0.4, dt=1e-3)
    sites, _ = q1_sites(SITE_X0[0], cfg.dt, 400)
    c = sites[11 * step + site]
    hits = [k for k, q in enumerate(sites) if q == c]
    assert hits[0] == 11 * step + site
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0),
                                         (1, 3): parse(f"(q1 - {c!r})/(q1 - {c!r})", FLOW_SPACE)})
    h = parse(SITE_H, FLOW_SPACE)
    if site >= 4:
        assert all(k % 11 >= 4 for k in hits)
        assert len(integrate_flow(W, h, SITE_X0, cfg, max_step_error=None).states) == 401
    got = assert_flow_matches_the_oracle(W, h, SITE_X0, cfg, 1e-8)
    assert got[0] is EvalDomainError and got[1].startswith("division by zero in ")


def test_a_loss_of_regularity_before_a_half_step_error_in_its_block_wins():
    # the half step of step 300 that divides by 0, as above, and W^q2p2 = 0
    # at state 280, so that regularity is lost earlier in the same block:
    # the block's batched half steps raise, and its replay meets the loss first
    cfg = CheckConfig(t_end=0.4, dt=1e-3)
    sites, states = q1_sites(SITE_X0[0], cfg.dt, 400)
    c, lost = sites[11 * 300 + 5], states[280]
    assert lost not in sites[:11 * 280] and c not in states
    w = f"(q1 - {c!r})/(q1 - {c!r}) * (q1 - {lost!r})"
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0), (1, 3): parse(w, FLOW_SPACE)})
    got = assert_flow_matches_the_oracle(W, parse(SITE_H, FLOW_SPACE), SITE_X0, cfg, 1e-8)
    assert got == (verify.FlowError, "regularity lost at t = 0.28")


def test_a_loss_of_regularity_before_a_half_step_error_at_its_state_wins():
    # W^q2p2 = 0 at state 300, and the first half step from state 300
    # divides by 0: the block's batched pass raises, and its replay of state
    # 300 tests the state's regularity before its half steps
    cfg = CheckConfig(t_end=0.4, dt=1e-3)
    sites, states = q1_sites(SITE_X0[0], cfg.dt, 400)
    c, lost = sites[11 * 300 + 5], states[300]
    assert lost not in sites[:11 * 300] and c not in states and c not in sites[:11 * 300 + 5]
    w = f"(q1 - {c!r})/(q1 - {c!r}) * (q1 - {lost!r})"
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0), (1, 3): parse(w, FLOW_SPACE)})
    h = parse(SITE_H, FLOW_SPACE)
    with pytest.raises(EvalDomainError, match="division by zero in "):
        integrate_flow(W, h, SITE_X0, cfg, require_regular=False)
    got = assert_flow_matches_the_oracle(W, h, SITE_X0, cfg, 1e-8)
    assert got == (verify.FlowError, "regularity lost at t = 0.3")


@pytest.mark.parametrize("step", [TRAJECTORY_BLOCK - 1, TRAJECTORY_BLOCK, TRAJECTORY_BLOCK + 1])
def test_a_first_step_error_at_the_block_edge_matches_a_step_by_step_loop(step):
    # q1' = 10 q1, p1' = -10 p1 from q1 = p1 = 1: the estimate is
    # q1 |R(z) - R(z/2)^2| / 15 / dt up to rounding, R being RK4's growth
    # factor and z = 10 dt, so it grows 1% a step, and a bound between two
    # steps' estimates fails first at the second
    space = PhaseSpace.canonical(1)
    W = MultiVectorField(space, 2, {(0, 1): Num(1.0)})
    h, x0, cfg = parse("-10*q1*p1", space), (1.0, 1.0), CheckConfig(t_end=0.3, dt=1e-3)

    def growth(z):
        return 1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24

    z = 10 * cfg.dt
    q1 = reference_flow_states(W, h, x0, cfg.t_end, cfg.dt)[:, 0]
    bound = abs(growth(z) - growth(z / 2) ** 2) / 15 / cfg.dt * math.sqrt(q1[step - 1] * q1[step])
    got = assert_flow_matches_the_oracle(W, h, x0, cfg, bound)
    assert got[0] is verify.FlowError and got[1].endswith(f" at t = {step * cfg.dt:.6g}")


@st.composite
def small_fields(draw):
    """(W, h) on FLOW_SPACE from small random trees with every node type,
    built through the operators and so the folding constructors."""
    leaves = (st.sampled_from(FLOW_SPACE.names).map(lambda name: parse(name, FLOW_SPACE))
              | st.sampled_from([0.5, -1.0, 2.0, 3.0]).map(Num))
    trees = st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: ab[0] + ab[1]),
        st.tuples(kids, kids).map(lambda ab: ab[0] - ab[1]),
        st.tuples(kids, kids).map(lambda ab: ab[0] * ab[1]),
        st.tuples(kids, kids).map(lambda ab: ab[0] / ab[1]),
        kids.map(lambda a: -a),
        st.tuples(kids, st.integers(-2, 3)).map(lambda ak: ak[0] ** ak[1]),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln"]), kids).map(lambda fa: Call(*fa)),
    ), max_leaves=5)
    W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): draw(trees), (1, 3): draw(trees)})
    return W, draw(trees)


# fields whose flow overflows to inf: on floats, as in the loop, and not a numpy warning
OVERFLOWING_FIELD = (MultiVectorField(FLOW_SPACE, 2, {(0, 2): parse("q1", FLOW_SPACE),
                                                      (1, 3): parse("p2*2.0", FLOW_SPACE)}),
                     parse("-(3.0/q2)", FLOW_SPACE))
OVERFLOWING_BLOCKS = (MultiVectorField(FLOW_SPACE, 2, {(0, 2): parse("p2/q1", FLOW_SPACE),
                                                       (1, 3): parse("q1", FLOW_SPACE)}),
                      parse("q1", FLOW_SPACE))


@settings(max_examples=150, deadline=None)
@given(small_fields(), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.sampled_from([None, 1e-8, 1e-2]), st.booleans())
@example(OVERFLOWING_FIELD, [0.0, 1.192092896e-07, 0.0, 1.0], None, False)
def test_random_fields_match_a_step_by_step_loop(field, x0, max_step_error, require_regular):
    W, h = field
    assert_flow_matches_the_oracle(W, h, x0, CheckConfig(t_end=0.02, dt=1e-3), max_step_error,
                                   require_regular)


@settings(max_examples=50, deadline=None)
@given(small_fields(), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.sampled_from([None, 1e-8, 1e-2]), st.booleans())
@example(OVERFLOWING_BLOCKS, [1.1125369292536007e-308, 0.0, 0.0, 1.0], 1e-8, False)
def test_random_fields_over_two_blocks_match_a_step_by_step_loop(field, x0, max_step_error,
                                                                 require_regular):
    # 300 steps: the deferred estimate and regularity test span two blocks
    W, h = field
    assert_flow_matches_the_oracle(W, h, x0, CheckConfig(t_end=0.3, dt=1e-3), max_step_error,
                                   require_regular)


def test_one_compile_per_field_text():
    # the field rebuilt by hamiltonian_vf, or read from the same .sys twice,
    # is the same kernel text, and its loop is compiled once
    x0, cfg = (0.1, -0.4, 1.3, 0.8), CheckConfig(t_end=0.01)
    spec = builtin_system("dissipative", 2)
    for fields in ([(spec.W, spec.h)] * 2,
                   [(s.W, s.h) for s in (load_system(SYSTEMS / "dissipative-n2.sys") for _ in "ab")]):
        verify._rk4_code.cache_clear()
        first, again = (kernel_text(W, h) for W, h in fields)
        assert first[:2] == again[:2] and first[2] is not again[2]
        for W, h in fields:
            integrate_flow(W, h, x0, cfg)
        info = verify._rk4_code.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_a_field_one_constant_apart_compiles_anew():
    x0, cfg = (0.0, 0.0, 1.0, 1.0), CheckConfig(t_end=0.01)
    verify._rk4_code.cache_clear()
    for text in ("-10*q1 + p2", "-10.5*q1 + p2"):
        integrate_flow(FLOW_W, parse(text, FLOW_SPACE), x0, cfg)
    assert verify._rk4_code.cache_info().misses == 2


def test_a_cached_loop_raises_with_this_fields_node():
    # two parses of one text: one compile, and each error names its own Div
    verify._rk4_code.cache_clear()
    h = parse(SITE_H, FLOW_SPACE)
    for _ in range(2):
        div = parse("(q1 - 0.5)/(q1 - 0.5)", FLOW_SPACE)
        W = MultiVectorField(FLOW_SPACE, 2, {(0, 2): Num(1.0), (1, 3): div})
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            integrate_flow(W, h, SITE_X0, SITE_CFG)
        assert err.value.subexpr is div
    assert verify._rk4_code.cache_info().misses == 1


@pytest.mark.parametrize("w_text, q1, max_step_error, message", [
    # W is NaN at x0 (q1 * 1e308 * 10 overflows to inf), so its margin is NaN
    ("1 + q1*1e308*10 - q1*1e308*10", 0.5, None, "regularity lost at t = 0"),
    ("1 + q1*1e308*10 - q1*1e308*10", 0.5, 1e-8, "regularity lost at t = 0"),
    # W = 1 until q1' = 1 takes q1 past 0.1797 (t = 0.18, a later block of
    # states), NaN from there on
    ("1 + (q1*1e308*10 - q1*1e308*10)", 0.0, None, "regularity lost at t = 0.18"),
    ("1 + (q1*1e308*10 - q1*1e308*10)", 0.0, 1e-8,
     "step error estimate nan/unit time exceeds 1.000e-08 at t = 0.179"),
])
def test_a_nan_margin_loses_regularity(w_text, q1, max_step_error, message):
    # a NaN margin is not above the threshold, so regularity is lost there
    space = PhaseSpace.canonical(1)
    W = MultiVectorField(space, 2, {(0, 1): parse(w_text, space)})
    h, cfg = parse("p1", space), CheckConfig(t_end=0.5, dt=1e-3)
    got = outcome(lambda: integrate_flow(W, h, (q1, 1.0), cfg, max_step_error))
    assert got == outcome(lambda: reference_flow_states(W, h, (q1, 1.0), cfg.t_end, cfg.dt,
                                                        max_step_error, require_regular=True))
    assert got == (verify.FlowError, message)


def test_nan_step_error_matches_a_step_by_step_loop():
    # X^q1 = -2e600 p1 overflows to -inf, so the estimate is NaN and fails
    space = PhaseSpace.canonical(1)
    W = MultiVectorField(space, 2, {(0, 1): Num(1.0)})
    h = parse("p1*p1*1e300*1e300", space)
    cfg = CheckConfig(t_end=0.01, dt=1e-3)
    got = outcome(lambda: integrate_flow(W, h, (0.5, 3.0), cfg))
    assert got == outcome(lambda: reference_flow_states(W, h, (0.5, 3.0), cfg.t_end, cfg.dt, 1e-8,
                                                        require_regular=True))
    assert got == (verify.FlowError, "step error estimate nan/unit time exceeds 1.000e-08 at t = 0")


@pytest.mark.parametrize("max_step_error", [None, 1e-8])
def test_an_overflowing_power_raises_as_on_floats(max_step_error):
    # X^p1 = -3 (1e200 q1)^2 1e200: Python's float ** raises OverflowError at
    # the first evaluation, where numpy's power would give inf, so every run
    # of the loop starts from Python floats, not from the state array's
    space = PhaseSpace.canonical(1)
    W = MultiVectorField(space, 2, {(0, 1): Num(1.0)})
    h, cfg = parse("(q1*1e200)^3", space), CheckConfig(t_end=0.01, dt=1e-3)
    got = assert_flow_matches_the_oracle(W, h, (1.0, 1.0), cfg, max_step_error)
    assert got[0] is OverflowError


@pytest.mark.parametrize("m", SIZES)
def test_drift_blocks_match_the_point_loop(monkeypatch, m):
    # refusing the batched coefficients sends every block down the point
    # route, the state-by-state loop, which must give the same record
    # (the first m states of one flow: no config integrates zero steps)
    W, What, states = flow("dissipative-n3")
    traj, cfg = verify.Trajectory(np.arange(m) * 1e-3, states[:m]), CheckConfig()
    batched = verify.trajectory_drift(W, What, traj, cfg)
    assert batched.points == m

    def refuse(*args):
        raise ArithmeticError("batched route refused")

    monkeypatch.setattr(verify, "pencil_coefficients_batch", refuse)
    assert verify.trajectory_drift(W, What, traj, cfg) == batched


@pytest.mark.parametrize("name", ["dissipative-n3", "sys-coupled-product-n2"])
def test_involution_runs_no_pencil_pass(monkeypatch, name):
    # the roots, the repeated-root flags and the non-real test all come
    # from N's eigenvalues: with both pencil routes refused, the record is
    # still the golden report's
    spec = CASES[name]()
    want = CheckReport.from_json((GOLDEN / f"{name}.json").read_text()).record("involution")

    def refuse(*args):
        raise AssertionError("the involution audit evaluated the pencil")

    monkeypatch.setattr(verify, "pencil_coefficients_batch", refuse)
    monkeypatch.setattr(verify, "pencil_coefficients", refuse)
    assert check_involution(spec.W, spec.E, CheckConfig()) == want


class TestPerStateEdgeCases:
    def test_zero_deformation_is_taken_per_state(self):
        # What vanishes exactly where q1 = -p1, and P(t) = t there
        _, W, h, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        states = np.array([[0.3, 1.1], [-0.7, 0.7], [0.2, -1.3], [1.5, -1.5]])
        coeffs = pencil_coefficients_batch(W, What, states)
        assert same(coeffs, [pencil_coefficients(W, What, x) for x in states])
        assert same(coeffs[[1, 3]], [[0.0, 1.0], [0.0, 1.0]])
        assert not same(coeffs[0], [0.0, 1.0])

    def test_zero_deformation_along_a_flow(self):
        _, W, h, E = dissipative_fields(1)
        What = lie_derivative_mv(E, W)
        cfg = CheckConfig(t_end=TRAJECTORY_BLOCK * 1e-3, dt=1e-3)
        states = integrate_flow(W, h, PhasePoint((-0.7, 0.7)), cfg).states
        coeffs = pencil_coefficients_batch(W, What, states)
        assert same(coeffs, [pencil_coefficients(W, What, x) for x in states])
        assert same(coeffs[0], [0.0, 1.0])

    def test_entry_zero_at_some_states_only(self):
        # W^{q1 q2} = q1 vanishes at q1 = 0, where the point route skips it;
        # beside the infinite W^{p1 p2} it would add 0 * inf = nan
        space = PhaseSpace.canonical(2)
        W = MultiVectorField(space, 2, {
            (0, 1): parse("q1", space),
            (0, 2): Num(1.0),
            (1, 3): Num(1.0),
            (2, 3): parse("p2 * 1e200 * 1e200", space),
        })
        What = 2.0 * W
        states = np.array([[0.0, 0.3, 0.2, 1.0], [0.5, 0.3, 0.2, 1.0]])
        with np.errstate(all="ignore"):
            point = [pencil_coefficients(W, What, x) for x in states]
        coeffs = pencil_coefficients_batch(W, What, states)
        assert same(coeffs, point)
        assert np.all(np.isfinite(coeffs[0]))
        margins = regularity_margins(W, states)
        assert same(margins, [regularity_margin(evaluate_mv(W, x)) for x in states])
        assert margins[0] == 0.0

    def test_non_real_spectrum_raises_the_point_message(self):
        # coupled-swap's roots are +-2 sqrt(I1 I2), I_i = p_i + q_i: real at
        # the first state, non-real at the second; the stack refuses the
        # second state with the point route's message
        spec = load_system(SYSTEMS / "coupled-swap-n2.sys")
        What = lie_derivative_mv(spec.E, spec.W)
        states = np.array([[0.3, 0.5, 0.4, 0.2], [0.3, -0.5, 0.4, 0.2]])
        i1, i2 = states[:, 0] + states[:, 2], states[:, 1] + states[:, 3]
        assert i1[0] * i2[0] > 0 > i1[1] * i2[1]
        secular_roots(spec.W, What, states[0])
        with pytest.raises(NonRealSpectrumError) as point:
            secular_roots(spec.W, What, states[1])
        with pytest.raises(NonRealSpectrumError) as batched:
            operator_roots(operator_batch(spec.W, What, states))
        assert str(batched.value) == str(point.value)

    def test_an_evaluation_error_is_the_point_loops_first(self):
        # What fails at state 0 and W only at state 1: the batch raises
        # What's error at state 0, where the point route evaluates W, then What
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): parse("1 + ln(q1)", space)})
        What = MultiVectorField(space, 2, {(0, 1): parse("ln(p1 + 2)", space)})
        states = [(0.5, -3.0), (-1.0, 0.5)]
        point = outcome(lambda: pencil_coefficients(W, What, states[0]))
        assert point[1] == "ln of a non-positive value in 'ln(p1 + 2.0)'"
        assert outcome(lambda: pencil_coefficients_batch(W, What, states)) == point

    def test_norms_add_one_square_at_a_time(self):
        # 1 + 8 * 2^-54 stays 1 when the squares are added one at a time, but
        # not in a compensated sum, which sum() of floats is from Python 3.12
        # on: both norms must fold, on every interpreter
        entries = [1.0] + [2.0 ** -27] * 8
        assert math.fsum(v ** 2 for v in entries) > 1.0
        assert spectral._frobenius([entries], "W") == 1.0
        norms, overflow = spectral._frobenius_batch([[np.array([v]) for v in entries]], 1)
        assert norms.tolist() == [1.0] and overflow.tolist() == [False]

    def test_node_scales_follow_the_scalar_rule(self):
        def scalar_rule(norm_w, norm_h):
            # the point route's rule, one pair of Python floats at a time
            s = norm_h / norm_w if norm_w > 0 else 1.0
            if not math.isfinite(s) or s < 1e-12:
                s = 1.0
            return min(max(s, 1e-100), 1e100)

        inf, nan = math.inf, math.nan
        pairs = [(0.0, 2.0), (-0.0, 2.0), (nan, 2.0), (2.0, nan), (0.0, 0.0), (2.0, 0.0),
                 (1.0, 1e-13), (1.0, 1e-12), (3.0, 2e-12), (inf, 2.0), (2.0, inf), (inf, inf),
                 (1e-300, 1e10), (1.0, 1e100), (1.0, 2e100), (1e-200, 1e-95), (2.0, 3.0)]
        norm_w, norm_h = (np.array(column) for column in zip(*pairs))
        want = [scalar_rule(w, h) for w, h in pairs]
        assert same(spectral._node_scales(norm_w, norm_h), want)
        assert same([float(spectral._node_scales(w, h)) for w, h in pairs], want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_node_scale_power_raises_as_the_point_route_does(self):
        # ||What|| / ||W|| = 1e110 clamps the node scale to 1e100, whose
        # fourth power overflows where the point route takes Python's **
        space = PhaseSpace.canonical(4)
        W = MultiVectorField(space, 2, {(i, 4 + i): Num(-1e-30) for i in range(4)})
        What = MultiVectorField(space, 2, {(i, 4 + i): parse(f"q{i + 1} * 1e80", space)
                                           for i in range(4)})
        x = (0.5, 0.6, 0.7, 0.8, 0.1, 0.2, 0.3, 0.4)
        text = "the pencil's node scale s = 1e+100 overflows: s**4 exceeds the float range"
        assert outcome(lambda: pencil_coefficients(W, What, x)) == (OverflowError, text)
        assert outcome(lambda: pencil_coefficients_batch(W, What, [x, x])) == (OverflowError, text)

    @pytest.mark.parametrize("entry", ["1e103", "1e-110"])
    def test_margin_power_out_of_range_scales_on_both_routes(self, entry):
        # at n = 3 a finite norm near 2.4e103 has a cube that overflows, and
        # one near 2.4e-110 a cube that underflows to 0: both routes take the
        # margin of W / max|W_ij|, here the canonical bivector itself
        space = PhaseSpace.canonical(3)
        W = MultiVectorField(space, 2, {(i, 3 + i): parse(f"{entry} * (1 + q1 * q1)", space)
                                        for i in range(3)})
        canonical = MultiVectorField(space, 2, {(i, 3 + i): Num(1.0) for i in range(3)})
        states = [(0.0,) * 6, (0.5,) * 6]
        margins = regularity_margins(W, states)
        assert same(margins, [regularity_margin(evaluate_mv(W, x)) for x in states])
        assert same(margins, [regularity_margin(evaluate_mv(canonical, x)) for x in states])
        # sampling screens the draws with the same margins
        assert sample_regular_points(W, CheckConfig()) == sample_regular_points(canonical, CheckConfig())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_square_raises_as_the_point_route_does(self):
        # W_hat^{q1 p1} = 5e199 at (0.5, 0.1): its square overflows, where
        # Python's ** 2 raises OverflowError in the point route's norm
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): Num(-1.0)})
        What = MultiVectorField(space, 2, {(0, 1): parse("q1 * 1e200", space)})
        with pytest.raises(OverflowError) as point:
            pencil_coefficients(W, What, (0.5, 0.1))
        with pytest.raises(OverflowError) as batched:
            pencil_coefficients_batch(W, What, [[0.5, 0.1]])
        assert str(batched.value) == str(point.value)
        # the same What as L_E W, in a report: the spectral routes keep the note
        E = MultiVectorField(space, 1, {(0,): parse("5e199 * q1^2", space)})
        assert lie_derivative_mv(E, W).component((0, 1)).eval((0.5, 0.1)) == 5e199
        cfg = CheckConfig(t_end=0.01)
        with pytest.raises(OverflowError) as first:
            pencil_coefficients(W, lie_derivative_mv(E, W), sample_regular_points(W, cfg)[0])
        report = run_report(SystemSpec(space, W, parse("p1", space), E, "overflow"), cfg)
        assert report.record("spectral_routes").notes == f"error: {first.value}"
        # where W_hat is 0 the point route returns P(t) = t before any norm
        big = MultiVectorField(space, 2, {(0, 1): parse("q1 * 1e200", space)})
        What = MultiVectorField(space, 2, {(0, 1): parse("p1", space)})
        states = [[0.5, 0.0], [-0.2, 0.0]]
        assert same(pencil_coefficients_batch(big, What, states),
                    [pencil_coefficients(big, What, x) for x in states])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_norm_names_the_norm_and_its_entry(self, tmp_path):
        # W = 1e200 squares past the float range in ||W||; the spectral
        # routes' note names that norm and the entry, as both routes do
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): Num(1e200)})
        What = MultiVectorField(space, 2, {(0, 1): parse("q1 * 1e200", space)})
        text = ("the pencil norm ||W|| overflows: the square of its entry (0, 1) = 1e+200"
                " exceeds the float range")
        for route in (lambda: pencil_coefficients(W, What, (0.5, 0.1)),
                      lambda: pencil_coefficients_batch(W, What, [[0.5, 0.1]])):
            assert outcome(route) == (OverflowError, text)
        path = tmp_path / "overflow.sys"
        path.write_text("[system]\nname = overflow\ndof = 1\n[poisson]\nW(q1,p1) = 1e200\n"
                        "[hamiltonian]\nh = p1 + q1\n[symmetry]\nE(q1) = 1e200*q1\n")
        report = run_report(load_system(path), CheckConfig(t_end=0.01))
        assert report.record("spectral_routes").notes == f"error: {text}"
        # a batch raises at its first state whose norm overflows, at the
        # first entry there: (1, 3) of state 0, not (0, 2) of state 1
        space = PhaseSpace.canonical(2)
        W = MultiVectorField(space, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)})
        What = MultiVectorField(space, 2, {(0, 2): parse("q1 * 1e154", space),
                                           (1, 3): parse("q2 * 1e154", space)})
        states = [(0.1, 5.0, 0.0, 0.0), (5.0, 0.1, 0.0, 0.0)]
        point = outcome(lambda: pencil_coefficients(W, What, states[0]))
        assert point == (OverflowError, "the pencil norm ||What|| overflows: the square of its"
                                        " entry (1, 3) = 5e+154 exceeds the float range")
        assert outcome(lambda: pencil_coefficients_batch(W, What, states)) == point
        # ||What|| overflows at state 0 and ||W|| only at state 1: the batch
        # raises state 0's error, as a loop over the states does
        space = PhaseSpace.canonical(1)
        W = MultiVectorField(space, 2, {(0, 1): parse("q1 * 1e154", space)})
        What = MultiVectorField(space, 2, {(0, 1): parse("p1 * 1e154", space)})
        states = [(0.5, 5.0), (5.0, 0.5)]
        assert outcome(lambda: pencil_coefficients(W, What, states[1]))[1].startswith(
            "the pencil norm ||W|| overflows")
        point = outcome(lambda: pencil_coefficients(W, What, states[0]))
        assert point == (OverflowError, "the pencil norm ||What|| overflows: the square of its"
                                        " entry (0, 1) = 5e+154 exceeds the float range")
        assert outcome(lambda: pencil_coefficients_batch(W, What, states)) == point

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_products_warn_nothing(self):
        # ||W||^2 = 1e400 overflows in the batched norms, and the bracket
        # scales of 5e199-sized gradients overflow; the margin is taken of
        # W / 1e200 and the scales stay inf or NaN, which fail closed,
        # without a numpy warning
        space = PhaseSpace.canonical(1)
        big = MultiVectorField(space, 2, {(0, 1): Num(1e200)})
        unit = regularity_margin([[0.0, 1.0], [-1.0, 0.0]])
        assert regularity_margins(big, [[0.5, 0.1]]).tolist() == [unit]
        assert regularity_margin(evaluate_mv(big, (0.5, 0.1))) == unit
        W = MultiVectorField(space, 2, {(0, 1): Num(-1.0)})
        E = MultiVectorField(space, 1, {(0,): parse("5e199 * q1^2", space)})
        record = check_involution(W, E, CheckConfig(t_end=0.01))
        assert not record.passed and math.isnan(record.residual)


@pytest.mark.parametrize("case", sorted(CASES))
def test_operator_roots_match_np_roots(case):
    # N's eigenvalues against np.roots of the pencil coefficients, the
    # independent oracle, along each case's flow (np.roots errs by up to
    # 2e-10 on the sampled n = 6 spectra, whose roots can lie 0.014 apart)
    W, What, states = flow(case)
    roots = operator_roots(operator_batch(W, What, states))
    reference = [reference_roots(c) for c in pencil_coefficients_batch(W, What, states)]
    assert np.max(np.abs(roots - reference) / np.fmax(1.0, np.abs(roots))) <= 1e-9


def outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


def _sampling_fields():
    space = PhaseSpace.canonical(2)
    fields = {f"dissipative-n{n}": dissipative_fields(n)[1] for n in range(1, 7)}
    fields["dense-frame-n2"] = dense_frame_fields(2, seed=7)[1]
    # degenerate where q1 < -1.4 or so: a share of the draws is rejected
    fields["partly-degenerate"] = MultiVectorField(space, 2, {
        (0, 2): Num(1.0), (1, 3): parse("exp(10 * q1)", space)})
    fields["zero"] = MultiVectorField(space, 2, {})
    fields["ln-domain"] = MultiVectorField(PhaseSpace.canonical(1), 2, {
        (0, 1): parse("ln(q1 + 1)", PhaseSpace.canonical(1))})
    return fields


SAMPLING_FIELDS = _sampling_fields()


@pytest.mark.parametrize("seed, box", [(1, 2.0), (17, 0.5), (2024, 3.0)])
@pytest.mark.parametrize("name", sorted(SAMPLING_FIELDS))
def test_sampling_matches_the_draw_by_draw_loop(name, seed, box):
    W = SAMPLING_FIELDS[name]
    cfg = CheckConfig(seed=seed, box=box)
    reference = outcome(lambda: reference_sample_points(W, cfg))
    batched = outcome(lambda: sample_regular_points(W, cfg))
    assert batched == reference  # the points, or the error's type and message
    if isinstance(reference, list):
        assert same([x.coords for x in batched], [x.coords for x in reference])


def test_sampling_error_text():
    with pytest.raises(SamplingError, match="^found only 0/32 regular points in 6400 draws$"):
        sample_regular_points(SAMPLING_FIELDS["zero"], CheckConfig())


@pytest.mark.parametrize("seed", [5, 99])
@pytest.mark.parametrize("case", ["dissipative-n3", "dissipative-n6", "dense-frame-n2"])
def test_spectral_route_samples_match_a_point_loop(case, seed):
    if case in CASES:
        spec = CASES[case]()
    else:
        spec = SystemSpec(*dense_frame_fields(2, seed=7), case)
    What = lie_derivative_mv(spec.E, spec.W)
    cfg = CheckConfig(seed=seed)
    _, samples = check_spectral_routes(spec.W, What, cfg)
    expected = []
    for x in sample_regular_points(spec.W, cfg):
        coeffs = pencil_coefficients(spec.W, What, x)
        expected.append((x.coords, secular_roots(spec.W, What, x).roots, reference_roots(coeffs),
                         y_from_coefficients(coeffs)))
    assert len(samples) == len(expected)
    for sample, (point, c, oracle, y) in zip(samples, expected):
        assert same(sample.point, point) and same(sample.c, c) and same(sample.y, y)
        # np.roots, the independent oracle, as in test_operator_roots_match_np_roots
        assert np.max(np.abs(np.array(c) - oracle) / np.fmax(1.0, np.abs(oracle))) <= 1e-9


@pytest.mark.parametrize("seed", [2, 4])
def test_spectral_routes_raise_the_first_error_of_a_point_loop(seed):
    # W_hat^{q2 p2} = -exp(400 q1): the spectrum is non-real where that is
    # not tiny, and its square overflows the norm where q1 > 0.89.  At seed 2
    # the second sample is non-real and the fifth overflows, so the batched
    # pencil alone would raise the OverflowError; at seed 4 the first overflows
    space = PhaseSpace.canonical(2)
    W = MultiVectorField(space, 2, {(0, 2): Num(-1.0), (1, 3): Num(-1.0)})
    What = MultiVectorField(space, 2, {(0, 1): Num(1.0), (2, 3): parse("-exp(400 * q1)", space)})
    cfg = CheckConfig(seed=seed, box=1.5)

    def point_loop():
        for x in sample_regular_points(W, cfg):
            pencil_coefficients(W, What, x)
            secular_roots(W, What, x)

    expected = outcome(point_loop)
    assert expected[0] is {2: NonRealSpectrumError, 4: OverflowError}[seed]
    assert outcome(lambda: check_spectral_routes(W, What, cfg)) == expected
