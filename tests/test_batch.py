"""The trajectory route of the drift audit: batched pencil coefficients,
secular roots, invariants and regularity margins must equal the point route
state by state, bit for bit."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from binoether import verify
from binoether.expr import Num, PhaseSpace, parse
from binoether.geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv
from binoether.spectral import (
    NonRealSpectrumError,
    SpectralError,
    pencil_coefficients,
    pencil_coefficients_batch,
    regularity_margin,
    regularity_margins,
    roots_from_coefficients,
    roots_from_coefficients_batch,
    y_from_coefficients,
)
from binoether.systems import builtin_system, load_system
from binoether.verify import (
    TRAJECTORY_BLOCK,
    CheckConfig,
    conservation_drift,
    integrate_flow,
    sample_regular_points,
)
from helpers import dense_frame_dissipative, dissipative_fields, reference_flow_states

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

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
    assert same(roots_from_coefficients_batch(coeffs), [roots_from_coefficients(c) for c in point])
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


@pytest.mark.parametrize("m", SIZES)
def test_drift_blocks_match_the_point_loop(monkeypatch, m):
    # refusing the batched coefficients sends every block down the point
    # route, the state-by-state loop, which must give the same record
    spec = builtin_system("dissipative", 3)
    cfg = CheckConfig(t_end=max(m - 1, 0.1) * 1e-3, dt=1e-3)
    x0 = sample_regular_points(spec.W, cfg)[0]
    batched = conservation_drift(spec.W, spec.E, spec.h, x0, cfg)
    assert batched.points == m

    def refuse(*args):
        raise ArithmeticError("batched route refused")

    monkeypatch.setattr(verify, "pencil_coefficients_batch", refuse)
    assert conservation_drift(spec.W, spec.E, spec.h, x0, cfg) == batched


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

    def test_zero_trailing_coefficient_is_stripped_as_np_roots_does(self):
        rows = np.array([
            [0.0, 3.0, 1.0],   # a_0 = 0: np.roots appends a root at 0
            [2.0, -3.0, 1.0],  # no zero coefficient
            [0.0, 0.0, 1.0],   # P = t^2: a double root at 0
        ])
        assert same(roots_from_coefficients_batch(rows), [roots_from_coefficients(r) for r in rows])

    def test_zero_leading_coefficient_leaves_too_few_roots(self):
        # np.roots strips a zero leading coefficient and returns n - 1
        # roots, which cannot fill a row of n
        row = [1.0, 2.0, 0.0]
        with pytest.raises(SpectralError, match="zero leading coefficient leaves 1 of 2 roots"):
            roots_from_coefficients(row)
        with pytest.raises(SpectralError, match="zero leading coefficient leaves 1 of 2 roots"
                                                " in coefficient row 1"):
            roots_from_coefficients_batch([[2.0, -3.0, 1.0], row])
        with pytest.raises(SpectralError, match="zero leading coefficient leaves 2 of 3 roots"):
            roots_from_coefficients([1.0, 2.0, 3.0, 0.0])
        with pytest.raises(SpectralError, match="zero leading coefficient leaves 2 of 3 roots"
                                                " in coefficient row 1"):
            roots_from_coefficients_batch([[-6.0, 11.0, -6.0, 1.0], [1.0, 2.0, 3.0, 0.0]])

    def test_non_real_spectrum_raises_the_point_message(self):
        rows = [[2.0, -3.0, 1.0], [1.0, 0.0, 1.0]]  # the second: c^2 + 1 = 0
        with pytest.raises(NonRealSpectrumError) as point:
            roots_from_coefficients(rows[1])
        with pytest.raises(NonRealSpectrumError) as batched:
            roots_from_coefficients_batch(rows)
        assert str(batched.value) == str(point.value)
