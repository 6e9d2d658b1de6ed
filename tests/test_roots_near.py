"""Secular roots by certified Newton steps from a guess (`spectral.roots_near`):
a certified row's roots are checked against exact rational arithmetic and
np.roots, rows that cannot be certified are masked without an error, and
the drift audit, which takes N's eigenvalues at those rows, must keep its
verdicts."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binoether import verify
from binoether.geometry import lie_derivative_mv
from binoether.spectral import (
    CERTIFIED_TOL,
    _inclusion_radii,
    pencil_coefficients_batch,
    roots_near,
    secular_roots,
)
from binoether.systems import builtin_system, load_system
from binoether.verify import CheckConfig, conservation_drift, integrate_flow, trajectory_drift
from helpers import reference_roots

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

# E = q_i p_i d/dq_i on the friction model of dissipative-n2: not a symmetry,
# and the secular roots c_i = -p_i decay along the flow
BROKEN_N2_SYS = """\
[system]
name = broken-generator-n2
dof = 2

[poisson]
W(q1,p1) = -p1
W(q2,p2) = -p2

[hamiltonian]
h = p1 + q1 + p2 + q2

[symmetry]
E(q1) = q1*p1
E(q2) = q2*p2
"""


def coefficients(roots, lead=1.0) -> np.ndarray:
    """a_0..a_n of P(t) = lead * prod (t + c_i), whose P(-c) has the roots c_i."""
    return (lead * np.real(np.poly(-np.asarray(roots))))[::-1].copy()


def exact_value(desc, x: Fraction) -> Fraction:
    """Q(x) in exact rational arithmetic, for Q's float coefficients desc."""
    total = Fraction(0)
    for a in desc:
        total = total * x + Fraction(float(a))
    return total


def descending(coeffs) -> np.ndarray:
    """The coefficients of Q(c) = P(-c), highest degree first."""
    n = len(coeffs) - 1
    return np.array([(-1) ** p * coeffs[p] for p in range(n, -1, -1)], dtype=float)


def certify(coeffs, guess):
    """(roots, certified, radii) of one coefficient row: `roots_near`'s
    roots and mask, and each root's inclusion radius where certified."""
    roots, certified = roots_near([coeffs], guess)
    if not certified[0]:
        return roots[0], False, None
    # the radii of `roots_near`, taken again at its roots
    n = len(guess)
    rho = _inclusion_radii(np.repeat(descending(coeffs)[None], n, axis=0).T.copy(), roots[0])
    return roots[0], True, rho


ROOT = st.floats(-8.0, 8.0, allow_nan=False).map(lambda r: round(r, 6)).filter(bool)
GAP = st.sampled_from([0.05, 0.3, 1.0, 2.5])
LEAD = st.sampled_from([1.0, -0.5, 2.75, 1e-3, 40.0])


@st.composite
def real_rooted(draw):
    """Real roots, apart, or with one gap clustered (1e-9 .. 1e-2) or zero
    (an exactly repeated root), and a guess near them (relative error
    1e-15 .. 1e-2) or far from them.  Returns (coefficients, guess,
    whether a root repeats)."""
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(GAP, min_size=n - 1, max_size=n - 1))
    if n >= 2:
        kind = draw(st.sampled_from(["apart", "apart", "clustered", "repeated"]))
        if kind != "apart":
            gaps[draw(st.integers(0, n - 2))] = (
                0.0 if kind == "repeated" else draw(st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2])))
    roots = list(draw(ROOT) + np.concatenate([[0.0], np.cumsum(gaps)]))
    offset = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-4, 1e-2, 1.0]))
    guess = [r + offset * max(1.0, abs(r)) for r in draw(st.permutations(roots))]
    return coefficients(roots, draw(LEAD)), guess, len(set(roots)) < n


@st.composite
def complex_pair(draw):
    """A complex pair a +- bi (b >= 1e-3) among real roots; the guess holds a
    twice, and the real roots."""
    n = draw(st.integers(2, 6))
    a = draw(ROOT)
    b = draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0]))
    real = draw(st.lists(ROOT, min_size=n - 2, max_size=n - 2))
    roots = [complex(a, b), complex(a, -b)] + real
    return coefficients(roots, draw(LEAD)), [a, a] + real


@settings(max_examples=300, deadline=None)
@given(real_rooted())
def test_certified_roots_hold_a_true_root_within_their_radius(case):
    coeffs, guess, repeated = case
    c, certified, rho = certify(coeffs, guess)
    if repeated:
        assert not certified
    if not certified:
        assert np.isnan(c).all()  # no root is reported for such a row
        return
    desc = descending(coeffs)
    assert np.all(np.diff(c) > rho[1:] + rho[:-1])
    # each disk holds a real root of the exact polynomial: Q changes sign
    for ci, ri in zip(c.tolist(), rho.tolist()):
        lo, hi = Fraction(ci) - Fraction(ri), Fraction(ci) + Fraction(ri)
        assert exact_value(desc, lo) * exact_value(desc, hi) <= 0
    # np.roots has rounding errors of its own, which can exceed rho (4.4e-15
    # against rho = 4.0e-15 has been seen), so the sign change above is the
    # test of rho, and np.roots must agree to rho plus the certified accuracy
    reference = reference_roots(coeffs)
    assert np.all(np.abs(c - reference) <= rho + CERTIFIED_TOL * np.fmax(1.0, np.abs(c)))


@settings(max_examples=200, deadline=None)
@given(complex_pair())
def test_a_non_real_row_is_never_certified(case):
    coeffs, guess = case
    c, certified, _ = certify(coeffs, guess)
    assert not certified and np.isnan(c).all()


class TestMask:
    GOOD = coefficients([-1.0, 0.5, 2.0])
    GUESS = [-1.0, 0.5, 2.0]

    def test_uncertified_rows_are_masked(self):
        # a double root and a far guess are not certified; the others are
        rows = np.array([self.GOOD, coefficients([0.5, 0.5, 2.0]), self.GOOD * 3.0,
                         coefficients([7.0, -6.0, 3.0])])
        roots, certified = roots_near(rows, self.GUESS)
        assert certified.tolist() == [True, False, True, False]
        assert np.isnan(roots[[1, 3]]).all()
        reference = np.array([reference_roots(r) for r in rows[[0, 2]]])
        assert np.max(np.abs(roots[[0, 2]] - reference)) <= 1e-14 * 8

    @pytest.mark.parametrize("bad", [
        coefficients([complex(1, 2), complex(1, -2), 3.0]),  # non-real spectrum
        np.array([1.0, 2.0, 3.0, 0.0]),  # zero leading coefficient: degree 2
        np.array([1.0, np.nan, 3.0, 1.0]),  # not finite
        np.array([1.0, 2.0, np.inf, 1.0]),
    ])
    @pytest.mark.parametrize("position", [0, 2])
    def test_rows_that_cannot_be_certified_raise_nothing(self, bad, position):
        rows = [self.GOOD, self.GOOD * 2.0, self.GOOD * 0.5]
        rows.insert(position, bad)
        roots, certified = roots_near(rows, self.GUESS)
        assert certified.tolist() == [k != position for k in range(4)]
        assert np.isnan(roots[position]).all()
        others = [k for k in range(4) if k != position]
        assert np.array_equal(roots[others], roots_near([rows[k] for k in others], self.GUESS)[0])

    def test_a_root_at_zero_certifies_and_a_double_one_does_not(self):
        # P(t) = t (t + 1) (t + 2) and P(t) = t^2 (t + 1): roots 0, 1, 2 and 0, 0, 1
        roots, certified = roots_near([[0.0, 2.0, 3.0, 1.0], [0.0, 0.0, 1.0, 1.0]], [0.0, 1.0, 2.0])
        assert certified.tolist() == [True, False]
        assert np.max(np.abs(roots[0] - [0.0, 1.0, 2.0])) <= 1e-15

    def test_each_row_depends_on_itself_and_the_guess_only(self):
        rng = np.random.default_rng(3)
        rows = np.array([coefficients(np.array(self.GUESS) + 1e-9 * rng.standard_normal(3))
                         for _ in range(40)])
        roots, certified = roots_near(rows, self.GUESS)
        alone = [roots_near([r], self.GUESS) for r in rows]
        assert np.array_equal(roots, np.vstack([r for r, _ in alone]))
        assert np.array_equal(certified, np.concatenate([c for _, c in alone]))


class TestDriftVerdicts:
    """The drift audit on roots that move must reach the verdict, residual
    and worst quantity that N's eigenvalues alone (the eigenvalue route,
    `operator_roots`) give it."""

    @pytest.mark.parametrize("case, x0, conserved", [
        # c = -p1 decays: a linear Q, which one Newton step solves from any guess
        ("broken-generator-n1", (0.3, 1.0), False),
        # c_i = -p_i decay: the early states certify, the later ones take N's
        ("broken-generator-n2", (0.3, -0.2, 1.0, 0.6), False),
        ("dissipative-n3", (0.3, -0.2, 0.1, 1.0, 0.6, -0.4), True),
    ])
    def test_same_verdict_as_the_eigenvalue_route(self, monkeypatch, tmp_path, case, x0,
                                                  conserved):
        if case == "broken-generator-n2":
            path = tmp_path / "broken-generator-n2.sys"
            path.write_text(BROKEN_N2_SYS, encoding="utf-8")
            spec = load_system(path)
        elif case == "broken-generator-n1":
            spec = load_system(SYSTEMS / "broken-generator-n1.sys")
        else:
            spec = builtin_system("dissipative", 3)
        cfg = CheckConfig(t_end=2.0, dt=1e-3)
        near = conservation_drift(spec.W, spec.E, spec.h, x0, cfg)

        def certify_nothing(coeffs, guess):
            m, n = len(coeffs), len(coeffs[0]) - 1
            return np.full((m, n), np.nan), np.zeros(m, dtype=bool)

        monkeypatch.setattr(verify, "roots_near", certify_nothing)
        eig = conservation_drift(spec.W, spec.E, spec.h, x0, cfg)
        assert near.passed == eig.passed == conserved
        assert abs(near.residual - eig.residual) <= 1e-12 * max(1.0, eig.residual)
        assert near.notes.split(";")[0] == eig.notes.split(";")[0]


def test_uncertified_states_drift_at_the_rounding_level():
    # dissipative n = 6 from q_i = 0.2 + 0.1 i, p_i = 0.43 + 0.07 i: six
    # simple roots, yet no state's Newton roots are certified, so every
    # state takes N's eigenvalues; the companion matrix of the pencil
    # coefficients read a drift of 1.3e-10 on this trajectory
    spec = builtin_system("dissipative", 6)
    x0 = [0.2 + 0.1 * i for i in range(1, 7)] + [0.43 + 0.07 * i for i in range(1, 7)]
    traj = integrate_flow(spec.W, spec.h, x0, CheckConfig())
    What = lie_derivative_mv(spec.E, spec.W)
    guess = secular_roots(spec.W, What, traj.states[0]).roots
    assert not roots_near(pencil_coefficients_batch(spec.W, What, traj.states), guess)[1].any()
    record = trajectory_drift(spec.W, What, traj, CheckConfig())
    assert record.passed and record.residual <= 1e-12
