"""Secular roots by certified Newton steps from a guess (`spectral.roots_near`):
a certified row's roots are checked against exact rational arithmetic and
np.roots, rows that cannot be certified must behave exactly as the
eigenvalue route, and the drift audit built on it must keep its verdicts."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binoether import verify
from binoether.spectral import (
    CERTIFIED_TOL,
    NonRealSpectrumError,
    SpectralError,
    _descending,
    _inclusion_radii,
    _newton_roots,
    roots_from_coefficients_batch,
    roots_near,
)
from binoether.systems import builtin_system, load_system
from binoether.verify import CheckConfig, conservation_drift

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


def outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


def assert_same_outcome(fn, reference):
    """fn raises the same exception type with the same message as
    reference, or both return roots, equal to 1e-13 (certified rows are
    Newton's roots, not the eigenvalue route's)."""
    got, want = outcome(fn), outcome(reference)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.max(np.abs(got - want), initial=0.0) <= 1e-13
    else:
        assert got == want
    return got


def coefficients(roots, lead=1.0) -> np.ndarray:
    """a_0..a_n of P(t) = lead * prod (t + c_i), whose P(-c) has the roots c_i."""
    return (lead * np.real(np.poly(-np.asarray(roots))))[::-1].copy()


def exact_value(desc, x: Fraction) -> Fraction:
    """Q(x) in exact rational arithmetic, for Q's float coefficients desc."""
    total = Fraction(0)
    for a in desc:
        total = total * x + Fraction(float(a))
    return total


def certify(coeffs, guess):
    """(roots, certified, radii) of one coefficient row: the Newton roots,
    whether they are certified, and each root's inclusion radius."""
    desc, plain = _descending(np.array([coeffs], dtype=float))
    if not plain[0]:  # roots_near leaves such a row to the eigenvalue route
        return None, False, None
    c, certified = _newton_roots(desc, np.array([guess], dtype=float))
    # the radii of `_newton_roots`, taken again at its roots
    n = len(guess)
    rho = _inclusion_radii(np.repeat(desc, n, axis=0).T.copy(), c[0])
    return c[0], bool(certified[0]), rho


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
        # the eigenvalue route's roots, bit for bit, or its exception
        got = outcome(lambda: roots_near([coeffs], guess))
        want = outcome(lambda: roots_from_coefficients_batch([coeffs]))
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        return
    assert np.array_equal(roots_near([coeffs], guess)[0], c)
    desc, _ = _descending(np.array([coeffs]))
    assert np.all(np.diff(c) > rho[1:] + rho[:-1])
    # each disk holds a real root of the exact polynomial: Q changes sign
    for ci, ri in zip(c.tolist(), rho.tolist()):
        lo, hi = Fraction(ci) - Fraction(ri), Fraction(ci) + Fraction(ri)
        assert exact_value(desc[0], lo) * exact_value(desc[0], hi) <= 0
    # np.roots has rounding errors of its own, which can exceed rho (4.4e-15
    # against rho = 4.0e-15 has been seen), so the sign change above is the
    # test of rho, and np.roots must agree to rho plus the certified accuracy
    reference = np.sort(np.roots(desc[0]).real)
    assert np.all(np.abs(c - reference) <= rho + CERTIFIED_TOL * np.fmax(1.0, np.abs(c)))


@settings(max_examples=200, deadline=None)
@given(complex_pair())
def test_a_non_real_row_is_never_certified(case):
    coeffs, guess = case
    _, certified, _ = certify(coeffs, guess)
    assert not certified
    got = assert_same_outcome(lambda: roots_near([coeffs], guess),
                              lambda: roots_from_coefficients_batch([coeffs]))
    assert got[0] is NonRealSpectrumError


class TestFallback:
    GOOD = coefficients([-1.0, 0.5, 2.0])
    GUESS = [-1.0, 0.5, 2.0]

    def test_uncertified_rows_take_the_eigenvalue_route(self):
        # a double root and a far guess fall back; the others certify
        rows = np.array([self.GOOD, coefficients([0.5, 0.5, 2.0]), self.GOOD * 3.0,
                         coefficients([7.0, -6.0, 3.0])])
        got = roots_near(rows, self.GUESS)
        eig = roots_from_coefficients_batch(rows)
        assert np.array_equal(got[[1, 3]], eig[[1, 3]])
        assert np.max(np.abs(got - eig)) <= 1e-14 * 8

    @pytest.mark.parametrize("bad", [
        coefficients([complex(1, 2), complex(1, -2), 3.0]),  # non-real spectrum
        np.array([1.0, 2.0, 3.0, 0.0]),  # zero leading coefficient
        np.array([1.0, np.nan, 3.0, 1.0]),  # not finite
        np.array([0.0, 2.0, 3.0, 1.0]),  # a root at 0, stripped by np.roots
    ])
    @pytest.mark.parametrize("position", [0, 2])
    def test_errors_and_messages_are_the_eigenvalue_routes(self, bad, position):
        rows = [self.GOOD, self.GOOD * 2.0, self.GOOD * 0.5]
        rows.insert(position, bad)
        assert_same_outcome(lambda: roots_near(rows, self.GUESS),
                            lambda: roots_from_coefficients_batch(rows))
        assert_same_outcome(lambda: roots_near([bad], self.GUESS),
                            lambda: roots_from_coefficients_batch([bad]))

    def test_a_zero_leading_coefficient_names_its_row(self):
        rows = [self.GOOD, self.GOOD, np.array([1.0, 2.0, 3.0, 0.0])]
        with pytest.raises(SpectralError, match="in coefficient row 2$"):
            roots_near(rows, self.GUESS)

    def test_each_row_depends_on_itself_and_the_guess_only(self):
        rng = np.random.default_rng(3)
        rows = np.array([coefficients(np.array(self.GUESS) + 1e-9 * rng.standard_normal(3))
                         for _ in range(40)])
        whole = roots_near(rows, self.GUESS)
        assert np.array_equal(whole, np.vstack([roots_near([r], self.GUESS) for r in rows]))


class TestDriftVerdicts:
    """The drift audit on roots that move must reach the eigenvalue route's
    verdict, residual and worst quantity."""

    @pytest.mark.parametrize("case, x0, conserved", [
        # c = -p1 decays: a linear Q, which one Newton step solves from any guess
        ("broken-generator-n1", (0.3, 1.0), False),
        # c_i = -p_i decay: the early states certify, the later ones fall back
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
        monkeypatch.setattr(verify, "roots_near",
                            lambda coeffs, guess: roots_from_coefficients_batch(coeffs))
        eig = conservation_drift(spec.W, spec.E, spec.h, x0, cfg)
        assert near.passed == eig.passed == conserved
        assert abs(near.residual - eig.residual) <= 1e-12 * max(1.0, eig.residual)
        assert near.notes.split(";")[0] == eig.notes.split(";")[0]
