"""Secular spectrum and wedge-ratio invariants of a bivector pencil.

Given two bivectors W (regular) and W_hat at a phase-space point, the degree-n
pencil polynomial

    P(t) = Pf(W_hat(x) + t W(x)) / Pf(W(x))

carries everything this module extracts: the coefficient of t^{n-l} equals
C(n,l) * Y^(l), where Y^(l) is the ratio of the top wedge power
W_hat^l ^ W^{n-l} to W^n, and the n roots of P(-c) are the secular roots of
the pencil (W_hat - c W)^n = 0.

A second, independent route goes through the recursion operator
N = W^{-1} W_hat, whose eigenvalues are the secular roots, each twice
(Magri, J. Math. Phys. 19 (1978) 1156).  Newton's identities on the traces
tr(N^k) give the Y^(l) again, and the derivatives
dN = W^{-1} (dW_hat - dW N) give their exact gradients, and the gradients
of simple roots through the spectral projectors of N, for the involution
audit.  The projectors are polynomials in N built from N's own eigenvalues
(Sylvester's formula), not from eigenvectors of N, which may be
ill-conditioned where N is not normal.  `operator_jet` builds N and dN:
for a stack of states from one batched evaluation, and at one point from
the fields' point routes (`geometry.evaluate_mv`, `invariant_jets`).

The secular roots are N's eigenvalues (`operator_roots`, each pair
averaged), which stay real and semisimple at a repeated root: `secular_roots`,
the spectrum samples and the involution audit take them.  Where a close
guess of them is known, as along a flow, Newton steps on P(-c) from the
guess find them faster, and an inclusion test certifies them (`roots_near`);
a state it does not certify takes N's eigenvalues (`operator_batch` builds
N alone).

Pfaffians are the memoized first-row expansion, written out as
straight-line code: `_pfaffian_kernel` generates one function per matrix
size and pattern of skipped (zero) entries, compiled once per process and
kept in a bounded cache.  A kernel does every float operation of the
recursive expansion, in the same order, so its results are the
recursion's bit for bit (`tests/helpers.py` keeps the recursion as the
oracle).  One body computes each pencil quantity at any number of
states: `_pencil` the coefficients, `_margins` the regularity margins.
One state, as the point functions pass it, runs on Python floats; several
run on arrays, one element per state, and each state that the arrays
cannot reproduce bit for bit runs through the body alone.  Every
gradient comes from the recursion operator: `invariant_jets` and
`pencil_coefficient_jets` return (value, gradient) records, `Jet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import Jet, evaluate_batch
# not called here: perfbench/tracing.py's WRAPS resolves the name in this
# module, and a missing name fails the traced smoke job
from .expr import evaluate_jet  # noqa: F401
from .geometry import (
    MultiVectorField,
    PhasePoint,
    _point_arrays,
    evaluate_mv,
    field_arrays,
    lie_derivative_mv,
)

__all__ = [
    "SpectralError",
    "RegularityError",
    "NonRealSpectrumError",
    "SecularSpectrum",
    "InvariantVector",
    "pfaffian",
    "pencil_coefficients",
    "pencil_coefficients_batch",
    "roots_near",
    "multiple_root_flags",
    "y_from_coefficients",
    "y_from_root_values",
    "mixed_wedge_ratios",
    "secular_roots",
    "y_from_roots",
    "operator_batch",
    "recursion_operator_batch",
    "operator_jet",
    "trace_invariants",
    "operator_roots",
    "root_pair_gradients",
    "invariant_gradient",
    "invariant_jets",
    "pencil_coefficient_jets",
    "root_gradients",
    "regularity_margin",
    "regularity_margins",
    "is_regular",
]

REGULARITY_FACTOR = 1e-6
ROOT_IMAG_TOL = 1e-8
ROOT_CLUSTER_TOL = 1e-6
# Newton steps `roots_near` takes from its guess on each row
NEWTON_STEPS = 2
# the inclusion radius, relative to max(1, |c|), up to which `roots_near`
# accepts a Newton root: 1e-4 of the drift audit's default tolerance (1e-6),
# so the root finder cannot move a drift verdict.  The radius is a bound: the
# roots 1..6 get rho = 2.1e-11 while their Newton roots err by 3e-13, so a
# bound of 1e-12 would send such spectra to N's eigenvalues after the Newton
# steps.  The golden reports' trajectories meet radii up to 9e-15 (n = 6).
CERTIFIED_TOL = 1e-10
# unit roundoff of float64
_UNIT_ROUNDOFF = 2.0 ** -53


class SpectralError(Exception):
    """Base class for spectral-extraction failures."""


class RegularityError(SpectralError):
    """The base bivector is (numerically) degenerate at the point."""


class NonRealSpectrumError(SpectralError):
    """The secular roots have imaginary parts beyond tolerance; the
    construction presumes a real spectrum, so we report and stop."""


@dataclass(frozen=True)
class SecularSpectrum:
    """The n secular roots at a point, ascending, with near-coincident
    roots flagged as multiple."""

    point: PhasePoint
    roots: tuple[float, ...]
    multiple: tuple[bool, ...]

    @property
    def simple(self) -> bool:
        return not any(self.multiple)


@dataclass(frozen=True)
class InvariantVector:
    """Values Y^(1)..Y^(n) at a point."""

    point: PhasePoint
    values: tuple[float, ...]


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def _entry_is_zero(v) -> bool:
    return v == 0.0


def _absent(v) -> bool:
    """Zero test of batched rows: arrays hold one value per state, and a
    plain 0.0 stands where the field has no component."""
    return type(v) is float


def _pfaffian(rows, is_zero=_entry_is_zero):
    """Pf of the skew matrix with the entries of rows above the diagonal
    (the others are not read): one state's floats, or rows over several
    states with is_zero=_absent.  The kernel of the matrix's size and of the
    entries is_zero holds for (`_pfaffian_kernel`) does the arithmetic."""
    upper = _upper(rows)
    return _pfaffian_kernel(len(rows), tuple(map(is_zero, upper)))(*upper)


def _upper(rows) -> list:
    """The entries above the diagonal, row by row."""
    return [v for i, row in enumerate(rows) for v in row[i + 1 :]]


@lru_cache(maxsize=64)
def _pfaffian_kernel(N: int, skipped: tuple[bool, ...]):
    """The Pfaffian of an N x N skew matrix as one straight-line function of
    its entries above the diagonal, row by row, compiled once per process
    for each N and tuple of entries to skip (true where the caller's zero
    test holds).

    The text is the first-row expansion Pf(M) = sum_j (-1)^pos M[i0,j]
    Pf(M minus rows and columns i0, j) over the ascending tuple of active
    indices, memoized on that tuple and written out: one assignment per
    tuple, in the order the recursion completes them; its terms in the
    order of j, summed left to right, with ``-`` at odd positions (``-(..)``
    where the first term kept is odd); a skipped entry's term left out;
    ``0.0 * M[i0,i1]`` where every entry of the first row is skipped; 1.0
    for the empty tuple.  So each float operation and its order are those
    of the memoized recursion (`tests/helpers.py` keeps it as the oracle):
    the result is bit for bit the recursion's, on floats and on arrays."""
    entry = {(i, j): f"e{i}_{j}" for i in range(N) for j in range(i + 1, N)}
    skip = {pair for pair, s in zip(entry, skipped) if s}
    names, lines = {(): "1.0"}, []

    def expand(active):
        if active in names:
            return names[active]
        i0, rest = active[0], active[1:]
        total = ""
        for pos, j in enumerate(rest):
            if (i0, j) in skip:
                continue
            term = f"{entry[i0, j]} * {expand(rest[:pos] + rest[pos + 1 :])}"
            if total:
                total += f" - {term}" if pos % 2 else f" + {term}"
            else:
                total = f"-({term})" if pos % 2 else term
        names[active] = f"p{len(lines)}"
        lines.append(f"{names[active]} = {total or '0.0 * ' + entry[active[:2]]}")
        return names[active]

    result = expand(tuple(range(N)))
    head = f"def pfaffian({', '.join(entry.values())}):"
    source = "\n    ".join([head, *lines, f"return {result}"])
    env: dict = {}
    exec(compile(source, f"<pfaffian {N}x{N}>", "exec"), env)
    return env["pfaffian"]


def pfaffian(M: np.ndarray) -> float:
    """Pfaffian of an antisymmetric even-dimensional real matrix, computed
    by the memoized first-row expansion (`_pfaffian_kernel`; Pf(M)^2 = det(M))."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    N = M.shape[0]
    if N % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {N}")
    residual = float(np.max(np.abs(M + M.T))) if N else 0.0
    scale = max(1.0, float(np.max(np.abs(M)))) if N else 1.0
    if residual > 1e-12 * scale:
        raise ValueError(f"matrix is not antisymmetric (symmetrized residual {residual:.3e})")
    return float(_pfaffian(M.tolist()))


# ---------------------------------------------------------------------------
# Pencil interpolation
# ---------------------------------------------------------------------------

def _zero_deformation(n: int) -> list[float]:
    """Coefficients of P(t) = Pf(tW)/Pf(W) = t^n, the pencil of H = 0."""
    return [1.0 if m == n else 0.0 for m in range(n + 1)]


def _node_scales(norm_w, norm_h) -> np.ndarray:
    """Spread s of the interpolation nodes, ||H|| / ||W|| clamped, for
    arrays of norms (or one pair of norms, as a 0-d array)."""
    norm_w, norm_h = np.asarray(norm_w, dtype=float), np.asarray(norm_h, dtype=float)
    with np.errstate(all="ignore"):
        s = np.where(norm_w > 0, norm_h / norm_w, 1.0)
    # degenerate ratio: fall back to unit node spread
    s = np.where(np.isfinite(s) & (s >= 1e-12), s, 1.0)
    return np.clip(s, 1e-100, 1e100)


def _interpolation_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n+1 Chebyshev nodes u_k on [-1, 1] and their Vandermonde matrix."""
    u = np.array([math.cos(math.pi * (2 * k + 1) / (2 * (n + 1))) for k in range(n + 1)])
    return u, np.vander(u, n + 1, increasing=True)


def _batch_rows(fields: list[MultiVectorField], states: np.ndarray, values=None) -> list[list[list]]:
    """Each field's matrix rows at the states: one state's floats, or for
    several an array over them per component and the float 0.0 where the
    field has none (see _absent).  The components' values, field by field, are
    ``values`` or one `evaluate_batch` call's, whose error is the first met at
    the first failing state."""
    if values is None:
        values = evaluate_batch([e for V in fields for e in V.components.values()], states)
    values = iter([v.item() for v in values] if len(states) == 1 else values)
    out = []
    for V in fields:
        rows: list[list] = [[0.0] * V.space.dim for _ in range(V.space.dim)]
        for (i, j), v in zip(V.components, values):
            rows[i][j] = v
            rows[j][i] = -v
        out.append(rows)
    return out


def _zero_test(m: int):
    """The zero test of rows at m states: on floats for one, arrays for several."""
    return _entry_is_zero if m == 1 else _absent


def _stack(entries, m: int) -> np.ndarray:
    """Entries of rows at m states as one C-ordered (m, len(entries)) array."""
    if m == 1:
        return np.array([entries], dtype=float)
    out = np.zeros((m, len(entries)))
    for k, v in enumerate(entries):
        if not _absent(v):
            out[:, k] = v
    return out


def _zero_at(entries) -> np.ndarray:
    """The states where an array among the entries is exactly 0."""
    return np.any([v == 0.0 for v in entries if not _absent(v)], axis=0)


def _state(rows, k: int) -> list[list[float]]:
    """State k's floats of rows over several states."""
    return [[v if _absent(v) else v[k].item() for v in row] for row in rows]


def _norms(rows, m: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """||rows||_F at each of m states, the squares added to 0.0 one at a time
    (not compensated, as sum() is from Python 3.12 on), and the mask of the
    states where a finite entry's square overflows, which raises at one state."""
    is_zero = _zero_test(m)
    entries = _stack([0.0] + [v for row in rows for v in row if not is_zero(v)], m)
    with np.errstate(over="ignore"):  # a sum of finite squares may overflow to inf, too
        squares = np.float_power(entries, 2.0)  # rounds as ``**`` does
        sums = np.add.accumulate(squares, axis=1)[:, -1]
    overflow = np.any(np.isinf(squares) & np.isfinite(entries), axis=1)
    if m == 1 and overflow[0]:
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
                    if math.isfinite(v) and math.isinf(v * v))
        raise OverflowError(f"the pencil norm ||{name}|| overflows: the square of its entry"
                            f" ({i}, {j}) = {rows[i][j]:.6g} exceeds the float range")
    return np.sqrt(sums), overflow


def _pencil(w_rows, h_rows, m: int, pf_w=None) -> np.ndarray:
    """Coefficients a_0..a_n of P(t) = Pf(H + tW)/Pf(W) at each of m states
    (rows from `_batch_rows`; Pf(W) is pf_w where given), an (m, n+1) array:
    the Pfaffian at n+1 Chebyshev nodes t = s u_k, s = ||H||/||W||, and one
    stacked interpolation solve; P(t) = t^n where H = 0.  Of several states,
    each one the arrays cannot reproduce (an entry exactly 0, a norm's square
    or a power s**m overflowing) runs alone, in order, so the first error
    raised is its own."""
    N = len(w_rows)
    n = N // 2
    is_zero = _zero_test(m)
    w_upper, h_upper = _upper(w_rows), _upper(h_rows)
    # the pencil's entries above the diagonal where W or What has one, with
    # 0.0 standing for the other's
    support = [k for k, (h, w) in enumerate(zip(h_upper, w_upper))
               if not (is_zero(h) and is_zero(w))]
    h_support, w_support = (_stack([upper[k] for k in support], m) for upper in (h_upper, w_upper))
    zero_deformation = np.all(h_support == 0.0, axis=1)
    if zero_deformation.all():
        # P(t) = t^n identically: keep the zero deformation exact instead
        # of amplifying solver noise through the roots
        return np.tile(_zero_deformation(n), (m, 1))
    (norm_w, over_w), (norm_h, over_h) = _norms(w_rows, m, "W"), _norms(h_rows, m, "What")
    s = _node_scales(norm_w, norm_h)
    u, vander = _interpolation_nodes(n)
    vals = np.empty((m, n + 1))
    with np.errstate(all="ignore"):
        powers = np.float_power(s[:, None], np.arange(n + 1.0))  # rounds as ``**`` does
        if m == 1 and np.isinf(powers[0, n]):
            raise OverflowError(f"the pencil's node scale s = {s[0]:.6g} overflows: s**{n}"
                                " exceeds the float range")
        nodes = h_support + (u[:, None, None] * s[:, None]) * w_support
        for k, entries in enumerate(nodes[:, 0].tolist() if m == 1 else nodes.transpose(0, 2, 1)):
            pencil = [0.0] * len(w_upper)
            for e, v in zip(support, entries):
                pencil[e] = v
            vals[:, k] = _pfaffian_kernel(N, tuple(map(is_zero, pencil)))(*pencil)
        # numpy's division, which gives inf or NaN where Pf(W) = 0
        vals /= np.reshape(_pfaffian(w_rows, is_zero) if pf_w is None else pf_w, (-1, 1))
        b = np.linalg.solve(np.broadcast_to(vander, (m, n + 1, n + 1)), vals[:, :, None])[:, :, 0]
        # undo the node scaling: P(t) = R(t/s) with R(u) = sum b_m u^m
        out = b / powers
    out[zero_deformation] = _zero_deformation(n)
    if m > 1:
        # an exact 0, which a kernel on floats skips and arrays compute, or an overflow
        redo = _zero_at(w_upper) | np.any(nodes == 0.0, axis=(0, 2))
        redo |= over_w | over_h | np.isinf(powers[:, n])
        for k in np.flatnonzero(redo & ~zero_deformation):
            out[k] = _pencil(_state(w_rows, k), _state(h_rows, k), 1)[0]
    return out


def _margins(rows, m: int, pf_w=None) -> np.ndarray:
    """|Pf(W)| / ||W||_F^n at each of m states (rows and pf_w as for `_pencil`),
    0 where W = 0.  Where the entries are finite but the norm's n-th power is
    not finite and positive, the same scale-free ratio for W / max|W_ij|, whose
    norm lies in [sqrt(2), 2n].  Of several states, each one the arrays cannot
    reproduce (an entry exactly 0, a power out of range) runs alone."""
    N = len(rows)
    # one C-ordered row per state: matmul's order of summation follows the layout
    flat = _stack([v for row in rows for v in row], m)[:, None]
    with np.errstate(all="ignore"):
        # sqrt(x.dot(x)) over the flattened matrix, as np.linalg.norm takes it
        norms = np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]
        powers = np.float_power(norms, float(N // 2))  # rounded as Python's ** rounds
        margins = np.abs(_pfaffian(rows, _zero_test(m)) if pf_w is None else pf_w) / powers
    in_range = (powers > 0.0) & (powers < np.inf)
    if m > 1:
        for k in np.flatnonzero(_zero_at(_upper(rows)) | ~in_range):
            margins[k] = _margins(_state(rows, k), 1)[0]
        return margins
    top = float(np.max(np.abs(flat), initial=0.0))
    if top == 0.0:  # W = 0
        return np.zeros(1)
    if in_range[0] or not top < math.inf:  # in range, or an entry is inf or NaN
        return margins
    return _margins((flat[0, 0] / top).reshape(N, N).tolist(), 1)


def regularity_margin(w_matrix: np.ndarray) -> float:
    """The scale-free |Pf(W)| / ||W||_F^n of W's matrix (`_margins`)."""
    return float(_margins(np.asarray(w_matrix, dtype=float).tolist(), 1)[0])


def regularity_margins(W: MultiVectorField, states, values=None) -> np.ndarray:
    """regularity_margin(evaluate_mv(W, x)) at every row x of a (m, 2n) state array, bit
    for bit: one `_margins` pass over the states (``values``: see `_batch_rows`)."""
    states = np.asarray(states, dtype=float)
    return _margins(*_batch_rows([W], states, values), len(states))


def is_regular(W: MultiVectorField, x) -> bool:
    return regularity_margin(evaluate_mv(W, x)) > REGULARITY_FACTOR


def _require_regular(W: MultiVectorField, x) -> tuple[list[list[float]], float]:
    """W's matrix rows at x and Pf(W) there; RegularityError where W is degenerate."""
    rows = evaluate_mv(W, x).tolist()
    pf_w = _pfaffian(rows)
    if not _margins(rows, 1, pf_w)[0] > REGULARITY_FACTOR:  # a NaN margin is not regular
        raise RegularityError(f"bivector is numerically degenerate at {tuple(x)}")
    return rows, pf_w


def _as_point(x) -> PhasePoint:
    return x if isinstance(x, PhasePoint) else PhasePoint(tuple(x))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def pencil_coefficients(W: MultiVectorField, What: MultiVectorField, x) -> list[float]:
    """Coefficients a_0..a_n of P(t) = Pf(W_hat + tW)/Pf(W) at x.  W is not
    tested for regularity here: pass a regular point (`is_regular`), or use
    `secular_roots` / `mixed_wedge_ratios`, which raise RegularityError."""
    return _pencil(evaluate_mv(W, x).tolist(), evaluate_mv(What, x).tolist(), 1)[0].tolist()


def _real_roots(raw: np.ndarray) -> np.ndarray:
    """Ascending real parts of each row of raw roots; NonRealSpectrumError
    at the first row with an imaginary part beyond tolerance."""
    scale = np.fmax(1.0, np.max(np.abs(raw), axis=1, initial=0.0))
    imag = np.abs(raw.imag)
    bad = np.flatnonzero(np.any(imag > ROOT_IMAG_TOL * scale[:, None], axis=1))
    if bad.size:
        k = bad[0]
        worst = float(np.max(imag[k]))
        raise NonRealSpectrumError(
            f"non-real spectrum: |Im| up to {worst:.3e} exceeds {ROOT_IMAG_TOL * scale[k]:.3e}"
        )
    return np.sort(raw.real, axis=1)


def _horner(d: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q(x) and Q'(x) by Horner's recurrences at each entry of the vector x,
    the polynomial of x[j] having the coefficients d[:, j], highest degree
    first (d has one column per entry of x, so each step is one operation
    on whole vectors)."""
    q, dq = d[0], 0.0
    for row in d[1:]:
        dq = dq * x + q
        q = q * x + row
    return q, dq


def _inclusion_radii(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rho = n (|Q(x)| + e) / (|Q'(x)| - e') at each entry of x (d and x as
    for `_horner`): some root of Q lies within rho of x, since
    Q'/Q (x) = sum_j 1/(x - zeta_j) for the n roots zeta_j.

    Q(x) and Q'(x) are `_horner`'s values, and e and e' bound their rounding
    errors, with running sums taken along the recurrences (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 5.1).  A step
    y_k <- fl(fl(x y_(k-1)) + a_k) errs by at most u' (|x y_(k-1)| + |y_k|),
    u' = u / (1 - u) with u the unit roundoff, and that error reaches Q(x)
    times x^(n-k).  With mu(s) = sum_k s^(n-k) |y_k| and nu(s) the same sum
    over the derivative recurrence's values, the error of Q(x) is at most
    2 u' mu(|x|), and that of Q'(x) at most 2 u' (nu(|x|) + mu'(|x|)): its
    own steps, and the errors of the y_k carried into it.  The factor 2 on
    top covers the rounding of these sums and of rho.  rho is inf where the
    lower bound on |Q'(x)| is not positive (or NaN)."""
    n = len(d) - 1
    size = np.abs(x)
    q, dq = d[0], 0.0
    mu, mu_slope, nu = np.abs(q), 0.0, 0.0
    for row in d[1:]:
        dq = dq * x + q
        nu = nu * size + np.abs(dq)
        mu_slope = mu_slope * size + mu
        q = q * x + row
        mu = mu * size + np.abs(q)
    scale = 4.0 * _UNIT_ROUNDOFF / (1.0 - _UNIT_ROUNDOFF)
    slope = np.abs(dq) - scale * (nu + mu_slope)
    return np.where(slope > 0.0, n * (np.abs(q) + scale * mu) / slope, np.inf)


def roots_near(coeffs, guess) -> tuple[np.ndarray, np.ndarray]:
    """The roots of P(-c) = 0 for each row of an (m, n+1) coefficient array,
    by Newton's method from a guess of them (n values, or an (m, n) array),
    and the mask of the rows whose roots are certified: (m, n) roots,
    ascending, NaN on the other rows, and (m,) booleans.

    On each row NEWTON_STEPS Newton steps on Q(c) = P(-c) run from the
    guess.  Each step about squares a simple root's relative error, so two
    take a guess within the drift audit's default tolerance (1e-6) of
    well-separated roots to the rounding level.  The row is certified when
    every root c_i and its inclusion radius rho_i (`_inclusion_radii`) are
    finite, rho_i <= CERTIFIED_TOL * max(1, |c_i|), and the disks of radius
    rho_i about the ascending c_i are pairwise disjoint.  Each of the n
    disjoint disks then holds a root of the degree-n Q, so each holds
    exactly one; a non-real root would bring its conjugate into the same
    real-centred disk, so all roots are real and simple.  A certified row's
    c_i lie each within rho_i of a true root of the row's polynomial.  So
    a row with a repeated or non-real root is never certified, nor one with
    a zero leading coefficient (fewer than n roots fill no n disjoint
    disks), nor one with a non-finite coefficient (its Newton roots or
    radii are not finite); such rows need another route, N's eigenvalues
    (`operator_roots`).  Each row's result depends on that row and the
    guess only."""
    coeffs = np.asarray(coeffs, dtype=float)
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    # Q(c) = P(-c), highest degree first: the coefficient of c^p is (-1)^p a_p
    desc = coeffs[:, ::-1] * np.where(np.arange(n, -1, -1) % 2, -1.0, 1.0)
    # one entry per root of each row, with that row's coefficients
    d = np.repeat(desc, n, axis=0).T.copy()
    x = np.broadcast_to(np.asarray(guess, dtype=float), (m, n)).ravel()
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            q, dq = _horner(d, x)
            x = x - q / dq
        c = np.sort(x.reshape(m, n), axis=1)
        rho = _inclusion_radii(d, c.ravel()).reshape(m, n)
        accurate = np.isfinite(c) & (rho <= CERTIFIED_TOL * np.fmax(1.0, np.abs(c)))
        disjoint = c[:, 1:] - c[:, :-1] > rho[:, 1:] + rho[:, :-1]
    certified = accurate.all(axis=1) & disjoint.all(axis=1)
    return np.where(certified[:, None], c, np.nan), certified


def multiple_root_flags(roots) -> tuple[bool, ...]:
    """Flag each ascending root that lies within ROOT_CLUSTER_TOL (relative
    to max(1, |c|max)) of a neighbour."""
    n = len(roots)
    scale = max(1.0, float(np.max(np.abs(roots))) if n else 0.0)
    multiple = [False] * n
    for i in range(n - 1):
        if roots[i + 1] - roots[i] < ROOT_CLUSTER_TOL * scale:
            multiple[i] = True
            multiple[i + 1] = True
    return tuple(multiple)


def y_from_coefficients(coeffs) -> tuple:
    """Y^(l) = a_{n-l} / C(n,l) for l = 1..n; the coefficients may be floats
    or arrays over states, and the invariants match their type."""
    n = len(coeffs) - 1
    return tuple(coeffs[n - l] / math.comb(n, l) for l in range(1, n + 1))


def y_from_root_values(roots) -> tuple[float, ...]:
    """Y^(l) = e_l(c_1..c_n) / C(n,l): elementary symmetric functions of the
    roots over strictly increasing index tuples."""
    n = len(roots)
    # e_l via the coefficient recursion for prod (t + c_i)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for c in roots:
        e[1:] = e[1:] + c * e[:-1]
    return tuple(float(e[l]) / math.comb(n, l) for l in range(1, n + 1))


def pencil_coefficients_batch(W: MultiVectorField, What: MultiVectorField, states,
                              values=None) -> np.ndarray:
    """pencil_coefficients(W, What, x) at every row x of a (m, 2n) state
    array, as an (m, n+1) array, bit for bit: one `_pencil` pass over the
    states, whose Pfaffian kernels run on arrays over them and whose
    interpolation systems go to one stacked solve (``values``: see `_batch_rows`)."""
    states = np.asarray(states, dtype=float)
    return _pencil(*_batch_rows([W, What], states, values), len(states))


def mixed_wedge_ratios(W: MultiVectorField, What: MultiVectorField, x) -> InvariantVector:
    """Invariants Y^(l) = (coefficient of t^{n-l} in P) / C(n,l) for
    l = 1..n, i.e. the top-wedge ratios W_hat^l ^ W^{n-l} / W^n."""
    rows, pf_w = _require_regular(W, x)
    values = y_from_coefficients(_pencil(rows, evaluate_mv(What, x).tolist(), 1, pf_w)[0])
    return InvariantVector(_as_point(x), tuple(float(v) for v in values))


def secular_roots(W: MultiVectorField, What: MultiVectorField, x, where=None) -> SecularSpectrum:
    """The n roots of P(-c) = 0 - equivalently the eigenvalue pairs of the
    generalized problem W_hat v = c W v - sorted ascending, with
    near-coincident roots flagged: N's eigenvalues at x (`operator_roots`,
    whose errors name x where(0)), real at a repeated root too;
    RegularityError where W is degenerate."""
    rows = _require_regular(W, x)[0]
    with np.errstate(all="ignore"):  # N alone, not dN; inf entries fail closed
        roots = operator_roots((np.linalg.inv(rows) @ evaluate_mv(What, x))[None], where)[0]
    return SecularSpectrum(
        _as_point(x), tuple(float(r) for r in roots), multiple_root_flags(roots)
    )


def y_from_roots(spectrum: SecularSpectrum) -> InvariantVector:
    """Y^(l) = e_l(c_1..c_n) / C(n,l) of the spectrum's roots."""
    return InvariantVector(spectrum.point, y_from_root_values(spectrum.roots))


# ---------------------------------------------------------------------------
# Recursion operator
# ---------------------------------------------------------------------------

def operator_batch(W: MultiVectorField, What: MultiVectorField, states) -> np.ndarray:
    """N = W^{-1} W_hat at every row of a (m, 2n) state array, (m, 2n, 2n):
    `recursion_operator_batch`'s N without evaluating dN.  W must be
    regular at every state."""
    w, what = (a[0] for a in field_arrays([W, What], states, partials=False))
    with np.errstate(all="ignore"):  # inf entries give inf or NaN, which fail closed
        return np.linalg.inv(w) @ what


def recursion_operator_batch(W: MultiVectorField, What: MultiVectorField, states) -> tuple:
    """`operator_jet` at every row of a (m, 2n) state array, from one `field_arrays`
    call over W and W_hat with their partials; W must be regular at every state."""
    return operator_jet(*field_arrays([W, What], states))


def operator_jet(w: np.ndarray, what: np.ndarray) -> tuple:
    """(W, W_hat, N, dN) from W's and W_hat's arrays at m states with partials
    (`field_arrays`): W, W_hat and N = W^{-1} W_hat as (m, 2n, 2n) arrays, and
    dN_l = W^{-1} (d_l W_hat - d_l W N) as an (m, 2n, 2n, 2n) array, l second."""
    w, what, dw, dwhat = w[0], what[0], w[1:].swapaxes(0, 1), what[1:].swapaxes(0, 1)
    w_inv = np.linalg.inv(w)
    with np.errstate(all="ignore"):  # inf entries give inf or NaN, which fail closed
        op = w_inv @ what
        rhs = dw @ op[:, None]
        np.subtract(dwhat, rhs, out=rhs)
        return w, what, op, w_inv[:, None] @ rhs


def trace_invariants(op: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y^(1)..Y^(n) and their gradients at each state, arrays of shape
    (m, n) and (m, n, 2n), from N and dN (`recursion_operator_batch`).
    Each secular root is a double eigenvalue of N, so the power sums of the
    roots are p_k = tr(N^k)/2, with gradients d p_k = (k/2) tr(N^{k-1} dN);
    Newton's identities turn them into the elementary symmetric functions
    e_l = C(n,l) Y^(l).  Repeated roots need no special treatment."""
    m, N = op.shape[:2]
    n = N // 2
    powers = [np.broadcast_to(np.eye(N), op.shape)]  # N^0 .. N^n
    with np.errstate(all="ignore"):  # as in `recursion_operator_batch`: inf and NaN fail closed
        for _ in range(n):
            powers.append(powers[-1] @ op)
        p = [np.trace(P, axis1=1, axis2=2) / 2 for P in powers[1:]]
        dp = [k / 2 * np.einsum("mab,mlba->ml", P, grad) for k, P in enumerate(powers[:-1], 1)]
        # l e_l = sum_{k=1..l} (-1)^(k-1) e_{l-k} p_k, and its gradient
        e, de = [np.ones(m)], [np.zeros((m, N))]
        for l in range(1, n + 1):
            total, d_total = np.zeros(m), np.zeros((m, N))
            for k in range(1, l + 1):
                sign = (-1) ** (k - 1)
                total += sign * e[l - k] * p[k - 1]
                d_total += sign * (de[l - k] * p[k - 1][:, None] + e[l - k][:, None] * dp[k - 1])
            e.append(total / l)
            de.append(d_total / l)
        binom = np.array([math.comb(n, l) for l in range(1, n + 1)], dtype=float)
        return np.stack(e[1:], axis=1) / binom, np.stack(de[1:], axis=1) / binom[:, None]


def operator_roots(op: np.ndarray, where=None) -> np.ndarray:
    """The secular roots c_1 <= .. <= c_n at each state, an (m, n) array,
    from the eigenvalues of N (an (m, 2n, 2n) array): each root is a double
    eigenvalue of N, and its two computed copies are averaged.  These are
    the roots that N's own rounding is consistent with, which the
    projectors of `root_pair_gradients` need: they amplify a root's error
    by ratios of root gaps.  Each root is a semisimple eigenvalue of N, so
    a repeated root stays real to the rounding level.  SpectralError at the
    first state where N has an inf or NaN entry, named by ``where(index into
    op)`` or by that index; NonRealSpectrumError at the first state whose
    eigenvalues are not real (`_real_roots`)."""
    bad = np.flatnonzero(~np.isfinite(op).all(axis=(1, 2)))
    if bad.size:
        at = where(bad[0]) if where else f"state {bad[0]} of {len(op)}"
        raise SpectralError(f"the recursion operator N = W^-1 What is not finite"
                            f" (an inf or NaN entry) at {at}")
    values = _real_roots(np.linalg.eigvals(op))
    return (values[:, ::2] + values[:, 1::2]) / 2


def root_pair_gradients(op: np.ndarray, grad: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Gradients of the secular roots c_1 <= .. <= c_n at each state, an
    (m, n, 2n) array, from N, dN and the roots (an (m, n) array, ascending):
    dc_i = tr(P_i dN)/2, where P_i = prod_{j != i} (N - c_j I)/(c_i - c_j) is
    the spectral projector of N on c_i's 2-dimensional eigenspace.  Each
    root is a double eigenvalue of N and a semisimple one (the Kronecker
    blocks of a real skew pencil come in equal pairs), so N's minimal
    polynomial is prod_j (t - c_j) and P_i needs no eigenvectors.  Valid
    where the roots are simple."""
    roots = np.asarray(roots, dtype=float)
    m, N = op.shape[:2]
    n = roots.shape[1]
    eye = np.eye(N)
    out = np.empty((m, n, N))
    for i in range(n):
        projector = np.broadcast_to(eye, op.shape)
        for j in range(n):
            if j != i:
                shifted = op - roots[:, j, None, None] * eye
                projector = projector @ shifted / (roots[:, i] - roots[:, j])[:, None, None]
        out[:, i] = np.einsum("mab,mlba->ml", projector, grad) / 2
    return out


def pencil_coefficient_jets(W: MultiVectorField, What: MultiVectorField, x) -> list[Jet]:
    """Jets of the pencil coefficients a_0..a_n at x (value + gradient):
    a_(n-l) = C(n,l) Y^(l) from `invariant_jets`, and a_n = 1."""
    ys = invariant_jets(W, What, x)
    n = len(ys)
    return [Jet(y.value * math.comb(n, m), y.gradient * math.comb(n, m))
            for m, y in enumerate(ys[::-1])] + [Jet(1.0, np.zeros(2 * n))]


def invariant_jets(W: MultiVectorField, What: MultiVectorField, x) -> list[Jet]:
    """Jets of Y^(1)..Y^(n) at x: values and exact gradients from the
    recursion operator (`operator_jet`, `trace_invariants`) on the fields'
    point routes: W, W_hat, then their partials; RegularityError where W is degenerate."""
    matrices = [_require_regular(W, x)[0], evaluate_mv(What, x)]
    w, what = (np.concatenate([[v], _point_arrays(F, x, True)])[:, None]
               for F, v in zip((W, What), matrices))
    values, grads = trace_invariants(*operator_jet(w, what)[2:])
    return [Jet(v, g) for v, g in zip(values[0].tolist(), grads[0])]


def invariant_gradient(W: MultiVectorField, E: MultiVectorField, l: int, x) -> np.ndarray:
    """Gradient of x -> Y^(l)(x) for the deformation W_hat = L_E W."""
    n = W.space.n
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    What = lie_derivative_mv(E, W)
    return invariant_jets(W, What, x)[l - 1].gradient


def root_gradients(coeff_jets: list[Jet], roots: tuple[float, ...]) -> list[np.ndarray]:
    """Gradients of simple secular roots from the coefficient jets, via
    implicit differentiation of P(-c) = 0."""
    n = len(coeff_jets) - 1
    out = []
    for c in roots:
        t = -c
        num = sum(coeff_jets[m].gradient * t ** m for m in range(n + 1))
        den = sum(m * coeff_jets[m].value * t ** (m - 1) for m in range(1, n + 1))
        if abs(den) < 1e-12 * max(1.0, abs(t) ** (n - 1)):
            raise SpectralError(f"root {c} is too close to multiple for implicit gradients")
        # grad t = -grad P / P'(t) and c = -t
        out.append(num / den)
    return out
