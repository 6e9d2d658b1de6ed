"""Secular spectrum and wedge-ratio invariants of a bivector pencil.

Given two bivectors W (regular) and W_hat at a phase-space point, the degree-n
pencil polynomial

    P(t) = Pf(W_hat(x) + t W(x)) / Pf(W(x))

carries everything this module extracts: the coefficient of t^{n-l} equals
C(n,l) * Y^(l), where Y^(l) is the ratio of the top wedge power
W_hat^l ^ W^{n-l} to W^n, and the n roots of P(-c) are the secular roots of
the pencil (W_hat - c W)^n = 0.  Two independent routes - coefficients versus
elementary symmetric functions of the roots - cross-validate each other.

Everything is computed at a point.  The generic Pfaffian recursion also runs
on jet-valued matrices, which yields exact gradients of the invariants for
the involution checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Jet, evaluate_jet
from .geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv

__all__ = [
    "SpectralError",
    "RegularityError",
    "NonRealSpectrumError",
    "SecularSpectrum",
    "InvariantVector",
    "pfaffian",
    "pencil_coefficients",
    "roots_from_coefficients",
    "multiple_root_flags",
    "y_from_coefficients",
    "y_from_root_values",
    "mixed_wedge_ratios",
    "secular_roots",
    "y_from_roots",
    "invariant_gradient",
    "invariant_jets",
    "pencil_coefficient_jets",
    "root_gradients",
    "regularity_margin",
    "is_regular",
]

REGULARITY_FACTOR = 1e-6
ROOT_IMAG_TOL = 1e-8
ROOT_CLUSTER_TOL = 1e-6


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
    if isinstance(v, Jet):
        return v.value == 0.0 and not v.gradient.any()
    return v == 0.0


def _pfaffian_rec(rows, active: tuple[int, ...], memo: dict):
    """First-row expansion Pf(M) = sum_j (-1)^pos M[i0,j] Pf(M minus i0,j),
    memoized on the set of active indices.  Works for floats and jets."""
    if not active:
        return 1.0
    hit = memo.get(active)
    if hit is not None:
        return hit
    i0 = active[0]
    rest = active[1:]
    total = None
    for pos, j in enumerate(rest):
        entry = rows[i0][j]
        if _entry_is_zero(entry):
            continue
        term = entry * _pfaffian_rec(rows, rest[:pos] + rest[pos + 1 :], memo)
        if pos % 2 == 1:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = 0.0 * rows[active[0]][active[1]]
    memo[active] = total
    return total


def pfaffian(M: np.ndarray) -> float:
    """Pfaffian of an antisymmetric even-dimensional real matrix, computed
    by recursive first-row expansion (Pf(M)^2 = det(M))."""
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
    return float(_pfaffian_rec(M.tolist(), tuple(range(N)), {}))


# ---------------------------------------------------------------------------
# Pencil interpolation
# ---------------------------------------------------------------------------

def _value(v) -> float:
    return v.value if isinstance(v, Jet) else float(v)


def _frobenius(rows) -> float:
    return math.sqrt(sum(_value(v) ** 2 for row in rows for v in row))


def _pencil_coefficients(w_rows, h_rows):
    """Coefficients a_0..a_n of P(t) = Pf(H + tW)/Pf(W), found by evaluating
    the Pfaffian at n+1 Chebyshev nodes (scaled to ||H||/||W||) and solving
    the interpolation system.  Entries may be floats or jets; the returned
    coefficients match their type."""
    N = len(w_rows)
    n = N // 2
    if all(_entry_is_zero(v) for row in h_rows for v in row):
        # P(t) = Pf(tW)/Pf(W) = t^n identically: keep the zero deformation
        # exact instead of amplifying solver noise through the roots
        if isinstance(w_rows[0][0], Jet):
            dim = len(w_rows[0][0].gradient)
            return [Jet.constant(1.0 if m == n else 0.0, dim) for m in range(n + 1)]
        return [1.0 if m == n else 0.0 for m in range(n + 1)]
    memo_w: dict = {}
    pf_w = _pfaffian_rec(w_rows, tuple(range(N)), memo_w)

    norm_w = _frobenius(w_rows)
    norm_h = _frobenius(h_rows)
    s = norm_h / norm_w if norm_w > 0 else 1.0
    if not math.isfinite(s) or s < 1e-12:
        s = 1.0  # degenerate ratio: fall back to unit node spread
    s = min(max(s, 1e-100), 1e100)

    u = np.array([math.cos(math.pi * (2 * k + 1) / (2 * (n + 1))) for k in range(n + 1)])
    vals = []
    for uk in u:
        t = s * uk
        pencil = [
            [h_rows[i][j] + t * w_rows[i][j] for j in range(N)] for i in range(N)
        ]
        vals.append(_pfaffian_rec(pencil, tuple(range(N)), {}) / pf_w)

    vander = np.vander(u, n + 1, increasing=True)
    if any(isinstance(v, Jet) for v in vals):
        inv = np.linalg.inv(vander)
        b = [sum(float(inv[m, k]) * vals[k] for k in range(n + 1)) for m in range(n + 1)]
    else:
        b = list(np.linalg.solve(vander, np.array(vals, dtype=float)))
    # undo the node scaling: P(t) = R(t/s) with R(u) = sum b_m u^m
    return [b[m] / (s ** m) for m in range(n + 1)]


def _matrix_rows(V: MultiVectorField, x) -> list[list[float]]:
    return evaluate_mv(V, x).tolist()


def _jet_matrix_rows(V: MultiVectorField, x) -> list[list[Jet]]:
    N = V.space.dim
    zero = Jet.constant(0.0, N)
    rows = [[zero for _ in range(N)] for _ in range(N)]
    for (i, j), e in V.components.items():
        jet = evaluate_jet(e, x)
        rows[i][j] = jet
        rows[j][i] = -jet
    return rows


def regularity_margin(w_matrix: np.ndarray) -> float:
    """Scale-free regularity measure |Pf(W)| / ||W||_F^n (0 when W = 0)."""
    w_matrix = np.asarray(w_matrix, dtype=float)
    n = w_matrix.shape[0] // 2
    norm = float(np.linalg.norm(w_matrix))
    if norm == 0.0:
        return 0.0
    pf = _pfaffian_rec(w_matrix.tolist(), tuple(range(2 * n)), {})
    return abs(pf) / norm ** n


def is_regular(W: MultiVectorField, x) -> bool:
    return regularity_margin(evaluate_mv(W, x)) > REGULARITY_FACTOR


def _require_regular(W: MultiVectorField, x) -> list[list[float]]:
    rows = _matrix_rows(W, x)
    if regularity_margin(np.array(rows)) <= REGULARITY_FACTOR:
        raise RegularityError(f"bivector is numerically degenerate at {tuple(x)}")
    return rows


def _regular_coefficients(W: MultiVectorField, What: MultiVectorField, x) -> list[float]:
    return _pencil_coefficients(_require_regular(W, x), _matrix_rows(What, x))


def _as_point(x) -> PhasePoint:
    return x if isinstance(x, PhasePoint) else PhasePoint(tuple(x))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def pencil_coefficients(W: MultiVectorField, What: MultiVectorField, x) -> list[float]:
    """Coefficients a_0..a_n of P(t) = Pf(W_hat + tW)/Pf(W) at x.  W is not
    tested for regularity here: pass a regular point (`is_regular`), or use
    `secular_roots` / `mixed_wedge_ratios`, which raise RegularityError."""
    return _pencil_coefficients(_matrix_rows(W, x), _matrix_rows(What, x))


def roots_from_coefficients(coeffs) -> np.ndarray:
    """The n roots of P(-c) = 0 for coefficients a_0..a_n of P, real and
    ascending; raises NonRealSpectrumError on a complex spectrum."""
    n = len(coeffs) - 1
    # Q(c) = P(-c): coefficient of c^m is (-1)^m a_m; np.roots wants
    # highest-degree first (companion-matrix eigenvalues under the hood)
    desc = [((-1) ** m) * coeffs[m] for m in range(n, -1, -1)]
    raw = np.roots(desc) if n >= 1 else np.array([])
    scale = max(1.0, float(np.max(np.abs(raw))) if raw.size else 0.0)
    imag = np.abs(raw.imag)
    if np.any(imag > ROOT_IMAG_TOL * scale):
        worst = float(np.max(imag))
        raise NonRealSpectrumError(
            f"non-real spectrum: |Im| up to {worst:.3e} exceeds {ROOT_IMAG_TOL * scale:.3e}"
        )
    return np.sort(raw.real)


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
    or jets, and the invariants match their type."""
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


def mixed_wedge_ratios(W: MultiVectorField, What: MultiVectorField, x) -> InvariantVector:
    """Invariants Y^(l) = (coefficient of t^{n-l} in P) / C(n,l) for
    l = 1..n, i.e. the top-wedge ratios W_hat^l ^ W^{n-l} / W^n."""
    values = y_from_coefficients(_regular_coefficients(W, What, x))
    return InvariantVector(_as_point(x), tuple(float(v) for v in values))


def secular_roots(W: MultiVectorField, What: MultiVectorField, x) -> SecularSpectrum:
    """The n roots of P(-c) = 0 - equivalently the eigenvalue pairs of the
    generalized problem W_hat v = c W v - sorted ascending, with
    near-coincident roots flagged."""
    roots = roots_from_coefficients(_regular_coefficients(W, What, x))
    return SecularSpectrum(
        _as_point(x), tuple(float(r) for r in roots), multiple_root_flags(roots)
    )


def y_from_roots(spectrum: SecularSpectrum) -> InvariantVector:
    """Y^(l) = e_l(c_1..c_n) / C(n,l) of the spectrum's roots."""
    return InvariantVector(spectrum.point, y_from_root_values(spectrum.roots))


def pencil_coefficient_jets(W: MultiVectorField, What: MultiVectorField, x) -> list[Jet]:
    """Jets of the pencil coefficients a_0..a_n at x (value + gradient)."""
    _require_regular(W, x)
    return _pencil_coefficients(_jet_matrix_rows(W, x), _jet_matrix_rows(What, x))


def invariant_jets(W: MultiVectorField, What: MultiVectorField, x) -> list[Jet]:
    """Jets of Y^(1)..Y^(n) at x, via forward-mode propagation through
    matrix assembly, the Pfaffian recursion, and the interpolation."""
    return list(y_from_coefficients(pencil_coefficient_jets(W, What, x)))


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
