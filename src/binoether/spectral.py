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
the involution checks, and on matrices of arrays, one element per state:
the `*_batch` functions and `regularity_margins` run the point route for a
whole stack of states at once and return the point route's values, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Jet, evaluate_batch, evaluate_jet
from .geometry import MultiVectorField, PhasePoint, evaluate_mv, lie_derivative_mv

__all__ = [
    "SpectralError",
    "RegularityError",
    "NonRealSpectrumError",
    "SecularSpectrum",
    "InvariantVector",
    "pfaffian",
    "pencil_coefficients",
    "pencil_coefficients_batch",
    "roots_from_coefficients",
    "roots_from_coefficients_batch",
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
    "regularity_margins",
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


def _absent(v) -> bool:
    """Zero test of batched rows: arrays hold one value per state, and a
    plain 0.0 stands where the field has no component."""
    return type(v) is float


def _pfaffian_rec(rows, active: tuple[int, ...], memo: dict, is_zero=_entry_is_zero):
    """First-row expansion Pf(M) = sum_j (-1)^pos M[i0,j] Pf(M minus i0,j),
    memoized on the set of active indices, skipping entries for which
    is_zero holds.  Works for floats, jets and batched rows (with _absent).
    Only the entries above the diagonal are read."""
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
        if is_zero(entry):
            continue
        term = entry * _pfaffian_rec(rows, rest[:pos] + rest[pos + 1 :], memo, is_zero)
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


def _zero_deformation(n: int) -> list[float]:
    """Coefficients of P(t) = Pf(tW)/Pf(W) = t^n, the pencil of H = 0."""
    return [1.0 if m == n else 0.0 for m in range(n + 1)]


def _node_scale(norm_w: float, norm_h: float) -> float:
    """Spread s of the interpolation nodes, ||H|| / ||W|| clamped."""
    s = norm_h / norm_w if norm_w > 0 else 1.0
    if not math.isfinite(s) or s < 1e-12:
        s = 1.0  # degenerate ratio: fall back to unit node spread
    return min(max(s, 1e-100), 1e100)


def _interpolation_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n+1 Chebyshev nodes u_k on [-1, 1] and their Vandermonde matrix."""
    u = np.array([math.cos(math.pi * (2 * k + 1) / (2 * (n + 1))) for k in range(n + 1)])
    return u, np.vander(u, n + 1, increasing=True)


def _pencil_coefficients(w_rows, h_rows):
    """Coefficients a_0..a_n of P(t) = Pf(H + tW)/Pf(W), found by evaluating
    the Pfaffian at n+1 Chebyshev nodes (scaled to ||H||/||W||) and solving
    the interpolation system.  Entries may be floats or jets; the returned
    coefficients match their type."""
    N = len(w_rows)
    n = N // 2
    if all(_entry_is_zero(v) for row in h_rows for v in row):
        # P(t) = t^n identically: keep the zero deformation exact instead
        # of amplifying solver noise through the roots
        if isinstance(w_rows[0][0], Jet):
            dim = len(w_rows[0][0].gradient)
            return [Jet.constant(a, dim) for a in _zero_deformation(n)]
        return _zero_deformation(n)
    pf_w = _pfaffian_rec(w_rows, tuple(range(N)), {})
    s = _node_scale(_frobenius(w_rows), _frobenius(h_rows))
    u, vander = _interpolation_nodes(n)
    vals = []
    for uk in u:
        t = s * uk
        pencil = [
            [h_rows[i][j] + t * w_rows[i][j] for j in range(N)] for i in range(N)
        ]
        vals.append(_pfaffian_rec(pencil, tuple(range(N)), {}) / pf_w)

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


def _batch_rows(V: MultiVectorField, states: np.ndarray) -> list[list]:
    """V's matrix at every state: an array over the states for each
    component of V, the float 0.0 where V has none (see _absent)."""
    N = V.space.dim
    rows: list[list] = [[0.0] * N for _ in range(N)]
    values = evaluate_batch(list(V.components.values()), states)
    for (i, j), v in zip(V.components, values):
        rows[i][j] = v
        rows[j][i] = -v
    return rows


def _upper(rows) -> list[np.ndarray]:
    """The arrays above the diagonal of batched rows."""
    N = len(rows)
    return [rows[i][j] for i in range(N) for j in range(i + 1, N) if not _absent(rows[i][j])]


def _frobenius_batch(rows, m: int) -> list[float]:
    """_frobenius at each of m states, over that state's entries."""
    arrays = [v for row in rows for v in row if not _absent(v)]
    if not arrays:
        return [0.0] * m
    return [_frobenius([entries]) for entries in np.array(arrays).T.tolist()]


def regularity_margin(w_matrix: np.ndarray) -> float:
    """Scale-free regularity measure |Pf(W)| / ||W||_F^n (0 when W = 0)."""
    w_matrix = np.asarray(w_matrix, dtype=float)
    n = w_matrix.shape[0] // 2
    norm = float(np.linalg.norm(w_matrix))
    if norm == 0.0:
        return 0.0
    pf = _pfaffian_rec(w_matrix.tolist(), tuple(range(2 * n)), {})
    return abs(pf) / norm ** n


def regularity_margins(W: MultiVectorField, states) -> np.ndarray:
    """regularity_margin(evaluate_mv(W, x)) at every row x of a (m, 2n)
    state array, bit for bit; states where a component of W is exactly 0
    take the point route."""
    states = np.asarray(states, dtype=float)
    m = len(states)
    rows = _batch_rows(W, states)
    N = len(rows)
    n = N // 2
    mats = np.zeros((m, N, N))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not _absent(v):
                mats[:, i, j] = v
    skipped = np.any([w == 0.0 for w in _upper(rows)], axis=0)
    # sqrt(x.dot(x)) over the flattened matrix, as np.linalg.norm takes it
    flat = mats.reshape(m, 1, N * N)
    norms = np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    with np.errstate(all="ignore"):
        pf = np.broadcast_to(_pfaffian_rec(rows, tuple(range(N)), {}, _absent), (m,))
    margins = np.array([
        0.0 if norm == 0.0 else abs(p) / norm ** n for p, norm in zip(pf.tolist(), norms.tolist())
    ])
    for k in np.flatnonzero(skipped):
        margins[k] = regularity_margin(mats[k])
    return margins


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


def roots_from_coefficients(coeffs) -> np.ndarray:
    """The n roots of P(-c) = 0 for coefficients a_0..a_n of P, real and
    ascending; raises NonRealSpectrumError on a complex spectrum."""
    n = len(coeffs) - 1
    # Q(c) = P(-c): coefficient of c^m is (-1)^m a_m; np.roots wants
    # highest-degree first (companion-matrix eigenvalues under the hood)
    desc = [((-1) ** m) * coeffs[m] for m in range(n, -1, -1)]
    raw = np.roots(desc) if n >= 1 else np.array([])
    return _real_roots(raw[None, :])[0]


def roots_from_coefficients_batch(coeffs) -> np.ndarray:
    """roots_from_coefficients for every row of an (m, n+1) coefficient
    array, as an (m, n) array, bit for bit.  The companion matrices of all
    rows go to one stacked eigenvalue call, except for rows that np.roots
    would strip (a zero leading or trailing coefficient) or not accept (a
    non-finite one): those go through np.roots itself.  A zero leading
    coefficient leaves fewer than n roots, and raises ValueError."""
    coeffs = np.asarray(coeffs, dtype=float)
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    # Q(c) = P(-c), highest degree first, as in roots_from_coefficients
    desc = coeffs[:, ::-1] * np.where(np.arange(n, -1, -1) % 2, -1.0, 1.0)
    plain = (desc[:, 0] != 0.0) & (desc[:, -1] != 0.0) & np.all(np.isfinite(desc), axis=1)
    d = desc[plain]
    companion = np.zeros((len(d), n, n))
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -d[:, 1:] / d[:, :1]
    raw = np.zeros((m, n), dtype=complex)
    if len(d):
        raw[plain] = np.linalg.eigvals(companion)
    for k in np.flatnonzero(~plain):
        stripped = np.roots(desc[k])
        if len(stripped) != n:
            raise ValueError(f"coefficient row {k} has a zero leading coefficient: "
                             f"{len(stripped)} roots, not {n}")
        raw[k] = stripped
    return _real_roots(raw)


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


def pencil_coefficients_batch(W: MultiVectorField, What: MultiVectorField, states) -> np.ndarray:
    """pencil_coefficients(W, What, x) at every row x of a (m, 2n) state
    array, as an (m, n+1) array, bit for bit.

    One Pfaffian recursion runs on arrays over all states, and the
    interpolation systems go to one stacked solve.  A state where every
    entry of What is 0 takes the zero-deformation shortcut, and a state
    where the point route skips some other entry as exactly 0 takes the
    point route.  Where pencil_coefficients would raise at some state, this
    raises as well."""
    states = np.asarray(states, dtype=float)
    m = len(states)
    w_rows, h_rows = _batch_rows(W, states), _batch_rows(What, states)
    N = len(w_rows)
    n = N // 2
    full = tuple(range(N))
    zero_deformation = np.ones(m, dtype=bool)
    for h in _upper(h_rows):
        zero_deformation &= h == 0.0
    skipped = np.any([w == 0.0 for w in _upper(w_rows)], axis=0)

    scales = [
        _node_scale(norm_w, norm_h)
        for norm_w, norm_h in zip(_frobenius_batch(w_rows, m), _frobenius_batch(h_rows, m))
    ]
    s = np.array(scales)
    u, vander = _interpolation_nodes(n)
    vals = np.empty((m, n + 1))
    with np.errstate(all="ignore"):
        pf_w = _pfaffian_rec(w_rows, full, {}, _absent)
        for k, uk in enumerate(u):
            t = s * uk
            pencil: list[list] = [[0.0] * N for _ in range(N)]
            for i in range(N):
                for j in range(i + 1, N):
                    if not (_absent(h_rows[i][j]) and _absent(w_rows[i][j])):
                        pencil[i][j] = h_rows[i][j] + t * w_rows[i][j]
            skipped |= np.any([e == 0.0 for e in _upper(pencil)], axis=0)
            vals[:, k] = _pfaffian_rec(pencil, full, {}, _absent) / pf_w
        b = np.linalg.solve(np.broadcast_to(vander, (m, n + 1, n + 1)), vals[:, :, None])[:, :, 0]
        out = b / np.array([[sc ** p for p in range(n + 1)] for sc in scales]).reshape(m, n + 1)
        out[zero_deformation] = _zero_deformation(n)
        for k in np.flatnonzero(skipped & ~zero_deformation):
            out[k] = pencil_coefficients(W, What, states[k])
    return out


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
