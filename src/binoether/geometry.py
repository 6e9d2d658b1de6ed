"""Multivector fields in coordinates and the bracket calculus.

Degree-1 fields act as vector fields, degree-2 fields as (Poisson candidate)
bivectors.  Components are expressions stored only on strictly increasing
index tuples; any other index order is resolved through the permutation sign,
so antisymmetry is structural rather than enforced numerically.

Conventions (calibrated by the Jacobi-equivalence tests):
    {f, g}        = sum_{i<j} V^{ij} (d_i f d_j g - d_j f d_i g)
    (V(f))^j      = sum_i V^{ij} d_i f            so  {f, g} = (V(f))^j d_j g
    (L_E A)^I     = E^m d_m A^I - sum_s A^{I|i_s -> m} d_m E^{i_s}
    [A, B]^{ijk}  = sum_cyc(i,j,k) sum_l (A^{li} d_l B^{jk} + B^{li} d_l A^{jk})
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations, permutations

import numpy as np

from .expr import Num, PhaseSpace, ScalarExpr, _coerce, compile_kernel, evaluate_batch

__all__ = [
    "PhasePoint",
    "MultiVectorField",
    "lie_derivative_mv",
    "schouten_bb",
    "hamiltonian_vf",
    "poisson_bracket",
    "component_diffs",
    "field_arrays",
    "evaluate_mv",
]


@dataclass(frozen=True)
class PhasePoint:
    """A single point of the 2n-dimensional phase space, in canonical order."""

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError("phase-space coordinates must be finite")

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


@lru_cache(maxsize=4096)
def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, returning (sorted, permutation sign); repeated
    indices return (None, 0).  Memoized per tuple: a field of degree k
    over 2n coordinates has at most (2n)^k of them."""
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    lst = list(idx)
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return tuple(lst), sign


class MultiVectorField:
    """Degree-k antisymmetric contravariant tensor field with expression
    components.

    ``components`` maps strictly increasing index tuples to expressions;
    missing tuples read as zero.  Instances are immutable.
    """

    _diffs = None  # the components' partial derivatives, set by `component_diffs`
    _points = None  # each point route's index array and kernel, set by `_point_arrays`

    def __init__(self, space: PhaseSpace, degree: int, components: dict):
        # degree > dim is allowed but forces the zero field (no strictly
        # increasing tuple of that length exists), e.g. trivector brackets
        # over a two-dimensional space
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        self.space = space
        self.degree = degree
        merged: dict[tuple[int, ...], ScalarExpr] = {}
        for idx, value in components.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not match degree {degree}")
            if any(i < 0 or i >= space.dim for i in idx):
                raise ValueError(f"index tuple {idx} out of range for dim {space.dim}")
            key, sign = _sort_with_sign(idx)
            if key is None:
                raise ValueError(f"repeated index in tuple {idx}")
            term = float(sign) * _coerce(value)
            merged[key] = merged[key] + term if key in merged else term
        self.components = {
            key: merged[key] for key in sorted(merged) if not merged[key].is_zero()
        }

    @classmethod
    def zero(cls, space: PhaseSpace, degree: int) -> "MultiVectorField":
        return cls(space, degree, {})

    def component(self, idx: tuple[int, ...]) -> ScalarExpr:
        """Signed access by an arbitrary index tuple (zero when absent or
        when an index repeats)."""
        key, sign = _sort_with_sign(tuple(idx))
        if key is None:
            return Num(0.0)
        e = self.components.get(key)
        if e is None:
            return Num(0.0)
        return e if sign == 1 else -e

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "MultiVectorField") -> "MultiVectorField":
        self._check_compatible(other)
        comps = dict(self.components)
        for key, e in other.components.items():
            comps[key] = comps[key] + e if key in comps else e
        return MultiVectorField(self.space, self.degree, comps)

    def __sub__(self, other: "MultiVectorField") -> "MultiVectorField":
        return self + (-1.0) * other

    def __rmul__(self, factor) -> "MultiVectorField":
        f = _coerce(factor)
        return MultiVectorField(
            self.space, self.degree, {k: f * e for k, e in self.components.items()}
        )

    def _check_compatible(self, other: "MultiVectorField"):
        if self.space is not other.space and self.space != other.space:
            raise ValueError("fields live on different phase spaces")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self):
        body = ", ".join(f"{k}: {e}" for k, e in self.components.items())
        return f"MultiVectorField(deg={self.degree}, {{{body}}})"


def _require_space(*fields: MultiVectorField):
    s = fields[0].space
    for f in fields[1:]:
        if f.space is not s and f.space != s:
            raise ValueError("fields live on different phase spaces")
    return s


def lie_derivative_mv(E: MultiVectorField, A: MultiVectorField) -> MultiVectorField:
    """Lie derivative of a k-vector field along a vector field.

    For k = 1 this is the vector-field commutator [E, X]; for k = 0 it is the
    directional derivative E^m d_m f.
    """
    space = _require_space(E, A)
    if E.degree != 1:
        raise ValueError(f"generator must have degree 1, got {E.degree}")
    N = space.dim
    k = A.degree
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for idx in combinations(range(N), k):
        term: ScalarExpr = Num(0.0)
        for (m,), e_m in E.components.items():
            term = term + e_m * A.component(idx).diff(m)
        for s, i_s in enumerate(idx):
            e_is = E.component((i_s,))
            if e_is.is_zero():
                continue
            for m in range(N):
                a = A.component(idx[:s] + (m,) + idx[s + 1 :])
                if a.is_zero():
                    continue
                term = term - a * e_is.diff(m)
        if not term.is_zero():
            out[idx] = term
    return MultiVectorField(space, k, out)


def schouten_bb(A: MultiVectorField, B: MultiVectorField) -> MultiVectorField:
    """Schouten bracket of two bivector fields, as a trivector field.

    Normalized so that schouten_bb(V, V) = 0 is equivalent to the Jacobi
    identity of the bracket induced by V.
    """
    space = _require_space(A, B)
    if A.degree != 2 or B.degree != 2:
        raise ValueError(f"expected two bivectors, got degrees {A.degree}, {B.degree}")
    N = space.dim
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for i, j, k in combinations(range(N), 3):
        term: ScalarExpr = Num(0.0)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for first, second in ((A, B), (B, A)):
                for (u, v), e in first.components.items():
                    # gather the l-sum sparsely: component (l, a) with l = u or v
                    if v == a:
                        l, coeff = u, e
                    elif u == a:
                        l, coeff = v, -e
                    else:
                        continue
                    d = second.component((b, c)).diff(l)
                    if not d.is_zero():
                        term = term + coeff * d
        if not term.is_zero():
            out[(i, j, k)] = term
    return MultiVectorField(space, 3, out)


def hamiltonian_vf(V: MultiVectorField, f: ScalarExpr) -> MultiVectorField:
    """Vector field V(f) with components (V(f))^j = sum_i V^{ij} d_i f, so
    that L_{V(f)} g = {f, g} under `poisson_bracket`."""
    if V.degree != 2:
        raise ValueError(f"expected a bivector, got degree {V.degree}")
    out: dict[tuple[int, ...], ScalarExpr] = {}

    def accumulate(j: int, e: ScalarExpr):
        key = (j,)
        out[key] = out[key] + e if key in out else e

    for (i, j), v in V.components.items():
        di, dj = f.diff(i), f.diff(j)
        if not di.is_zero():
            accumulate(j, v * di)
        if not dj.is_zero():
            accumulate(i, -(v * dj))
    out = {k: e for k, e in out.items() if not e.is_zero()}
    return MultiVectorField(V.space, 1, out)


def poisson_bracket(V: MultiVectorField, f: ScalarExpr, g: ScalarExpr) -> ScalarExpr:
    """{f, g} with respect to the bivector V; antisymmetric in (f, g)."""
    if V.degree != 2:
        raise ValueError(f"expected a bivector, got degree {V.degree}")
    acc: ScalarExpr = Num(0.0)
    for (i, j), v in V.components.items():
        acc = acc + v * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return acc


def component_diffs(F: MultiVectorField) -> list[dict[tuple[int, ...], ScalarExpr]]:
    """The partial derivatives of F's components, one dict per coordinate l:
    entry l maps each index tuple I whose component depends on x_l to
    d_l F^I, in the order of F.components.  Built once per field and kept
    on it, as `ScalarExpr.diff` keeps its derivatives: callers only read
    the dicts."""
    if F._diffs is None:
        out = []
        for l in range(F.space.dim):
            ds = {idx: e.diff(l) for idx, e in F.components.items()}
            out.append({idx: d for idx, d in ds.items() if not d.is_zero()})
        F._diffs = out
    return F._diffs


def field_arrays(fields, states, partials: bool = True) -> list[np.ndarray]:
    """Each vector field or bivector F at every row of an (m, 2n) state array: F, then with
    partials each d_l F (`component_diffs`), as one (1 [+ 2n], m) + (2n,)*degree array,
    antisymmetric for bivectors.  One `evaluate_batch` call, fields in turn and components
    before partials, so that its error is the first met at the first failing state."""
    groups = [[F.components, *(component_diffs(F) if partials else ())] for F in fields]
    values = iter(evaluate_batch([e for gs in groups for g in gs for e in g.values()], states))
    out = []
    for F, gs in zip(fields, groups):
        keys = np.array([(g, *idx) for g, group in enumerate(gs) for idx in group], dtype=int)
        keys = tuple(keys.reshape(-1, 1 + F.degree).T)
        arr = np.zeros((len(gs),) + (F.space.dim,) * F.degree + (len(states),))
        arr[keys] = np.reshape([next(values) for _ in keys[0]], (-1, len(states)))
        if F.degree == 2:
            arr[keys[0], keys[2], keys[1]] = -arr[keys]
        out.append(np.moveaxis(arr, -1, 1))
    return out


def evaluate_mv(A: MultiVectorField, x) -> np.ndarray | float:
    """Evaluate every component at a point; returns a fully antisymmetric
    numeric array of shape (2n,)*k (a float for degree 0) (`_point_arrays`).
    From its second call on, the field holds a compiled kernel of its
    components: 0.3 MB for W_hat of the dense n = 6 system, whose compile
    peaks at 9 MB (tracemalloc), and a second one once its partials are
    asked for twice."""
    arr = _point_arrays(A, x, False)[0]
    return float(arr) if A.degree == 0 else arr


def _point_arrays(A: MultiVectorField, x, partials: bool) -> np.ndarray:
    """The antisymmetric arrays of A's partials d_l A at x (`component_diffs`), or of
    A alone as l = 0, stacked with l first: `eval`'s values and first error.  A route's
    first query on a field walks the trees once (`evaluate_batch` at one state); the
    second compiles them into one kernel (`compile_kernel`), which the field keeps for
    later queries, so that a field queried once holds no code."""
    N = A.space.dim
    groups = component_diffs(A) if partials else [A.components]
    exprs, x = [e for g in groups for e in g.values()], [float(v) for v in x]
    if A._points is None:
        A._points = {}
    if partials not in A._points:
        keys = np.array([(l, *idx) for l, g in enumerate(groups) for idx in g], dtype=int)
        A._points[partials] = [keys.reshape(len(exprs), 1 + A.degree).T, None]
        values = np.array(evaluate_batch(exprs, [x])).reshape(-1)
    else:
        if A._points[partials][1] is None:
            A._points[partials][1] = compile_kernel(exprs, N)
        values = np.array(A._points[partials][1](*x))
    keys = A._points[partials][0]
    arr = np.zeros((N if partials else 1,) + (N,) * A.degree)
    for perm, sign in _permutation_signs(A.degree):
        arr[(keys[0], *keys[1:][list(perm)])] = sign * values
    return arr


@cache
def _permutation_signs(degree: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each permutation of range(degree) with its sign: the sign that
    carries a strictly increasing index tuple to its permuted entries."""
    return tuple((perm, _sort_with_sign(perm)[1]) for perm in permutations(range(degree)))
