"""Shared builders and numeric oracles for the test suite."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from binoether.expr import (
    Call,
    Div,
    Mul,
    Neg,
    Num,
    PhaseSpace,
    Pow,
    ScalarExpr,
    Var,
    _Binary,
    substitute,
)
from binoether.geometry import (
    MultiVectorField,
    PhasePoint,
    _permutation_signs,
    component_diffs,
    hamiltonian_vf,
    lie_derivative_mv,
    schouten_bb,
)
from binoether.spectral import REGULARITY_FACTOR, SpectralError, _real_roots, regularity_margin
from binoether.systems import SystemSpec, load_system
from binoether.verify import FlowError, SamplingError, _record, _worst_case

# The friction model of `dissipative_fields(2)` with a coupled generator
# E = G d/dq1 + G d/dq2, G = I1 I2, I_i = p_i + q_i: [E, W(h)] = 0, the
# secular roots are c = {0, -(I1 + I2)}, with gradients 0 and (-1, -1, -1, -1),
# and N = W^-1 What is diagonalizable but not normal.
COUPLED_N2_SYS = """\
[system]
name = coupled-n2
dof = 2

[poisson]
W(q1,p1) = -p1
W(q2,p2) = -p2

[hamiltonian]
h = p1 + q1 + p2 + q2

[symmetry]
E(q1) = (p1 + q1)*(p2 + q2)
E(q2) = (p1 + q1)*(p2 + q2)
"""


def coupled_system(tmp_path) -> SystemSpec:
    """The COUPLED_N2_SYS system, loaded from a file under tmp_path."""
    path = tmp_path / "coupled-n2.sys"
    path.write_text(COUPLED_N2_SYS, encoding="utf-8")
    return load_system(path)


def var(space: PhaseSpace, name: str) -> Var:
    return Var(name, space.index(name))


def dissipative_fields(n: int):
    """The linear-friction model: W = sum p_i dp_i^dq_i, h = sum (p_i + q_i),
    E = sum (p_i + q_i)^2 d/dq_i.  Returns (space, W, h, E)."""
    space = PhaseSpace.canonical(n)
    q = [var(space, f"q{i + 1}") for i in range(n)]
    p = [var(space, f"p{i + 1}") for i in range(n)]
    W = MultiVectorField(space, 2, {(i, n + i): -p[i] for i in range(n)})
    h: ScalarExpr = Num(0.0)
    for i in range(n):
        h = h + (p[i] + q[i])
    E = MultiVectorField(space, 1, {(i,): (p[i] + q[i]) ** 2 for i in range(n)})
    return space, W, h, E


def random_polynomial(rng, space: PhaseSpace, max_degree=2, terms=3) -> ScalarExpr:
    e: ScalarExpr = Num(float(rng.uniform(-1, 1)))
    for _ in range(terms):
        mono: ScalarExpr = Num(float(rng.uniform(-1, 1)))
        for _ in range(int(rng.integers(1, max_degree + 1))):
            i = int(rng.integers(0, space.dim))
            mono = mono * Var(space.names[i], i)
        e = e + mono
    return e


def random_bivector(rng, space: PhaseSpace, pairs=None, max_degree=2) -> MultiVectorField:
    N = space.dim
    if pairs is None:
        all_pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
        take = rng.choice(len(all_pairs), size=min(3, len(all_pairs)), replace=False)
        pairs = [all_pairs[int(t)] for t in take]
    comps = {pair: random_polynomial(rng, space, max_degree=max_degree) for pair in pairs}
    return MultiVectorField(space, 2, comps)


def random_vector_field(rng, space: PhaseSpace, max_degree=2) -> MultiVectorField:
    comps = {
        (i,): random_polynomial(rng, space, max_degree=max_degree)
        for i in range(space.dim)
        if rng.random() < 0.7
    }
    return MultiVectorField(space, 1, comps)


def random_points(rng, dim: int, count: int, half_width=2.0):
    return [PhasePoint(rng.uniform(-half_width, half_width, size=dim)) for _ in range(count)]


def block_action_system(rng, n: int, lam: float | None = None):
    """A bivector with one independent function per canonical (q_i, p_i)
    block, a block vector field E, and W_hat = lam*W + L_E W.  The secular
    spectrum of such a pair is real by construction (each block contributes
    one root), which makes it safe for root-based cross-checks."""
    space = PhaseSpace.canonical(n)
    if lam is None:
        lam = float(rng.uniform(-2, 2))
    w_comps = {}
    e_comps = {}
    for i in range(n):
        qi = Var(space.names[i], i)
        pi = Var(space.names[n + i], n + i)
        # keep each block component bounded away from zero on the sample box
        w_comps[(i, n + i)] = (
            Num(float(rng.uniform(1.5, 3.0)))
            + float(rng.uniform(-0.2, 0.2)) * qi
            + float(rng.uniform(-0.2, 0.2)) * pi * qi
        )
        e_comps[(i,)] = (
            float(rng.uniform(-1, 1)) * qi * qi + float(rng.uniform(-1, 1)) * pi
        )
        if rng.random() < 0.5:
            e_comps[(n + i,)] = float(rng.uniform(-1, 1)) * pi * qi
    W = MultiVectorField(space, 2, w_comps)
    E = MultiVectorField(space, 1, e_comps)
    What = lam * W + lie_derivative_mv(E, W)
    return space, W, What


def pullback_mapping(space: PhaseSpace, matrix: np.ndarray) -> dict[int, ScalarExpr]:
    """The substitution that pulls a function back through x -> A x: old
    coordinate m = sum_j inv(A)[m, j] * new_j."""
    inv = np.linalg.inv(matrix)
    mapping = {}
    for m in range(space.dim):
        acc: ScalarExpr = Num(0.0)
        for j in range(space.dim):
            if inv[m, j] != 0.0:
                acc = acc + float(inv[m, j]) * Var(space.names[j], j)
        mapping[m] = acc
    return mapping


def dense_frame_dissipative(n: int, seed: int):
    """The linear-friction model in dense coordinates x -> A x, A seeded
    near the identity: W pushed forward, h pulled back.  Returns (space, W, h)."""
    space, W, h, _ = dense_frame_fields(n, seed)
    return space, W, h


def dense_frame_fields(n: int, seed: int):
    """`dense_frame_dissipative` plus the generator E pushed forward through
    the same A.  Returns (space, W, h, E)."""
    rng = np.random.default_rng(seed)
    space, W, h, E = dissipative_fields(n)
    matrix = np.eye(space.dim) + rng.uniform(-0.3, 0.3, size=(space.dim, space.dim))
    dense_W = linear_coordinate_change(rng, space, W, matrix)
    dense_E = linear_coordinate_change(rng, space, E, matrix)
    return space, dense_W, substitute(h, pullback_mapping(space, matrix)), dense_E


def linear_coordinate_change(rng, space: PhaseSpace, field: MultiVectorField,
                             matrix: np.ndarray | None = None) -> MultiVectorField:
    """Push a multivector field forward through x -> A x (A constant and
    invertible): components mix as A^i_a A^j_b F^{ab}, arguments pull back
    through A^{-1}."""
    N = space.dim
    if matrix is None:
        while True:
            matrix = rng.uniform(-1, 1, size=(N, N)) + np.eye(N)
            if abs(np.linalg.det(matrix)) > 0.3:
                break
    mapping = pullback_mapping(space, matrix)

    k = field.degree
    out: dict[tuple[int, ...], ScalarExpr] = {}
    from itertools import combinations, permutations

    for new_idx in combinations(range(N), k):
        acc: ScalarExpr = Num(0.0)
        for old_idx, e in field.components.items():
            pulled = substitute(e, mapping)
            for perm in permutations(old_idx):
                coeff = 1.0
                sign_key, sign = _perm_sign(old_idx, perm)
                for target, source in zip(new_idx, perm):
                    coeff *= matrix[target, source]
                if coeff != 0.0:
                    acc = acc + (float(coeff) * float(sign)) * pulled
        if not acc.is_zero():
            out[new_idx] = acc
    return MultiVectorField(space, k, out)


def _perm_sign(base, perm):
    order = [list(base).index(x) for x in perm]
    sign = 1
    order = list(order)
    for i in range(len(order)):
        for j in range(len(order) - 1 - i):
            if order[j] > order[j + 1]:
                order[j], order[j + 1] = order[j + 1], order[j]
                sign = -sign
    return tuple(order), sign


def eval_mv(A: MultiVectorField, x) -> np.ndarray:
    """A's antisymmetric array at x, each component by the per-node `eval`:
    `geometry.evaluate_mv` without its compiled kernel, for the oracles,
    which must not run the code they check (and compile nothing per example)."""
    arr = np.zeros((A.space.dim,) * A.degree)
    for idx, e in A.components.items():
        v = e.eval(x)
        for perm, sign in _permutation_signs(A.degree):
            arr[tuple(idx[p] for p in perm)] = sign * v
    return arr


def max_component_at(field: MultiVectorField, pt) -> float:
    if not field.components:
        return 0.0
    return max(abs(e.eval(pt)) for e in field.components.values())


def reference_sample_points(W: MultiVectorField, cfg):
    """Regular points drawn and tested one at a time: the oracle that the
    round-by-round `verify.sample_regular_points` must match point for
    point, draw count and first error included."""
    rng = np.random.default_rng(cfg.seed)
    points = []
    attempts = 0
    limit = 200 * cfg.samples
    while len(points) < cfg.samples and attempts < limit:
        attempts += 1
        x = rng.uniform(-cfg.box, cfg.box, size=W.space.dim)
        if regularity_margin(eval_mv(W, x)) > REGULARITY_FACTOR:
            points.append(PhasePoint(tuple(x)))
    if len(points) < cfg.samples:
        raise SamplingError(
            f"found only {len(points)}/{cfg.samples} regular points in {attempts} draws"
        )
    return points


def reference_pfaffian(rows, is_zero=lambda v: v == 0.0):
    """The memoized first-row expansion Pf(M) = sum_j (-1)^pos M[i0,j]
    Pf(M minus i0,j), skipping entries for which is_zero holds, evaluated
    recursively: the oracle that `spectral._pfaffian` and its generated
    kernels must match bit for bit, on floats and on batched rows (with
    `spectral._absent`).  Only the entries above the diagonal are read."""
    memo: dict = {}

    def expand(active):
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
            term = entry * expand(rest[:pos] + rest[pos + 1 :])
            if pos % 2 == 1:
                term = -term
            total = term if total is None else total + term
        if total is None:
            total = 0.0 * rows[active[0]][active[1]]
        memo[active] = total
        return total

    return expand(tuple(range(len(rows))))


def forward_jet(expr: ScalarExpr, point) -> tuple[float, np.ndarray]:
    """(value, gradient) of expr at point by forward-mode differentiation:
    the chain rule applied to (value, gradient) pairs node by node, the
    oracle for the `diff` trees.  Powers and functions apply the node's own
    float operation (``_apply``) and their derivative in the form `diff`
    builds, so that on such nodes the two routes round alike."""
    if isinstance(expr, Num):
        return expr.value, np.zeros(len(point))
    if isinstance(expr, Var):
        return float(point[expr.index]), np.eye(len(point))[expr.index]
    if isinstance(expr, Neg):
        v, g = forward_jet(expr.a, point)
        return -v, -g
    if isinstance(expr, (Pow, Call)):
        x, g = forward_jet(expr.arg, point)
        y = expr._apply(x)
        if isinstance(expr, Pow):
            k = expr.exponent
            return y, k * x ** (k - 1) * g if k != 0 else 0.0 * g
        if expr.fn == "sin":
            return y, math.cos(x) * g
        if expr.fn == "cos":
            return y, -math.sin(x) * g
        return y, y * g if expr.fn == "exp" else g / x
    if isinstance(expr, _Binary):
        (a, ga), (b, gb) = forward_jet(expr.a, point), forward_jet(expr.b, point)
        if isinstance(expr, Mul):
            return a * b, a * gb + b * ga
        if isinstance(expr, Div):
            v = a / b
            return v, (ga - v * gb) / b
        return expr._op(a, b), expr._op(ga, gb)
    raise TypeError(f"unknown node {type(expr).__name__}")


def reference_roots(coeffs):
    """The n roots of P(-c) = 0 for coefficients a_0..a_n of P, by np.roots,
    real and ascending: the independent oracle for N's eigenvalues
    (`spectral.operator_roots`) and for `spectral.roots_near`."""
    n = len(coeffs) - 1
    # Q(c) = P(-c): coefficient of c^m is (-1)^m a_m, highest degree first
    raw = np.roots([((-1) ** m) * coeffs[m] for m in range(n, -1, -1)])
    if len(raw) != n:
        raise SpectralError(f"zero leading coefficient leaves {len(raw)} of {n} roots")
    return _real_roots(raw[None, :])[0]


def reference_flow_states(W: MultiVectorField, h: ScalarExpr, x0, t_end: float, dt: float,
                          max_step_error: float | None = None, require_regular: bool = False):
    """The states of classical RK4 for dx/dt = W(h)(x) with the field
    evaluated tree by tree into numpy arrays, one step at a time: the oracle
    that `integrate_flow`'s compiled loop must match bit for bit.  With
    require_regular, W's regularity is tested at each state before the step
    from it; with max_step_error, two half steps guard each step.  Either
    raises `integrate_flow`'s FlowError where it fails."""
    X = hamiltonian_vf(W, h)
    dim = W.space.dim
    comps = list(X.components.items())

    def f(y):
        out = np.zeros(dim)
        for (i,), e in comps:
            out[i] = e.eval(y)
        return out

    def rk4_step(y, dt):
        # overflow gives inf and inf - inf gives NaN, as on floats in the loop
        with np.errstate(invalid="ignore", over="ignore"):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    steps = int(round(t_end / dt))
    states = np.empty((steps + 1, dim))
    states[0] = np.asarray(tuple(x0), dtype=float)
    for k in range(steps):
        # a NaN margin is not regular
        if require_regular and not regularity_margin(eval_mv(W, states[k])) > REGULARITY_FACTOR:
            raise FlowError(f"regularity lost at t = {k * dt:.6g}")
        full = rk4_step(states[k], dt)
        if max_step_error is not None:
            halves = rk4_step(rk4_step(states[k], dt / 2), dt / 2)
            with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail
                errors = np.abs(full - halves) / 15.0 / dt
            if not all(e <= max_step_error for e in errors):
                raise FlowError(f"step error estimate {float(np.max(errors)):.3e}/unit time"
                                f" exceeds {max_step_error:.3e} at t = {k * dt:.6g}")
        states[k + 1] = full
    return states


def bracket_checks(W: MultiVectorField, h: ScalarExpr, E: MultiVectorField):
    """(check id, A, B, T) of every identity check of a system, T being the
    bracket of A and B as a tree: `schouten_bb` or `lie_derivative_mv`, the
    independent oracle of the contraction, or for non_noether W_hat = [E, W],
    which the check reads as its bracket."""
    X = hamiltonian_vf(W, h)
    What = lie_derivative_mv(E, W)
    LLW = lie_derivative_mv(E, What)
    return [
        ("jacobi", W, W, schouten_bb(W, W)),
        ("symmetry", E, X, lie_derivative_mv(E, X)),
        ("non_noether", E, W, What),
        ("yang_baxter", LLW, W, schouten_bb(LLW, W)),
        ("compat_mixed", What, W, schouten_bb(What, W)),
        ("compat_deformed", What, What, schouten_bb(What, What)),
    ]


def eval_partials(A: MultiVectorField, x) -> list[np.ndarray]:
    """A's partials d_l A at x, one antisymmetric array per l, each component
    by the per-node `eval`."""
    return [eval_mv(MultiVectorField(A.space, A.degree, group), x) for group in component_diffs(A)]


def contracted_bracket(A: MultiVectorField, B: MultiVectorField, x) -> list[float]:
    """[A, B] at x of two vector fields or two bivectors, on floats, in the
    order of summation that `verify._bracket` fixes: the components j, or the
    triples i < j < k, in turn, each sum from 0.0 over l = 0, 1, ...:
    [A, B]^j = sum_l (A^l d_l B^j - B^l d_l A^j), and [A, B]^{ijk} =
    (S^{ijk} + S^{jki}) + S^{kij} with S^{abc} = sum_l (A^{la} d_l B^{bc} +
    B^{la} d_l A^{bc})."""
    N = A.space.dim
    a, b = eval_mv(A, x).tolist(), eval_mv(B, x).tolist()
    da, db = ([d.tolist() for d in eval_partials(F, x)] for F in (A, B))
    out = []
    if A.degree == 1:
        for j in range(N):
            total = 0.0
            for l in range(N):
                total = total + (a[l] * db[l][j] - b[l] * da[l][j])
            out.append(total)
        return out
    for i, j, k in combinations(range(N), 3):
        parts = []
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            total = 0.0
            for l in range(N):
                total = total + (a[l][p] * db[l][q][r] + b[l][p] * da[l][q][r])
            parts.append(total)
        out.append((parts[0] + parts[1]) + parts[2])
    return out


def _max_abs_eval(exprs, x) -> float:
    return max((abs(e.eval(x)) for e in exprs), default=0.0)


def bracket_scale(A: MultiVectorField, B: MultiVectorField, x) -> float:
    """The scale of the bracket [A, B] at x, on floats: the largest
    |A^{l.}(x)| |d_l B(x)| or |B^{l.}(x)| |d_l A(x)| over l."""
    Am, Bm = eval_mv(A, x), eval_mv(B, x)
    dA, dB = component_diffs(A), component_diffs(B)
    s = 0.0
    for l in range(A.space.dim):
        a_row = float(np.max(np.abs(Am[l])))
        b_row = float(np.max(np.abs(Bm[l])))
        s = max(s, a_row * _max_abs_eval(dB[l].values(), x), b_row * _max_abs_eval(dA[l].values(), x))
    return s


def pointwise_bracket_check(check_id: str, A: MultiVectorField, B: MultiVectorField, points,
                            tol: float, bracket: MultiVectorField | None = None):
    """An identity check evaluated point by point, tree by tree, on floats,
    its bracket contracted as `contracted_bracket` does (or the values of
    ``bracket`` where given): the oracle that the batched
    `verify._bracket_check` must match record for record wherever no value
    is NaN (Python's max drops a NaN that follows a finite value, so this
    oracle can pass a NaN residual)."""
    def residual(x):
        if bracket is not None:
            return _max_abs_eval(bracket.components.values(), x)
        return max((abs(t) for t in contracted_bracket(A, B, x)), default=0.0)

    rel, raw, scale_at_worst, _ = _worst_case((residual(x), bracket_scale(A, B, x), x)
                                              for x in points)
    return _record(check_id, rel, raw, scale_at_worst, tol, len(points))
