"""Seeded inputs, closed-form references and operations of the workloads.

Every reference value used by a check comes from closed forms evaluated
here with numpy, never from binoether's own arithmetic.  The library sees
only the generated inputs: builtin names and sizes, ``.sys`` text, and
expression text with points.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SPARSE_SIZES = (1, 3, 6)
DENSE_N = 2
DENSE_T_END = 0.5
DENSE_FRAME_SEED = 2002
FLOW_CHECK_T_END = 1.0
PENCIL_N = 6
PENCIL_POINTS = 16
PROBE_T_END = 1.0
LAYER_POINTS = 4

# Check tolerances, relative to max(1, |reference|).  The measured errors
# are at least 100 times smaller (see README.md).
ROOT_TOL = 1e-8
Y_TOL = 1e-8
GRAD_TOL = 1e-7
FLOW_TOL = 1e-8


class Mismatch(Exception):
    """A program output differs from its reference."""


@dataclass
class Op:
    """One call into the program and the check of its result.

    ``span`` names the traced span (None: the call is a check-only call,
    never traced); only ``timed`` calls count towards ``wall_s``."""

    label: str
    call: Callable
    check: Callable
    span: str | None
    timed: bool


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def names(n: int) -> list[str]:
    return [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]


def linear_text(coefs, terms, const: float | None = None) -> str:
    """Text of sum_k coefs[k] * terms[k] (+ const).  Literals are written
    with repr, so they parse back to the same doubles."""
    parts = [(float(c), f" * {t}") for c, t in zip(coefs, terms)]
    if const is not None:
        parts.append((float(const), ""))
    out = ""
    for c, tail in parts:
        body = repr(abs(c)) + tail
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def y_closed(c) -> np.ndarray:
    """Y^(l) = e_l(c) / C(n, l), l = 1..n; np.poly(-c) holds e_0..e_n."""
    n = len(c)
    e = np.poly(-np.asarray(c, dtype=float))
    return np.array([e[l] / math.comb(n, l) for l in range(1, n + 1)])


def y_closed_grad(c, dc) -> np.ndarray:
    """Chain rule: grad Y^(l) = sum_i e_{l-1}(c without c_i) / C(n,l) * dc[i]."""
    n = len(c)
    rows = []
    for l in range(1, n + 1):
        g = np.zeros(dc.shape[1])
        for i in range(n):
            g += np.poly(-np.delete(np.asarray(c, dtype=float), i))[l - 1] * dc[i]
        rows.append(g / math.comb(n, l))
    return np.array(rows)


def dissipative_roots(x, n: int) -> np.ndarray:
    """c_i = -2 (q_i + p_i), ascending."""
    x = np.asarray(x, dtype=float)
    return np.sort(-2.0 * (x[:n] + x[n:]))


def dissipative_matrices(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """W^{q_i p_i} = -p_i and What^{q_i p_i} = 2 p_i (p_i + q_i)."""
    W = np.zeros((2 * n, 2 * n))
    H = np.zeros((2 * n, 2 * n))
    for i in range(n):
        q, p = x[i], x[n + i]
        W[i, n + i], W[n + i, i] = -p, p
        H[i, n + i], H[n + i, i] = 2 * p * (p + q), -2 * p * (p + q)
    return W, H


def dissipative_flow(x0, n: int, t: float) -> np.ndarray:
    """q(t) = q0 + p0 (1 - e^-t), p(t) = p0 e^-t."""
    x0 = np.asarray(x0, dtype=float)
    q0, p0 = x0[:n], x0[n:]
    decay = math.exp(-t)
    return np.concatenate([q0 + p0 * (1.0 - decay), p0 * decay])


def dissipative_sys(n: int, M: np.ndarray, name: str) -> str:
    """The dissipative system as ``.sys`` text, in coordinates y with
    x = M y (x canonical).  Each component is written out densely: W as a
    linear form, h as a linear form, E^a = sum_i Minv[a,i] l_i(y)^2 with
    l_i(y) = q_i(My) + p_i(My)."""
    N = 2 * n
    nm = names(n)
    lines = ["[system]", f"name = {name}", f"dof = {n}", "", "[poisson]"]
    Minv = np.linalg.inv(M)
    for a in range(N):
        for b in range(a + 1, N):
            coef = np.zeros(N)
            for i in range(n):
                coef -= (Minv[a, i] * Minv[b, n + i] - Minv[a, n + i] * Minv[b, i]) * M[n + i]
            lines.append(f"W({nm[a]},{nm[b]}) = {linear_text(coef, nm)}")
    L = M[:n] + M[n:]
    lines += ["", "[hamiltonian]", f"h = {linear_text(L.sum(axis=0), nm)}", "", "[symmetry]"]
    squares = [f"({linear_text(L[i], nm)})^2" for i in range(n)]
    lines += [f"E({nm[a]}) = {linear_text(Minv[a, :n], squares)}" for a in range(N)]
    return "\n".join(lines) + "\n"


def dense_frame(seed: int, N: int) -> np.ndarray:
    """M = P diag(s): P a fixed dense rotation, s seeded in [0.8, 1.25], so
    cond(M) <= 1.57.  Every coefficient of the .sys text then has the sign
    P gives it, whatever the seed, and so the expression trees (and the
    work they cost) are the same for every seed; only the numbers change."""
    P, _ = np.linalg.qr(np.random.default_rng(DENSE_FRAME_SEED).standard_normal((N, N)))
    return P @ np.diag(np.random.default_rng([seed, N]).uniform(0.8, 1.25, N))


def close(got, want, tol: float, what: str):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))):
        raise Mismatch(f"{what}: got {got.tolist()}, want {want.tolist()}")


def check_roots(roots, ref_roots, Wm, Hm):
    """Program roots against the closed forms and against the eigenvalues
    (each twice) of W^-1 What from numpy."""
    close(roots, ref_roots, ROOT_TOL, "roots vs closed form")
    eig = np.linalg.eigvals(np.linalg.solve(Wm, Hm))
    scale = max(1.0, float(np.max(np.abs(ref_roots))))
    if np.max(np.abs(eig.imag)) > ROOT_TOL * scale:
        raise Mismatch(f"W^-1 What has complex eigenvalues {eig.tolist()}")
    close(np.repeat(np.asarray(roots, dtype=float), 2), np.sort(eig.real), ROOT_TOL,
          "roots vs eigenvalues of W^-1 What")


# ---------------------------------------------------------------------------
# Layer measurements for the traced run
# ---------------------------------------------------------------------------

def tree_stats(exprs, node_type) -> tuple[int, int]:
    """(tree nodes, distinct subtrees) over the expressions: the size of
    every tree written out, and the number of structurally distinct
    subtrees among them.  Nodes are the dataclasses of ``node_type``."""
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    table: dict[tuple, int] = {}
    total = 0
    for root in exprs:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in size:
                continue
            values = [getattr(node, f.name) for f in dataclasses.fields(node)]
            kids = [v for v in values if isinstance(v, node_type)]
            if not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
                continue
            size[id(node)] = 1 + sum(size[id(k)] for k in kids)
            payload = tuple(v for v in values if not isinstance(v, node_type))
            key = (type(node).__name__, payload) + tuple(canon[id(k)] for k in kids)
            canon[id(node)] = table.setdefault(key, len(table))
        total += size[id(root)]
    return total, len(table)


def _mean_us(calls) -> float:
    t0 = time.perf_counter()
    for fn, args in calls:
        fn(*args)
    return (time.perf_counter() - t0) / len(calls) * 1e6


def layer_figures(bino, cases) -> dict[str, float]:
    """Untraced per-call timings and tree counts on the workload's own data.

    ``cases`` holds (W, E or None, What, points) per system or pencil."""
    spectral = bino.spectral
    exprs, evals, pfs, roots, ratios, jets = [], [], [], [], [], []
    for W, E, What, points in cases:
        derived = [What]
        if E is not None:
            LLW = bino.lie_derivative_mv(E, What)
            derived += [LLW] + [bino.schouten_bb(A, B) for A, B in
                                ((LLW, W), (W, W), (What, W), (What, What))]
        comps = [e for F in derived for e in F.components.values()]
        exprs += comps
        pts = points[:LAYER_POINTS]
        evals += [(e.eval, (x,)) for x in pts for e in comps]
        pfs += [(spectral.pfaffian, (bino.evaluate_mv(W, x),)) for x in pts]
        roots += [(spectral.secular_roots, (W, What, x)) for x in pts]
        ratios += [(spectral.mixed_wedge_ratios, (W, What, x)) for x in pts]
        jets += [(spectral.invariant_jets, (W, What, x)) for x in pts]
    nodes, distinct = tree_stats(exprs, bino.ScalarExpr)
    return {
        "expr.eval_us": _mean_us(evals),
        "expr.tree_nodes": nodes,
        "expr.distinct_nodes": distinct,
        "spectral.pfaffian_us": _mean_us(pfs),
        "spectral.roots_us": _mean_us(roots),
        "spectral.ratios_us": _mean_us(ratios),
        "spectral.jets_us": _mean_us(jets),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class _Audit:
    """One audited system: key, size, frame (x = M y) and audit config."""

    key: str
    n: int
    M: np.ndarray
    spec: object = None
    start: tuple = ()


class AuditWorkload:
    """run_report on dissipative systems, checked against closed forms in
    the frame x = M y of each system."""

    def __init__(self, audits: list[_Audit], config: dict):
        self.audits = audits
        self.config = config
        self.first_json: dict[str, str] = {}
        self.load_times: list[float] = []

    def _load(self, bino, audit: _Audit):
        raise NotImplementedError

    def build(self, bino):
        t0 = time.perf_counter()
        specs = [self._load(bino, a) for a in self.audits]
        self.load_times.append(time.perf_counter() - t0)
        return specs

    def ops(self, bino, specs) -> list[Op]:
        verify = bino.verify
        cfg = bino.CheckConfig(**self.config)
        flow_cfg = bino.CheckConfig(t_end=min(cfg.t_end, FLOW_CHECK_T_END))
        out = []
        for audit, spec in zip(self.audits, specs):
            audit.spec = spec
            audit.start = tuple(verify.sample_regular_points(spec.W, cfg)[0])
            out.append(Op(f"audit {audit.key}", lambda s=spec: bino.run_report(s, cfg),
                          lambda r, a=audit: self._check_report(a, r, cfg), "systems.run_report", True))
            out.append(Op(f"flow {audit.key}",
                          lambda s=spec, a=audit: verify.integrate_flow(s.W, s.h, a.start, flow_cfg),
                          lambda t, a=audit: self._check_flow(a, t, flow_cfg.t_end), None, False))
        return out

    def _check_report(self, audit: _Audit, report, cfg):
        if not report.verdict:
            failing = [r.id for r in report.records if r.mandatory and not r.passed]
            raise Mismatch(f"verdict fail: {failing}")
        text = report.to_json()
        if self.first_json.setdefault(audit.key, text) != text:
            raise Mismatch("report JSON differs from the first pass with the same seed")
        if len(report.spectrum_samples) != cfg.samples:
            raise Mismatch(f"{len(report.spectrum_samples)} spectrum samples, want {cfg.samples}")
        Minv = np.linalg.inv(audit.M)
        for s in report.spectrum_samples:
            x = audit.M @ np.asarray(s.point)
            W, H = dissipative_matrices(x, audit.n)
            c = dissipative_roots(x, audit.n)
            check_roots(s.c, c, Minv @ W @ Minv.T, Minv @ H @ Minv.T)
            close(s.y, y_closed(c), Y_TOL, "Y vs e_l(c)/C(n,l)")

    def _check_flow(self, audit: _Audit, traj, t_end: float):
        want = np.linalg.inv(audit.M) @ dissipative_flow(audit.M @ np.asarray(audit.start), audit.n, t_end)
        close(traj.states[-1], want, FLOW_TOL, f"flow end at t = {t_end}")

    def layer_cases(self, bino):
        cfg = bino.CheckConfig()
        return [(a.spec.W, a.spec.E, bino.lie_derivative_mv(a.spec.E, a.spec.W),
                 [tuple(x) for x in bino.verify.sample_regular_points(a.spec.W, cfg)])
                for a in self.audits]

    probe_ops = ()


class AuditSparse(AuditWorkload):
    """The builtin at the default CheckConfig, as `binoether check` runs it.

    The seed does not change the inputs: the default config samples with
    seed 0 (see README.md for why other sampling seeds are left out)."""

    def __init__(self, seed: int, outdir: Path):
        super().__init__([_Audit(f"n={n}", n, np.eye(2 * n)) for n in SPARSE_SIZES], {})

    def _load(self, bino, audit):
        return bino.builtin_system("dissipative", audit.n)


class AuditDense(AuditWorkload):
    """The n = 2 dissipative system in seeded dense coordinates, read back
    from .sys text and audited over a short horizon."""

    def __init__(self, seed: int, outdir: Path):
        M = dense_frame(seed, 2 * DENSE_N)
        super().__init__([_Audit(f"dense n={DENSE_N}", DENSE_N, M)], {"t_end": DENSE_T_END})
        self.path = outdir / f"dense-n{DENSE_N}-seed{seed}.sys"
        text = dissipative_sys(DENSE_N, M, f"dense-n{DENSE_N}-seed{seed}")
        self.path.write_text(text, encoding="utf-8")

    def _load(self, bino, audit):
        return bino.load_system(self.path)


class QueryPencil:
    """Point queries on a dense n = 6 pencil.

    In canonical coordinates x the pencil is W0^{q_i p_i} = -1 and
    What0^{q_i p_i} = -l_i(x), l_i(x) = off_i + A_i . x, so its secular
    roots are l_i(x).  The library sees it in rotated coordinates y with
    x = R y: W = R^T W0 R (constant, full) and What = R^T What0(Ry) R."""

    def __init__(self, seed: int, outdir: Path):
        n, N = PENCIL_N, 2 * PENCIL_N
        rng = np.random.default_rng([seed, N])
        self.R, _ = np.linalg.qr(rng.standard_normal((N, N)))
        # |A_i . x| <= 0.02 * 12 = 0.24 on the points below, so the roots
        # stay at least 0.32 apart: real and simple for every seed
        self.A = rng.uniform(-0.02, 0.02, (n, N))
        self.off = np.arange(1.0, n + 1.0) + rng.uniform(-0.1, 0.1, n)
        self.points = [tuple(map(float, p)) for p in rng.uniform(-1.0, 1.0, (PENCIL_POINTS, N))]
        self.W0 = np.zeros((N, N))
        for i in range(n):
            self.W0[i, n + i], self.W0[n + i, i] = -1.0, 1.0
        RT = self.R.T
        self.Wy = RT @ self.W0 @ self.R
        nm = names(n)
        self.w_text, self.h_text = {}, {}
        for a in range(N):
            for b in range(a + 1, N):
                K = RT[a, :n] * RT[b, n:] - RT[a, n:] * RT[b, :n]
                self.w_text[(a, b)] = linear_text([], [], self.Wy[a, b])
                self.h_text[(a, b)] = linear_text(-(K @ self.A) @ self.R, nm, -(K @ self.off))
        self.load_times: list[float] = []
        self.probe_ops: list[Op] = []

    def build(self, bino):
        space = bino.PhaseSpace.canonical(PENCIL_N)
        W = bino.MultiVectorField(space, 2, {k: bino.parse(t, space) for k, t in self.w_text.items()})
        What = bino.MultiVectorField(space, 2, {k: bino.parse(t, space) for k, t in self.h_text.items()})
        return W, What

    def _reference(self, y):
        x = self.R @ np.asarray(y)
        c = self.off + self.A @ x
        order = np.argsort(c)
        H0 = np.zeros_like(self.W0)
        H0[:PENCIL_N, PENCIL_N:] = np.diag(-c)
        H0 = H0 - H0.T
        return c[order], (self.A @ self.R)[order], self.Wy, self.R.T @ H0 @ self.R

    def _check_roots(self, y, spectrum):
        c, _, Wy, Hy = self._reference(y)
        check_roots(spectrum.roots, c, Wy, Hy)

    def _check_ratios(self, y, inv):
        close(inv.values, y_closed(self._reference(y)[0]), Y_TOL, "Y vs e_l(c)/C(n,l)")

    def _check_jets(self, y, jets):
        c, dc, _, _ = self._reference(y)
        close([j.value for j in jets], y_closed(c), Y_TOL, "jet values vs e_l(c)/C(n,l)")
        want = y_closed_grad(c, dc)
        scale = max(1.0, float(np.max(np.abs(want))))
        close(np.array([j.gradient for j in jets]) / scale, want / scale, GRAD_TOL,
              "jet gradients (scaled by the largest) vs chain rule")

    def ops(self, bino, built) -> list[Op]:
        W, What = built
        self.W, self.What = W, What
        spectral = bino.spectral
        out = []
        for k, y in enumerate(self.points):
            out += [
                Op(f"roots #{k}", lambda y=y: spectral.secular_roots(W, What, y),
                   lambda r, y=y: self._check_roots(y, r), "spectral.secular_roots", True),
                Op(f"ratios #{k}", lambda y=y: spectral.mixed_wedge_ratios(W, What, y),
                   lambda r, y=y: self._check_ratios(y, r), "spectral.mixed_wedge_ratios", True),
                Op(f"jets #{k}", lambda y=y: spectral.invariant_jets(W, What, y),
                   lambda r, y=y: self._check_jets(y, r), "spectral.invariant_jets", True),
            ]
        # The pencil has no generator, so no audit: the traced run adds
        # this probe audit to reach the verify and systems layers.
        t0 = time.perf_counter()
        probe = bino.builtin_system("dissipative", 1)
        self.load_times.append(time.perf_counter() - t0)
        cfg = bino.CheckConfig(t_end=PROBE_T_END)
        self.probe_ops = [Op("probe audit", lambda: bino.run_report(probe, cfg), _check_verdict,
                             "systems.run_report", False)]
        return out

    def layer_cases(self, bino):
        return [(self.W, None, self.What, self.points)]


def _check_verdict(report):
    if not report.verdict:
        raise Mismatch(f"verdict fail: {[r.id for r in report.records if not r.passed]}")


WORKLOADS = {"audit-sparse": AuditSparse, "audit-dense": AuditDense, "query-pencil": QueryPencil}
