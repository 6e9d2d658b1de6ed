"""Executable checks for a (W, h, E) system: identity residuals at sampled
regular points, flow integration with a conservation audit, and involution
audits under both Poisson structures.

Each identity check evaluates its bracket, and the terms of its scale, over
all sampled points in one `evaluate_batch` call; where no value is NaN, its
record equals the point-by-point one bit for bit.

Residuals are reported raw together with the scale used to relativize them:
a check passes when residual <= tol * scale, where scale is the largest
absolute intermediate term at the worst sampled point, floored at 1.  A
non-finite residual or scale (NaN or inf) counts as the worst case and fails
the check.  Every check takes a `CheckConfig` as ``cfg``, or in its place the
report's `Audit`, through which the checks of one report share their inputs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .expr import ExprError, ScalarExpr, emit_kernel, evaluate_batch
from .geometry import (
    MultiVectorField,
    PhasePoint,
    component_diffs,
    hamiltonian_vf,
    lie_derivative_mv,
    schouten_bb,
)
from .spectral import (
    REGULARITY_FACTOR,
    SpectralError,
    multiple_root_flags,
    operator_batch,
    operator_roots,
    pencil_coefficients,
    pencil_coefficients_batch,
    recursion_operator_batch,
    regularity_margins,
    root_pair_gradients,
    roots_near,
    secular_roots,
    trace_invariants,
    y_from_coefficients,
)

# not called here: perfbench/tracing.py's WRAPS resolves these names in this
# module, and a missing name fails the traced smoke job
from .geometry import evaluate_mv  # noqa: F401
from .spectral import pencil_coefficient_jets, regularity_margin, root_gradients  # noqa: F401

__all__ = [
    "PAPER_ANCHORS",
    "CheckConfig",
    "CheckRecord",
    "CheckReport",
    "SpectrumSample",
    "Trajectory",
    "SamplingError",
    "FlowError",
    "sample_regular_points",
    "check_jacobi",
    "check_regularity",
    "check_symmetry",
    "check_non_noether",
    "check_yang_baxter",
    "check_compatibility",
    "check_spectral_routes",
    "integrate_flow",
    "conservation_drift",
    "trajectory_drift",
    "check_involution",
]


# check id -> the paper's claim it audits; shared by every record of that id,
# error records included
PAPER_ANCHORS = {
    "jacobi": "[W,W] = 0",
    "regularity": "W^n != 0",
    "symmetry": "[E,W(h)] = 0",
    "non_noether": "[E,W] != 0",
    "yang_baxter": "[[E,[E,W]],W] = 0",
    "compat_mixed": "[What,W] = 0",
    "compat_deformed": "[What,What] = 0",
    "spectral_routes": "Y^(l) = What^l^W^(n-l)/W^n = e_l(c)/C(n,l)",
    "conservation_drift": "dc_i/dt = 0, dY^(l)/dt = 0 along the flow",
    "involution": "{Y^(k),Y^(l)} = {Y^(k),Y^(l)}_hat = 0",
}

# flow steps per run of the RK4 loop and its checks, and states per pass of the drift audit
TRAJECTORY_BLOCK = 256

# what a batched pass over a block of states can raise; the block is then
# redone state by state, so that the first error in the states' order wins
_BATCH_ERRORS = (ArithmeticError, ValueError, ExprError, SpectralError)


class SamplingError(Exception):
    """Could not find enough regular points in the sampling box."""


class FlowError(Exception):
    """Trajectory integration failed (regularity lost or step error)."""


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all checks; defaults match the desk-scale audit."""

    samples: int = 32
    box: float = 2.0
    seed: int = 0
    tol: float = 1e-9
    t_end: float = 10.0
    dt: float = 1e-3
    drift_tol: float = 1e-6

    def __post_init__(self):
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        for name in ("box", "tol", "t_end", "dt", "drift_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if math.isinf(2.0 * self.box):  # the sampling range [-box, box] is 2 box wide
            raise ValueError(f"box must be at most {sys.float_info.max / 2:g}, got {self.box:g}")
        if round(self.t_end / self.dt) < 1:
            raise ValueError(f"t_end must exceed half of dt ({self.dt:g}), or no step is taken")


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check: raw residual, relativizing scale, verdict."""

    id: str
    paper_anchor: str
    residual: float
    scale: float
    passed: bool
    points: int
    notes: str = ""
    mandatory: bool = True

    def __post_init__(self):
        # keep records JSON-clean even when numpy scalars flow in
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "points", int(self.points))


# CheckRecord field -> its key in the report JSON, in the report's key order
_RECORD_KEYS = {"id": "id", "paper_anchor": "paper_anchor", "residual": "residual",
                "scale": "scale", "passed": "pass", "notes": "notes", "points": "points",
                "mandatory": "mandatory"}


@dataclass(frozen=True)
class SpectrumSample:
    point: tuple[float, ...]
    c: tuple[float, ...]
    y: tuple[float, ...]


@dataclass(frozen=True)
class CheckReport:
    """Structured outcome of a full verification run."""

    name: str
    config: CheckConfig
    records: tuple[CheckRecord, ...]
    spectrum_samples: tuple[SpectrumSample, ...] = ()

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.records if r.mandatory)

    def record(self, check_id: str) -> CheckRecord:
        for r in self.records:
            if r.id == check_id:
                return r
        raise KeyError(f"no record '{check_id}'")

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "config": {f.name: getattr(self.config, f.name) for f in fields(CheckConfig)},
            "checks": [{k: getattr(r, f) for f, k in _RECORD_KEYS.items()} for r in self.records],
            "spectrum_samples": [
                {"point": list(s.point), "c": list(s.c), "y": list(s.y)}
                for s in self.spectrum_samples
            ],
            "verdict": "pass" if self.verdict else "fail",
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        payload = json.loads(text)
        config = CheckConfig(**payload["config"])
        records = tuple(CheckRecord(**{f: c[key] for f, key in _RECORD_KEYS.items()})
                        for c in payload["checks"])
        samples = tuple(
            SpectrumSample(tuple(s["point"]), tuple(s["c"]), tuple(s["y"]))
            for s in payload["spectrum_samples"]
        )
        return cls(payload["name"], config, records, samples)


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step solution samples of the Hamiltonian flow."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        steps = np.diff(self.times)
        if len(steps) and (np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]):
            raise ValueError("times must be strictly increasing with a uniform step")

    def __len__(self):
        return len(self.times)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_regular_points(W: MultiVectorField, cfg: CheckConfig) -> list[PhasePoint]:
    """Draw cfg.samples points uniformly from the box, rejecting those where
    W is numerically degenerate, in at most 200 * cfg.samples draws.  Each round
    screens the missing draws in one batched pass; a block of draws is the stream of
    single draws, so points, draw count and first error match one draw at a time:
    `regularity_margins` raises only `evaluate_batch`'s error at the first failing draw."""
    rng = np.random.default_rng(cfg.seed)
    points: list[PhasePoint] = []
    attempts = 0
    limit = 200 * cfg.samples
    while len(points) < cfg.samples and attempts < limit:
        k = min(cfg.samples - len(points), limit - attempts)
        block = rng.uniform(-cfg.box, cfg.box, size=(k, W.space.dim))
        attempts += k
        points += [PhasePoint(tuple(x)) for x, margin in zip(block, regularity_margins(W, block))
                   if margin > REGULARITY_FACTOR]
    if len(points) < cfg.samples:
        raise SamplingError(
            f"found only {len(points)}/{cfg.samples} regular points in {attempts} draws"
        )
    return points


class Audit:
    """What one report's checks share, each built on first use and kept: the samples,
    W_hat = L_E W (or ``what`` as given), `recursion_operator_batch` at the samples, N's
    roots there (`operator_roots`) and the Y^(l) with gradients (`trace_invariants`).  A
    build that raises is not kept.  It reads as its config: ``audit.tol`` is ``cfg.tol``."""

    def __init__(self, cfg: CheckConfig, W: MultiVectorField, E=None, **given):
        vars(self).update(vars(cfg), cfg=cfg, W=W, E=E, **given)  # given: kept as if built

    points = cached_property(lambda self: sample_regular_points(self.W, self.cfg))
    what = cached_property(lambda self: lie_derivative_mv(self.E, self.W))
    operator = cached_property(  # W, W_hat, N and dN
        lambda self: recursion_operator_batch(self.W, self.what, [x.coords for x in self.points]))
    roots = cached_property(lambda self: operator_roots(self.operator[2], self.where))
    invariants = cached_property(lambda self: trace_invariants(*self.operator[2:]))

    def where(self, j: int) -> str:  # sample point j in errors, as `invariants --at` names it
        return "sample point " + ",".join(
            f"{k}={v!r}" for k, v in zip(self.W.space.names, self.points[j]))


def _audit(cfg, W, E=None, **given) -> Audit:  # cfg, or a new Audit for one check
    return cfg if isinstance(cfg, Audit) else Audit(cfg, W, E, **given)


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def _worst_case(candidates):
    """(rel, raw, scale, where) of the candidate (raw, scale, where) with the
    largest relative residual rel = raw / max(1, scale).  A non-finite raw or
    scale gets rel = inf, so it is the worst case and fails every tolerance."""
    worst = (-1.0, 0.0, 1.0, None)
    for raw, scale, where in candidates:
        if math.isfinite(raw) and math.isfinite(scale):
            scale = max(1.0, scale)
            rel = raw / scale
        else:
            rel = math.inf
        if rel > worst[0]:
            worst = (rel, raw, scale, where)
    return worst


def _record(check_id: str, rel: float, raw: float, scale: float, tol: float, points: int,
            notes: str = "") -> CheckRecord:
    return CheckRecord(check_id, PAPER_ANCHORS[check_id], raw, scale, rel <= tol, points, notes)


def _bracket_check(
    check_id: str,
    T: MultiVectorField,
    A: MultiVectorField,
    B: MultiVectorField,
    points,
    tol: float,
) -> CheckRecord:
    """Worst relative |T(x)| over the points, T being a bracket of A and B.

    At each point the residual is max |T^I(x)| and the scale is the largest
    |A^{l.}(x)| |d_l B(x)| (and the symmetric term) over the products in the
    bracket.  Every expression is evaluated over all points in one
    `evaluate_batch` call, in the order a point-by-point pass would meet
    them (T, A, B, then d_l B and d_l A for each l), so an evaluation error
    is the one met first at the first offending point.  A NaN anywhere in a
    maximum makes it NaN, so the check fails closed."""
    dim, m = A.space.dim, len(points)
    dA, dB = component_diffs(A), component_diffs(B)
    groups = [list(F.components.values()) for F in (T, A, B)]
    groups += [list(d[l].values()) for l in range(dim) for d in (dB, dA)]
    values = iter(evaluate_batch([e for g in groups for e in g], [x.coords for x in points]))
    # |values| of each group under a row of zeros, so an empty group reads 0
    t_abs, a_abs, b_abs, *d_abs = [np.abs([np.zeros(m), *(next(values) for _ in g)])
                                   for g in groups]

    def row_max(F, F_abs, l):
        # max |F^{l.}(x)| per point: row l of the antisymmetric array F(x)
        return np.max(F_abs[[0] + [k for k, idx in enumerate(F.components, 1) if l in idx]], axis=0)

    terms = []
    with np.errstate(all="ignore"):  # inf * 0 gives NaN, which fails closed
        for l in range(dim):
            terms += [row_max(A, a_abs, l) * np.max(d_abs[2 * l], axis=0),
                      row_max(B, b_abs, l) * np.max(d_abs[2 * l + 1], axis=0)]
    residuals, scales = np.max(t_abs, axis=0), np.max(terms, axis=0)
    rel, raw, scale, _ = _worst_case(zip(residuals.tolist(), scales.tolist(), points))
    return _record(check_id, rel, raw, scale, tol, m)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def check_jacobi(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """[W, W] = 0: the bracket induced by W satisfies the Jacobi identity."""
    points = _audit(cfg, W).points
    return _bracket_check("jacobi", schouten_bb(W, W), W, W, points, cfg.tol)


def check_regularity(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """W^n != 0 on the sampled box: minimum scale-free Pfaffian margin."""
    points = _audit(cfg, W).points
    margin = float(np.min(regularity_margins(W, [x.coords for x in points])))
    return CheckRecord(
        "regularity",
        PAPER_ANCHORS["regularity"],
        margin,
        REGULARITY_FACTOR,
        margin > REGULARITY_FACTOR,
        len(points),
        "residual is the minimum |Pf(W)| / ||W||^n over accepted samples",
    )


def check_symmetry(
    E: MultiVectorField, W: MultiVectorField, h: ScalarExpr, cfg: CheckConfig
) -> CheckRecord:
    """[E, W(h)] = 0: the generator commutes with the evolution operator."""
    X = hamiltonian_vf(W, h)
    points = _audit(cfg, W).points
    return _bracket_check("symmetry", lie_derivative_mv(E, X), E, X, points, cfg.tol)


def check_non_noether(E: MultiVectorField, W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """Classify the symmetry: Noether when [E, W] vanishes, non-Noether
    otherwise.  Informational - the record passes unless a non-finite
    residual or scale leaves the symmetry unclassified."""
    audit = _audit(cfg, W, E)
    points = audit.points
    probe = _bracket_check("non_noether", audit.what, E, W, points, cfg.tol)
    if not (math.isfinite(probe.residual) and math.isfinite(probe.scale)):
        return replace(probe, passed=False,
                       notes="cannot be classified: the residual or its scale is not finite")
    notes = (
        "Noether: generator preserves the Poisson bivector; downstream invariants are vacuous"
        if probe.passed
        else "non-Noether: [E,W] != 0, deformation carries conserved quantities"
    )
    return replace(probe, passed=True, notes=notes)


def check_yang_baxter(E: MultiVectorField, W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """[[E,[E,W]],W] = 0, realized as schouten_bb(L_E L_E W, W)."""
    audit = _audit(cfg, W, E)
    LLW = lie_derivative_mv(E, audit.what)
    points = audit.points
    return _bracket_check("yang_baxter", schouten_bb(LLW, W), LLW, W, points, cfg.tol)


def check_compatibility(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, CheckRecord]:
    """[W_hat, W] = 0 (compatible pair) and [W_hat, W_hat] = 0 (the deformed
    bivector is itself Poisson)."""
    points = _audit(cfg, W).points
    mixed = _bracket_check("compat_mixed", schouten_bb(What, W), What, W, points, cfg.tol)
    deformed = _bracket_check(
        "compat_deformed", schouten_bb(What, What), What, What, points, cfg.tol
    )
    return mixed, deformed


# ---------------------------------------------------------------------------
# Spectrum at samples (route cross-check)
# ---------------------------------------------------------------------------

def _pencil_pass(W: MultiVectorField, What: MultiVectorField, states, where, rest) -> tuple:
    """The Y^(l) at the states from the pencil coefficients, an (m, n)
    array, followed by the arrays that rest(coeffs, at, where) returns for
    coefficient rows, their states and where(j), the name of state j in
    errors, each with one row per state.  All in one batched pass, or where
    that raises, state by state (the coefficients, then rest), so that the
    first error met in the states' order is raised."""
    states = np.asarray(states, dtype=float)
    try:
        coeffs = pencil_coefficients_batch(W, What, states)
        more = rest(coeffs, states, where)
    except _BATCH_ERRORS:
        rows = []
        for j, x in enumerate(states):
            row = np.array([pencil_coefficients(W, What, x)])
            rows.append((row, *rest(row, x[None], lambda i, j=j: where(j))))
        coeffs, *more = map(np.concatenate, zip(*rows))
    return (np.column_stack(y_from_coefficients(coeffs.T)), *more)


def check_spectral_routes(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, tuple[SpectrumSample, ...]]:
    """Cross-validate two independent routes to Y^(l) - the Pfaffian pencil
    coefficients against Newton's identities on the traces of the
    recursion operator N = W^{-1} W_hat (`spectral.trace_invariants`),
    which share only the evaluation of W and W_hat - and collect the
    samples: N's eigenvalues (`operator_roots`) and the pencil's Y^(l) at
    each point, all in one batched pass (`_pencil_pass`)."""
    audit = _audit(cfg, W, what=What)
    points = audit.points

    def operator_routes(coeffs, at, where):  # at: all the samples, or one state of a replay
        if len(at) == len(points):
            return audit.roots, audit.invariants[0]
        op, grad = recursion_operator_batch(W, What, at)[2:]
        return operator_roots(op, where), trace_invariants(op, grad)[0]

    direct, roots, traces = _pencil_pass(W, What, [x.coords for x in points], audit.where,
                                         operator_routes)
    samples = tuple(SpectrumSample(tuple(x), tuple(c), tuple(y))
                    for x, c, y in zip(points, roots.tolist(), direct.tolist()))
    gaps = [(abs(a - b), max(abs(a), abs(b)), s.point)
            for s, row in zip(samples, traces.tolist()) for a, b in zip(s.y, row)]
    rel, raw, scale, _ = _worst_case(gaps)
    return _record("spectral_routes", rel, raw, scale, cfg.tol, len(points)), samples


# ---------------------------------------------------------------------------
# Flow and conservation
# ---------------------------------------------------------------------------

def _rk4_loop(exprs, dim: int):
    """``flow(out, steps, dt, on_error, x0, ..., x{dim-1})``: ``steps`` steps of
    classical RK4 for dx/dt = f(x) from x, f being `compile_kernel(exprs, dim)`
    pasted in at each of its 4 evaluation sites (with only the stage arguments
    it reads), as one loop of straight-line code on floats in numpy RK4's order
    of operations: y + (0.5 dt) k and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).
    State k goes to out[k * dim:(k + 1) * dim] (``out`` is flat; state 0 is x).
    Compiled once per kernel text (`_rk4_code`); the env is per call, so errors
    name its nodes.  Whatever step k raises, ``on_error(k)`` runs before it
    propagates."""
    body, outputs, env, reads = emit_kernel(exprs)
    exec(_rk4_code(tuple(body), tuple(outputs), reads, dim), env)
    return env["flow"]


@lru_cache(maxsize=32)
def _rk4_code(body: tuple, outputs: tuple, reads: tuple, dim: int):
    """`_rk4_loop`'s compiled module for one kernel text (`expr.emit_kernel`)."""
    def row(name):
        return ", ".join(f"{name}{i}" for i in range(dim))

    def site(role, x, args=None):
        # f at x, bound from args where f reads it: lines (temporaries t<role>k), outputs
        names = {"x": x, "t": f"t{role}"}
        lines = [f"{x}{i} = {args[i]}" for i in reads] if args else []
        return lines + [line.format(**names) for line in body], [o.format(**names) for o in outputs]

    loop, k1 = site("a", "x")
    ks = [k1]
    for role, c in (("b", "half"), ("c", "half"), ("d", "dt")):
        more, k = site(role, f"s{role}", [f"x{i} + {c} * {ks[-1][i]}" for i in range(dim)])
        loop, ks = loop + more, [*ks, k]
    # the new state into F first: an output may be a coordinate of x itself
    loop += [f"F{i} = x{i} + sixth * ((({ks[0][i]} + 2.0 * {ks[1][i]}) + 2.0 * {ks[2][i]})"
             f" + {ks[3][i]})" for i in range(dim)]
    loop += [f"{row('x')} = {row('F')}", f"j += {dim}",
             *(f"out[j + {i}] = x{i}" for i in range(dim))]
    lines = [f"def flow(out, steps, dt, on_error, {row('x')}):",
             "half, sixth = 0.5 * dt, dt / 6.0", "j = k = 0",
             "try:", "    for k in range(steps):", *(f"        {line}" for line in loop),
             "except Exception:", "    on_error(k)", "    raise"]
    return compile("\n    ".join(lines), "<rk4 loop>", "exec")


def _rk4_batch(exprs, y: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dt from every row of y, f from `evaluate_batch`, in
    `_rk4_loop`'s order of operations, so each row is the loop's step bit for bit."""
    ks = [np.array(evaluate_batch(exprs, y)).T]
    for c in (0.5 * dt, 0.5 * dt, dt):
        ks.append(np.array(evaluate_batch(exprs, y + c * ks[-1])).T)
    k1, k2, k3, k4 = ks
    return y + (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)


def integrate_flow(
    W: MultiVectorField,
    h: ScalarExpr,
    x0,
    cfg: CheckConfig,
    max_step_error: float | None = 1e-8,
    require_regular: bool = True,
) -> Trajectory:
    """Classical fixed-step RK4 for dx/dt = W(h)(x), on Python floats, over
    round(t_end / dt) >= 1 steps: one generated loop (`_rk4_loop`), compiled
    once per process for each field, writes each state into the trajectory's
    array; the states are bit for bit those of tree-evaluated RK4 on numpy arrays.

    Regularity of W is required at every state a step starts from (disable
    with require_regular=False to integrate through degenerate sets, e.g.
    fixed points of the field); when max_step_error is set, a step-halving
    estimate guards the local error per unit time, and a NaN estimate fails.
    The loop runs TRAJECTORY_BLOCK steps at a time, and both are checked after
    each block in one batched pass: the margins at its states and the half
    steps from them (`_rk4_batch`).  Where that pass raises, it is redone one
    state at a time, so the error raised is a step by step loop's first: a
    loss of regularity at a state j <= k, then an error in step k's full
    step, then in its half steps, then its failed estimate.
    """
    X = hamiltonian_vf(W, h)
    dim = W.space.dim
    exprs = [X.component((i,)) for i in range(dim)]  # an absent component is the literal 0.0
    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, dim))
    states[0] = [float(v) for v in x0]

    def check(start, stop, end):
        # a loss of regularity at states [start, end), a step in [start, stop) whose
        # half steps raise or whose estimate fails: the first in the states' order
        lost = failed = ()
        try:
            with np.errstate(all="ignore"):  # inf and NaN fail the tests
                if require_regular:
                    lost = np.flatnonzero(~(regularity_margins(W, states[start:end])
                                            > REGULARITY_FACTOR))
                if max_step_error is not None:
                    halves = _rk4_batch(exprs, _rk4_batch(exprs, states[start:stop], dt / 2),
                                        dt / 2)
                    errors = np.abs(states[start + 1:stop + 1] - halves) / 15.0 / dt
                    failed = np.flatnonzero(~np.all(errors <= max_step_error, axis=1))
        except _BATCH_ERRORS:
            if end - start > 1:  # each state's regularity, then its half steps
                for j in range(start, end):
                    check(j, min(j + 1, stop), j + 1)
                return
            if not len(lost):  # one state: its regularity comes before its half steps
                raise
        if len(lost) and not (len(failed) and failed[0] < lost[0]):
            raise FlowError(f"regularity lost at t = {times[start + lost[0]]:.6g}")
        if len(failed):
            j = start + int(failed[0])
            raise FlowError(f"step error estimate {float(np.max(errors[j - start])):.3e}/unit"
                            f" time exceeds {max_step_error:.3e} at t = {times[j]:.6g}")

    flow = _rk4_loop(exprs, dim)
    for start in range(0, steps, TRAJECTORY_BLOCK):
        stop = min(start + TRAJECTORY_BLOCK, steps)
        # where step start + k raises, the steps before it and the state it starts from come first
        flow(memoryview(states[start:stop + 1].reshape(-1)), stop - start, dt,
             lambda k: check(start, start + k, start + k + 1), *states[start].tolist())
        check(start, stop, stop)
    return Trajectory(times, states)


def conservation_drift(
    W: MultiVectorField,
    E: MultiVectorField,
    h: ScalarExpr,
    x0,
    cfg: CheckConfig,
) -> CheckRecord:
    """Integrate the flow from x0 and audit its trajectory (`trajectory_drift`)."""
    return trajectory_drift(W, _audit(cfg, W, E).what, integrate_flow(W, h, x0, cfg), cfg)


def trajectory_drift(W: MultiVectorField, What: MultiVectorField, traj: Trajectory,
                     cfg: CheckConfig) -> CheckRecord:
    """Audit that every secular root c_i and every invariant Y^(l) stays
    constant along the trajectory (relative drift <= cfg.drift_tol).

    The states go in blocks of TRAJECTORY_BLOCK through the batched pencil
    pass (`_pencil_pass`).  The roots at every state come from
    `spectral.roots_near`, with the roots of the first state
    (`secular_roots`, N's eigenvalues) as the guess: along a conserving
    flow they are every state's roots up to the drift, so Newton's method
    from them converges and certifies the roots.  A state whose roots it
    cannot certify, such as one whose roots really moved or repeat, takes
    N's eigenvalues at that state, with their errors.  The Y^(l) come from
    the pencil coefficients."""
    n = W.space.n
    m = len(traj)
    series = np.empty((m, 2 * n))  # c_1..c_n, then Y^(1)..Y^(n)
    # state 0's roots first, so that its errors are the first ones raised
    guess = secular_roots(W, What, traj.states[0], lambda i: f"t = {traj.times[0]:.6g}").roots

    def roots(coeffs, at, where):
        found, certified = roots_near(coeffs, guess)
        if not certified.all():
            found[~certified] = operator_roots(operator_batch(W, What, at[~certified]),
                                               lambda i: where(np.flatnonzero(~certified)[i]))
        return (found,)

    for start in range(0, m, TRAJECTORY_BLOCK):
        block = slice(start, start + TRAJECTORY_BLOCK)
        series[block, n:], series[block, :n] = _pencil_pass(
            W, What, traj.states[block], lambda j: f"t = {traj.times[start + j]:.6g}", roots)

    labels = [f"c{i + 1}" for i in range(n)] + [f"Y{l}" for l in range(1, n + 1)]
    drifts = []
    for j, label in enumerate(labels):
        base = series[0, j]
        drifts.append((float(np.max(np.abs(series[:, j] - base))), abs(base), label))
    rel, raw, scale, label = _worst_case(drifts)
    parts = ", ".join(f"{lab}: {d / max(1.0, b):.3e}" for d, b, lab in drifts)
    return _record(
        "conservation_drift", rel, raw, scale, cfg.drift_tol, m,
        f"worst: {label}; relative drifts over T={traj.times[-1]:g}: {parts}",
    )


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------

def _pair_brackets(grads: np.ndarray, w: np.ndarray, what: np.ndarray, points) -> list[tuple]:
    """(|g_a . V g_b|, max_{d,e} |V_de g_a,d g_b,e|, x) for every pair a <= b
    of the gradients (m, K, dim) at each of the m points x, under V = W and
    V = W_hat (stacked (m, dim, dim) arrays), in that order."""
    a, b = np.triu_indices(grads.shape[1])
    ga, gb = grads[:, a], grads[:, b]
    raw = np.stack([np.abs(np.einsum("mpd,mde,mpe->mp", ga, V, gb)) for V in (w, what)], axis=-1)
    with np.errstate(all="ignore"):  # inf and NaN fail the check
        # one pair at a time, so that no (m, pairs, dim, dim) product is held
        scale = np.array([[np.max(np.abs(V * ga[:, p, :, None] * gb[:, p, None, :]), axis=(1, 2))
                           for V in (w, what)] for p in range(len(a))]).transpose(2, 0, 1)
    return [(r, s, x) for k, x in enumerate(points)
            for r, s in zip(raw[k].ravel().tolist(), scale[k].ravel().tolist())]


def check_involution(
    W: MultiVectorField,
    E: MultiVectorField,
    cfg: CheckConfig,
) -> CheckRecord:
    """{Y^(k), Y^(l)} = 0 under both Poisson structures (W and W_hat), and
    {c_i, c_j} = 0 wherever the secular spectrum is simple.  The gradients
    are exact, from the recursion operator N = W^{-1} W_hat, built over
    all sampled points at once: Newton's identities on tr(N^k) for the
    Y^(l), spectral projectors of N for the roots (`spectral`).  N's own
    eigenvalues (`operator_roots`) are the roots at every point: they decide
    which points have repeated roots, raise NonRealSpectrumError on a
    non-real spectrum, and build the projectors at the other points."""
    n = W.space.n
    audit = _audit(cfg, W, E)
    w, what, op, grad = audit.operator  # L_E W, then the samples
    points = audit.points
    brackets = _pair_brackets(audit.invariants[1], w, what, points)
    notes = "pairs tested with gradients from the recursion operator N = W^-1 What"
    if n == 1:
        notes = "single invariant: only the vanishing self-bracket is checked"
    else:
        roots = audit.roots
        simple = [k for k, r in enumerate(roots) if not any(multiple_root_flags(r))]
        if simple:
            grads = root_pair_gradients(op[simple], grad[simple], roots[simple])
            brackets += _pair_brackets(grads, w[simple], what[simple], [points[k] for k in simple])
        skipped = len(points) - len(simple)
        if skipped:
            notes += f"; root-pair test skipped at {skipped} points with repeated roots"
    rel, raw, scale, _ = _worst_case(brackets)
    return _record("involution", rel, raw, scale, cfg.tol, len(points), notes)
