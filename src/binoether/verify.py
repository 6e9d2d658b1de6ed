"""Executable checks for a (W, h, E) system: identity residuals at sampled
regular points, flow integration with a conservation audit, and involution
audits under both Poisson structures.

A report evaluates each field it audits (W, W_hat, E, W(h), L_E L_E W) once at the
samples, with its first partials (`Audit.arrays`); each identity check contracts its
bracket and scale from those arrays, building no trivector.  The spectral routes, the
drift audit and the flow's checks take their states in batched passes that raise the
error a state-by-state loop meets first (`expr.in_state_order`).

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
from itertools import combinations
from weakref import WeakKeyDictionary

import numpy as np

from .expr import ExprError, ScalarExpr, emit_kernel, evaluate_batch, in_state_order
from .geometry import MultiVectorField, PhasePoint, field_arrays, hamiltonian_vf, lie_derivative_mv
from .spectral import (
    REGULARITY_FACTOR,
    RegularityError,
    SpectralError,
    multiple_root_flags,
    operator_batch,
    operator_jet,
    operator_roots,
    pencil_coefficients_batch,
    recursion_operator_batch,
    regularity_margins,
    root_pair_gradients,
    roots_near,
    trace_invariants,
    y_from_coefficients,
)

# not called here: perfbench/tracing.py's WRAPS resolves these names in this
# module, and a missing name fails the traced smoke job
from .geometry import evaluate_mv, schouten_bb  # noqa: F401
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

# flow steps per run of the RK4 loop and its checks, and states per pass of the drift audit;
# evaluate_batch's memo holds states x distinct subtrees (a pass peaks at 98 MB on dense n = 6)
TRAJECTORY_BLOCK = 1024

# what a batched pass over a block of states can raise (`in_state_order`)
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
        if math.isinf(self.t_end / self.dt):  # no step count: round() would overflow
            raise ValueError(f"t_end / dt must be finite, got {self.t_end:g} / {self.dt:g}")
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
    W_hat = L_E W (or ``what`` as given), each field's arrays at the samples (`arrays`),
    W, W_hat, N and dN from them (`operator_jet`), N's roots (`operator_roots`) and the
    Y^(l) with gradients (`trace_invariants`).  A build that raises is not kept.  It reads
    as its config: ``audit.tol`` is ``cfg.tol``."""

    def __init__(self, cfg: CheckConfig, W: MultiVectorField, E=None, **given):
        # given: kept as if built; kept: field -> its arrays, while the field lives
        vars(self).update(vars(cfg), cfg=cfg, W=W, E=E, kept=WeakKeyDictionary(), **given)

    points = cached_property(lambda self: sample_regular_points(self.W, self.cfg))
    what = cached_property(lambda self: lie_derivative_mv(self.E, self.W))
    operator = cached_property(lambda self: operator_jet(*self.arrays(self.W, self.what)))
    roots = cached_property(lambda self: operator_roots(self.operator[2], self.where))
    invariants = cached_property(lambda self: trace_invariants(*self.operator[2:]))

    def where(self, j: int) -> str:  # sample point j in errors, as `invariants --at` names it
        return "sample point " + ",".join(
            f"{k}={v!r}" for k, v in zip(self.W.space.names, self.points[j]))

    def arrays(self, *fields) -> list[np.ndarray]:
        """The fields' arrays at the samples with their partials (`field_arrays`), kept while
        each field lives.  Those not kept yet go to one call, in the order given, so that its
        error is the first a point-by-point pass meets; a call that raises keeps nothing."""
        new = list(dict.fromkeys(F for F in fields if F not in self.kept))
        if new:
            self.kept.update(zip(new, field_arrays(new, [x.coords for x in self.points])))
        return [self.kept[F] for F in fields]

    def values(self, bivectors, a: int = 0, b: int | None = None) -> list | None:
        """The bivectors' kept components at samples [a, b) (`_batch_rows`), or None."""
        if all(V in self.kept for V in bivectors):
            return [self.kept[V][0][a:b, i, j] for V in bivectors for i, j in V.components]


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


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] at each sample, an (m, components) array, from the arrays of two
    vector fields or of two bivectors (`field_arrays`):

        [A, B]^j     = sum_l (A^l d_l B^j - B^l d_l A^j),
        [A, B]^{ijk} = (S^{ijk} + S^{jki}) + S^{kij}   for i < j < k,
        S^{abc}      = sum_l (A^{la} d_l B^{bc} + B^{la} d_l A^{bc}),

    each sum taken elementwise from 0.0 over l = 0, 1, ... in turn, an order that,
    unlike a matmul's or an einsum's, is the same on every machine."""
    (A, *dA), (B, *dB) = a, b
    N = A.shape[1]
    with np.errstate(all="ignore"):  # inf * 0 gives NaN, which fails closed
        if A.ndim == 2:
            return sum((A[:, l, None] * dB[l] - B[:, l, None] * dA[l] for l in range(N)), 0.0)
        x = np.array(list(combinations(range(N), 3)), dtype=int).reshape(-1, 3).T  # i, j, k
        y, z = x[[1, 2, 0]], x[[2, 0, 1]]  # S^{xyz} for xyz = ijk, jki, kij
        S = sum((A[:, l, x] * dB[l][:, y, z] + B[:, l, x] * dA[l][:, y, z] for l in range(N)), 0.0)
        return (S[:, 0] + S[:, 1]) + S[:, 2]


def _bracket_check(check_id: str, A: MultiVectorField, B: MultiVectorField, audit: Audit,
                   bracket: MultiVectorField | None = None) -> CheckRecord:
    """Worst relative |T(x)| over the samples, T = [A, B] contracted from the audit's
    arrays of A and B (`_bracket`), or the values of ``bracket`` where given
    (non_noether's W_hat = [E, W]), all asked for in one `Audit.arrays` call, bracket
    first, so that an evaluation error is the first met point by point.

    At each point the residual is max |T^I(x)| and the scale is the largest
    |A^{l.}(x)| |d_l B(x)| or |B^{l.}(x)| |d_l A(x)|: row l of A (A^l for a vector field)
    and every entry of d_l B.  A NaN anywhere in a maximum makes it NaN: it fails closed."""
    *given, a, b = audit.arrays(*([] if bracket is None else [bracket]), A, B)
    m, N = a.shape[1:3]
    T = given[0][0].reshape(m, -1) if given else _bracket(a, b)
    (rows_a, d_a), (rows_b, d_b) = ((np.abs(F[0].reshape(m, N, -1)).max(axis=2),
                                     np.abs(F[1:].reshape(N, m, -1)).max(axis=2).T) for F in (a, b))
    with np.errstate(all="ignore"):  # inf * 0 gives NaN, which fails closed
        scales = np.max([rows_a * d_b, rows_b * d_a], axis=(0, 2))
    residuals = np.max(np.abs(T), axis=1, initial=0.0)
    rel, raw, scale, _ = _worst_case(zip(residuals.tolist(), scales.tolist(), audit.points))
    return _record(check_id, rel, raw, scale, audit.tol, m)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def check_jacobi(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """[W, W] = 0: the bracket induced by W satisfies the Jacobi identity."""
    return _bracket_check("jacobi", W, W, _audit(cfg, W))


def check_regularity(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """W^n != 0 on the sampled box: minimum scale-free Pfaffian margin."""
    audit = _audit(cfg, W)
    points = audit.points
    margin = float(np.min(regularity_margins(W, [x.coords for x in points], audit.values([W]))))
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
    return _bracket_check("symmetry", E, hamiltonian_vf(W, h), _audit(cfg, W))


def check_non_noether(E: MultiVectorField, W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """Classify the symmetry: Noether when [E, W] vanishes, non-Noether
    otherwise.  Informational - the record passes unless a non-finite
    residual or scale leaves the symmetry unclassified."""
    audit = _audit(cfg, W, E)
    probe = _bracket_check("non_noether", E, W, audit, bracket=audit.what)
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
    """[[E,[E,W]],W] = 0, realized as the bracket [L_E L_E W, W], contracted at the
    samples from the arrays of L_E L_E W and W (`_bracket`)."""
    audit = _audit(cfg, W, E)
    return _bracket_check("yang_baxter", lie_derivative_mv(E, audit.what), W, audit)


def check_compatibility(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, CheckRecord]:
    """[W_hat, W] = 0 (compatible pair) and [W_hat, W_hat] = 0 (the deformed
    bivector is itself Poisson)."""
    audit = _audit(cfg, W)
    return (_bracket_check("compat_mixed", What, W, audit),
            _bracket_check("compat_deformed", What, What, audit))


# ---------------------------------------------------------------------------
# Spectrum at samples (route cross-check)
# ---------------------------------------------------------------------------

def check_spectral_routes(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, tuple[SpectrumSample, ...]]:
    """Cross-validate two independent routes to Y^(l) - the Pfaffian pencil
    coefficients against Newton's identities on the traces of the
    recursion operator N = W^{-1} W_hat (`spectral.trace_invariants`),
    which share only the evaluation of W and W_hat - and collect the
    samples: N's eigenvalues (`operator_roots`) and the pencil's Y^(l) at
    each point, all in one batched pass (`in_state_order`)."""
    audit = _audit(cfg, W, what=What)
    points = audit.points
    states = np.array([x.coords for x in points])

    def routes(a, b):  # all the samples, or sample a alone
        at = states[a:b]
        coeffs = pencil_coefficients_batch(W, What, at, audit.values([W, What], a, b))
        direct = np.column_stack(y_from_coefficients(coeffs.T))
        if b - a == len(points):
            return direct, audit.roots, audit.invariants[0]
        op, grad = recursion_operator_batch(W, What, at)[2:]
        return direct, operator_roots(op, lambda i: audit.where(a + i)), trace_invariants(op, grad)[0]

    direct, roots, traces = in_state_order(routes, 0, len(points), _BATCH_ERRORS)
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
    array; the states are bit for bit those of tree-evaluated RK4 on numpy
    arrays, but for the sign of a NaN, which IEEE 754 leaves unspecified.

    Regularity of W is required at every state a step starts from (disable
    with require_regular=False to integrate through degenerate sets, e.g.
    fixed points of the field); when max_step_error is set, a step-halving
    estimate guards the local error per unit time, and a NaN estimate fails.
    The loop runs TRAJECTORY_BLOCK steps at a time, and both are checked after
    each block in one batched pass (`in_state_order`): the margins at its
    states, then the half steps (`_rk4_batch`) from those before the first
    loss.  So the error raised is a step by step loop's first: a loss of
    regularity at a state j <= k, then an error in step k's full step, then
    in its half steps, then its failed estimate, though the loop may take up
    to TRAJECTORY_BLOCK - 1 full steps past the failure before the check.
    """
    X = hamiltonian_vf(W, h)
    dim = W.space.dim
    exprs = [X.component((i,)) for i in range(dim)]  # an absent component is the literal 0.0
    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, dim))
    states[0] = [float(v) for v in x0]

    def check(a, b, stop):
        # states [a, b): the first loss of regularity, then the estimates of the steps
        # before it and before stop; the first failed estimate wins, else the loss
        lost = []
        with np.errstate(all="ignore"):  # inf and NaN fail the tests
            if require_regular:
                lost = a + np.flatnonzero(~(regularity_margins(W, states[a:b]) > REGULARITY_FACTOR))
            stop = min(b, stop, *lost[:1])
            if max_step_error is not None and a < stop:
                halves = _rk4_batch(exprs, _rk4_batch(exprs, states[a:stop], dt / 2), dt / 2)
                errors = np.abs(states[a + 1:stop + 1] - halves) / 15.0 / dt
                failed = a + np.flatnonzero(~np.all(errors <= max_step_error, axis=1))
                if len(failed):
                    j = failed[0]
                    raise FlowError(f"step error estimate {float(np.max(errors[j - a])):.3e}/unit"
                                    f" time exceeds {max_step_error:.3e} at t = {times[j]:.6g}")
        if len(lost):
            raise FlowError(f"regularity lost at t = {times[lost[0]]:.6g}")
        return ()

    flow = _rk4_loop(exprs, dim)
    for start in range(0, steps, TRAJECTORY_BLOCK):
        stop = min(start + TRAJECTORY_BLOCK, steps)
        # where step start + k raises, the steps before it and the state it starts from come first
        flow(memoryview(states[start:stop + 1].reshape(-1)), stop - start, dt,
             lambda k: in_state_order(lambda a, b: check(a, b, start + k), start, start + k + 1,
                                      _BATCH_ERRORS),
             *states[start].tolist())
        in_state_order(lambda a, b: check(a, b, stop), start, stop, _BATCH_ERRORS)
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

    The states go in blocks of TRAJECTORY_BLOCK through one batched pass
    each (`in_state_order`, which replays a raising pass by halves).  The
    roots at every state come from `spectral.roots_near`, with the roots of
    the first state (N's eigenvalues, from `operator_batch`; RegularityError
    where W is degenerate) as the guess: along a conserving flow they are
    every state's roots up to the drift, so Newton's method from them converges and certifies the roots.  A state
    whose roots it cannot certify, such as one whose roots really moved or
    repeat, takes N's eigenvalues at that state, with their errors.  The
    Y^(l) come from the pencil coefficients."""
    n = W.space.n
    m = len(traj)
    # state 0's roots first, so that its errors are the first ones raised
    if not regularity_margins(W, traj.states[:1])[0] > REGULARITY_FACTOR:  # as `secular_roots`
        raise RegularityError(f"bivector is numerically degenerate at {tuple(traj.states[0])}")
    guess = operator_roots(operator_batch(W, What, traj.states[:1]),
                           lambda i: f"t = {traj.times[0]:.6g}")[0]

    def block(a, b):  # the roots and the Y^(l) at states [a, b)
        coeffs = pencil_coefficients_batch(W, What, traj.states[a:b])
        found, certified = roots_near(coeffs, guess)
        if not certified.all():
            rows = a + np.flatnonzero(~certified)
            found[~certified] = operator_roots(operator_batch(W, What, traj.states[rows]),
                                               lambda i: f"t = {traj.times[rows[i]]:.6g}")
        return found, np.column_stack(y_from_coefficients(coeffs.T))

    series = np.vstack([np.hstack(in_state_order(block, a, min(a + TRAJECTORY_BLOCK, m), _BATCH_ERRORS))
                        for a in range(0, m, TRAJECTORY_BLOCK)])  # c_1..c_n, then Y^(1)..Y^(n)

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
