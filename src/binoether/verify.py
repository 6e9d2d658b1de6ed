"""Executable checks for a (W, h, E) system: identity residuals at sampled
regular points, flow integration with a conservation audit, and involution
audits under both Poisson structures.

Residuals are reported raw together with the scale used to relativize them:
a check passes when residual <= tol * scale, where scale is the largest
absolute intermediate term at the worst sampled point, floored at 1.  A
non-finite residual or scale (NaN or inf) counts as the worst case and fails
the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .expr import ExprError, ScalarExpr
from .geometry import (
    MultiVectorField,
    PhasePoint,
    evaluate_mv,
    hamiltonian_vf,
    lie_derivative_mv,
    schouten_bb,
)
from .spectral import (
    REGULARITY_FACTOR,
    SpectralError,
    multiple_root_flags,
    pencil_coefficient_jets,
    pencil_coefficients,
    pencil_coefficients_batch,
    regularity_margin,
    regularity_margins,
    root_gradients,
    roots_from_coefficients,
    roots_from_coefficients_batch,
    y_from_coefficients,
    y_from_root_values,
)

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

# flow states per batched pass of the regularity monitor and the drift audit
TRAJECTORY_BLOCK = 256

# what a batched pass over a block of states can raise; the block is then
# redone state by state, so that the error met first along the flow wins
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
            "checks": [
                {
                    "id": r.id,
                    "paper_anchor": r.paper_anchor,
                    "residual": r.residual,
                    "scale": r.scale,
                    "pass": r.passed,
                    "notes": r.notes,
                    "points": r.points,
                    "mandatory": r.mandatory,
                }
                for r in self.records
            ],
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
        records = tuple(
            CheckRecord(
                id=c["id"],
                paper_anchor=c["paper_anchor"],
                residual=c["residual"],
                scale=c["scale"],
                passed=c["pass"],
                points=c["points"],
                notes=c["notes"],
                mandatory=c["mandatory"],
            )
            for c in payload["checks"]
        )
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

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(tuple(self.states[i]))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_regular_points(W: MultiVectorField, cfg: CheckConfig) -> list[PhasePoint]:
    """Draw cfg.samples points uniformly from the box, rejecting those where
    W is numerically degenerate."""
    rng = np.random.default_rng(cfg.seed)
    dim = W.space.dim
    points: list[PhasePoint] = []
    attempts = 0
    limit = 200 * cfg.samples
    while len(points) < cfg.samples and attempts < limit:
        attempts += 1
        x = rng.uniform(-cfg.box, cfg.box, size=dim)
        if regularity_margin(evaluate_mv(W, x)) > REGULARITY_FACTOR:
            points.append(PhasePoint(tuple(x)))
    if len(points) < cfg.samples:
        raise SamplingError(
            f"found only {len(points)}/{cfg.samples} regular points in {attempts} draws"
        )
    return points


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def _component_diffs(F: MultiVectorField) -> dict[int, list[ScalarExpr]]:
    N = F.space.dim
    out: dict[int, list[ScalarExpr]] = {}
    for l in range(N):
        ds = [e.diff(l) for e in F.components.values()]
        out[l] = [d for d in ds if not d.is_zero()]
    return out


def _max_eval(exprs, x) -> float:
    return max((abs(e.eval(x)) for e in exprs), default=0.0)


def _bracket_scale(A: MultiVectorField, B: MultiVectorField, dA, dB, x) -> float:
    """Largest |A^{l.}(x)| |d_l B(x)| (and the symmetric term) over the
    products appearing in the bracket of A and B."""
    Am, Bm = evaluate_mv(A, x), evaluate_mv(B, x)
    s = 0.0
    for l in range(A.space.dim):
        a_row = float(np.max(np.abs(Am[l])))
        b_row = float(np.max(np.abs(Bm[l])))
        s = max(s, a_row * _max_eval(dB[l], x), b_row * _max_eval(dA[l], x))
    return s


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
    """Worst relative |T(x)| over the points, T being a bracket of A and B."""
    dA, dB = _component_diffs(A), _component_diffs(B)
    rel, raw, scale, _ = _worst_case(
        (_max_eval(T.components.values(), x), _bracket_scale(A, B, dA, dB, x), x) for x in points
    )
    return _record(check_id, rel, raw, scale, tol, len(points))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def check_jacobi(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """[W, W] = 0: the bracket induced by W satisfies the Jacobi identity."""
    points = sample_regular_points(W, cfg)
    return _bracket_check("jacobi", schouten_bb(W, W), W, W, points, cfg.tol)


def check_regularity(W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """W^n != 0 on the sampled box: minimum scale-free Pfaffian margin."""
    points = sample_regular_points(W, cfg)
    margin = min(regularity_margin(evaluate_mv(W, x)) for x in points)
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
    points = sample_regular_points(W, cfg)
    return _bracket_check("symmetry", lie_derivative_mv(E, X), E, X, points, cfg.tol)


def check_non_noether(E: MultiVectorField, W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """Classify the symmetry: Noether when [E, W] vanishes, non-Noether
    otherwise.  Informational - the record always passes."""
    points = sample_regular_points(W, cfg)
    probe = _bracket_check("non_noether", lie_derivative_mv(E, W), E, W, points, cfg.tol)
    notes = (
        "Noether: generator preserves the Poisson bivector; downstream invariants are vacuous"
        if probe.passed
        else "non-Noether: [E,W] != 0, deformation carries conserved quantities"
    )
    return replace(probe, passed=True, notes=notes)


def check_yang_baxter(E: MultiVectorField, W: MultiVectorField, cfg: CheckConfig) -> CheckRecord:
    """[[E,[E,W]],W] = 0, realized as schouten_bb(L_E L_E W, W)."""
    What = lie_derivative_mv(E, W)
    LLW = lie_derivative_mv(E, What)
    points = sample_regular_points(W, cfg)
    return _bracket_check("yang_baxter", schouten_bb(LLW, W), LLW, W, points, cfg.tol)


def check_compatibility(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, CheckRecord]:
    """[W_hat, W] = 0 (compatible pair) and [W_hat, W_hat] = 0 (the deformed
    bivector is itself Poisson)."""
    points = sample_regular_points(W, cfg)
    mixed = _bracket_check("compat_mixed", schouten_bb(What, W), What, W, points, cfg.tol)
    deformed = _bracket_check(
        "compat_deformed", schouten_bb(What, What), What, What, points, cfg.tol
    )
    return mixed, deformed


# ---------------------------------------------------------------------------
# Spectrum at samples (route cross-check)
# ---------------------------------------------------------------------------

def check_spectral_routes(
    W: MultiVectorField, What: MultiVectorField, cfg: CheckConfig
) -> tuple[CheckRecord, tuple[SpectrumSample, ...]]:
    """Cross-validate the two routes to Y^(l) - pencil coefficients versus
    symmetric functions of the secular roots - and collect samples."""
    points = sample_regular_points(W, cfg)
    samples = []
    gaps = []
    for x in points:
        coeffs = pencil_coefficients(W, What, x)
        roots = roots_from_coefficients(coeffs)
        direct = tuple(float(v) for v in y_from_coefficients(coeffs))
        samples.append(SpectrumSample(tuple(x), tuple(float(r) for r in roots), direct))
        gaps += [(abs(a - b), max(abs(a), abs(b)), x)
                 for a, b in zip(direct, y_from_root_values(roots))]
    rel, raw, scale, _ = _worst_case(gaps)
    return _record("spectral_routes", rel, raw, scale, cfg.tol, len(points)), tuple(samples)


# ---------------------------------------------------------------------------
# Flow and conservation
# ---------------------------------------------------------------------------

def _monitor_regularity(W: MultiVectorField, times: np.ndarray, states: np.ndarray) -> None:
    """FlowError at the first of the states where W is degenerate."""
    for start in range(0, len(states), TRAJECTORY_BLOCK):
        block = states[start:start + TRAJECTORY_BLOCK]
        try:
            margins = regularity_margins(W, block)
        except _BATCH_ERRORS:
            # lazily, so that a loss of regularity before the error wins
            margins = (regularity_margin(evaluate_mv(W, x)) for x in block)
        for k, margin in enumerate(margins, start):
            if margin <= REGULARITY_FACTOR:
                raise FlowError(f"regularity lost at t = {times[k]:.6g}")


def integrate_flow(
    W: MultiVectorField,
    h: ScalarExpr,
    x0,
    cfg: CheckConfig,
    max_step_error: float | None = 1e-8,
    require_regular: bool = True,
) -> Trajectory:
    """Classical fixed-step RK4 for dx/dt = W(h)(x).

    Regularity of W is required at every state a step starts from (disable
    with require_regular=False to integrate through degenerate sets, e.g.
    fixed points of the field); when max_step_error is set, a step-halving
    estimate guards the local error per unit time.  The states are checked
    for regularity in batches once the steps are done; a loss of regularity
    at or before the state where a step failed is the error raised.
    """
    X = hamiltonian_vf(W, h)
    dim = W.space.dim
    comps = list(X.components.items())

    def f(y):
        out = np.zeros(dim)
        for (i,), e in comps:
            out[i] = e.eval(y)
        return out

    def rk4_step(y, dt):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    steps = int(round(cfg.t_end / cfg.dt))
    times = np.arange(steps + 1) * cfg.dt
    states = np.empty((steps + 1, dim))
    y = np.asarray(tuple(x0), dtype=float)
    states[0] = y
    try:
        for k in range(steps):
            full = rk4_step(y, cfg.dt)
            if max_step_error is not None:
                half = rk4_step(rk4_step(y, cfg.dt / 2), cfg.dt / 2)
                est = float(np.max(np.abs(full - half))) / 15.0 / cfg.dt
                if est > max_step_error:
                    raise FlowError(
                        f"step error estimate {est:.3e}/unit time exceeds {max_step_error:.3e}"
                        f" at t = {times[k]:.6g}"
                    )
            y = full
            states[k + 1] = y
    except Exception:
        if require_regular:
            _monitor_regularity(W, times[:k + 1], states[:k + 1])
        raise
    if require_regular:
        _monitor_regularity(W, times[:steps], states[:steps])
    return Trajectory(times, states)


def conservation_drift(
    W: MultiVectorField,
    E: MultiVectorField,
    h: ScalarExpr,
    x0,
    cfg: CheckConfig,
) -> CheckRecord:
    """Integrate the flow and audit that every secular root c_i and every
    invariant Y^(l) stays constant (relative drift <= cfg.drift_tol)."""
    n = W.space.n
    What = lie_derivative_mv(E, W)
    traj = integrate_flow(W, h, x0, cfg)
    m = len(traj)
    series = np.empty((m, 2 * n))  # c_1..c_n, then Y^(1)..Y^(n)
    for start in range(0, m, TRAJECTORY_BLOCK):
        block = traj.states[start:start + TRAJECTORY_BLOCK]
        rows = series[start:start + TRAJECTORY_BLOCK]
        try:
            coeffs = pencil_coefficients_batch(W, What, block)
            rows[:, :n] = roots_from_coefficients_batch(coeffs)
            rows[:, n:] = np.column_stack(y_from_coefficients(coeffs.T))
        except _BATCH_ERRORS:
            # state by state, the error met first along the flow is raised
            for row, x in zip(rows, block):
                coeffs = pencil_coefficients(W, What, x)
                row[:n] = roots_from_coefficients(coeffs)
                row[n:] = y_from_coefficients(coeffs)

    labels = [f"c{i + 1}" for i in range(n)] + [f"Y{l}" for l in range(1, n + 1)]
    drifts = []
    for j, label in enumerate(labels):
        base = series[0, j]
        drifts.append((float(np.max(np.abs(series[:, j] - base))), abs(base), label))
    rel, raw, scale, label = _worst_case(drifts)
    parts = ", ".join(f"{lab}: {d / max(1.0, b):.3e}" for d, b, lab in drifts)
    return _record(
        "conservation_drift", rel, raw, scale, cfg.drift_tol, m,
        f"worst: {label}; relative drifts over T={cfg.t_end:g}: {parts}",
    )


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------

def check_involution(
    W: MultiVectorField,
    E: MultiVectorField,
    cfg: CheckConfig,
    tol: float | None = None,
) -> CheckRecord:
    """{Y^(k), Y^(l)} = 0 under both Poisson structures (W and W_hat), via
    exact jet gradients; secular-root pairs are audited too wherever the
    spectrum is simple."""
    tol = cfg.tol if tol is None else tol
    n = W.space.n
    What = lie_derivative_mv(E, W)
    points = sample_regular_points(W, cfg)
    brackets = []
    skipped = 0
    for x in points:
        coeff_jets = pencil_coefficient_jets(W, What, x)
        grad_sets = [[y.gradient for y in y_from_coefficients(coeff_jets)]]
        roots = roots_from_coefficients([j.value for j in coeff_jets])
        if n > 1 and any(multiple_root_flags(roots)):
            skipped += 1
        elif n > 1:
            grad_sets.append(root_gradients(coeff_jets, tuple(roots)))

        matrices = (evaluate_mv(W, x), evaluate_mv(What, x))
        for gset in grad_sets:
            for a, ga in enumerate(gset):
                for gb in gset[a:]:
                    brackets += [
                        (abs(float(ga @ Vm @ gb)), float(np.max(np.abs(Vm * np.outer(ga, gb)))), x)
                        for Vm in matrices
                    ]
    rel, raw, scale, _ = _worst_case(brackets)
    notes = "pairs tested with gradients from forward-mode jets"
    if n == 1:
        notes = "single invariant: only the vanishing self-bracket is checked"
    if skipped:
        notes += f"; root-pair test skipped at {skipped} points with repeated roots"
    return _record("involution", rel, raw, scale, tol, len(points), notes)
