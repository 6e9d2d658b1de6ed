"""System definitions and the verification pipeline.

A system bundles a phase space, a Poisson bivector W, a Hamiltonian h, and a
symmetry-generator candidate E.  Systems come from a small line-oriented file
format (see `load_system`) or from the built-in examples, and `run_report`
drives every check over one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .expr import Num, ParseError, PhaseSpace, ScalarExpr, Var, parse
from .geometry import MultiVectorField, PhasePoint, hamiltonian_vf, lie_derivative_mv  # noqa: F401
from .verify import (
    PAPER_ANCHORS,
    Audit,
    CheckConfig,
    CheckRecord,
    CheckReport,
    check_compatibility,
    check_involution,
    check_jacobi,
    check_non_noether,
    check_regularity,
    check_spectral_routes,
    check_symmetry,
    check_yang_baxter,
    conservation_drift,
    sample_regular_points,  # noqa: F401 - it and lie_derivative_mv: traced by perfbench
)

__all__ = ["SystemSpec", "SystemFileError", "load_system", "builtin_system", "run_report"]

MAX_DOF = 6


class SystemFileError(Exception):
    """Malformed system file; the message carries the line number."""


@dataclass(frozen=True)
class SystemSpec:
    """A loaded system: phase space, Poisson bivector, Hamiltonian, generator."""

    space: PhaseSpace
    W: MultiVectorField
    h: ScalarExpr
    E: MultiVectorField
    name: str


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_W_KEY_RE = re.compile(r"^W\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*,\s*([A-Za-z_][A-Za-z_0-9]*)\s*\)$")
_E_KEY_RE = re.compile(r"^E\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*\)$")
_SECTIONS = ("system", "poisson", "hamiltonian", "symmetry")


def _fail(lineno: int, message: str):
    prefix = f"line {lineno}: " if lineno else ""
    raise SystemFileError(prefix + message)


def _parse_expr(text: str, space: PhaseSpace, lineno: int, column0: int) -> ScalarExpr:
    try:
        return parse(text, space)
    except ParseError as err:
        raise SystemFileError(
            f"line {lineno}, column {column0 + err.position + 1}: {err}"
        ) from err


def _components(entries, key_re: re.Pattern, form: str, space: PhaseSpace) -> dict:
    """The components of a [poisson] or [symmetry] section, by coordinate
    indices; ``form`` is the key's pattern as messages show it, e.g. 'W(a,b)'."""
    comps: dict[tuple[int, ...], ScalarExpr] = {}
    for lineno, key, value, col in entries:
        m = key_re.match(key)
        if not m:
            _fail(lineno, f"expected '{form} = <expr>', got key '{key}'")
        coords = m.groups()
        for coord in coords:
            if coord not in space.names:
                _fail(lineno, f"unknown coordinate '{coord}'")
        idx = tuple(space.index(coord) for coord in coords)
        if any(i >= j for i, j in zip(idx, idx[1:])):
            a, b = coords
            _fail(
                lineno,
                f"W components must be given on the increasing canonical pair: "
                f"write W({b},{a}) = -(...) instead of W({a},{b})",
            )
        if idx in comps:
            _fail(lineno, f"duplicate component {form[0]}({','.join(coords)})")
        comps[idx] = _parse_expr(value, space, lineno, col)
    return comps


def load_system(path: str | Path) -> SystemSpec:
    """Load and fully validate a system file.

    Format (UTF-8, '#' comments, blank lines ignored)::

        [system]       name = <string>, dof = <n>
        [poisson]      W(qi,pj) = <expr>   on increasing coordinate pairs
        [hamiltonian]  h = <expr>
        [symmetry]     E(coord) = <expr>
    """
    path = Path(path)
    sections: dict[str, list[tuple[int, str, str, int]]] = {s: [] for s in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        header = _SECTION_RE.match(line.strip())
        if header:
            name = header.group(1)
            if name not in _SECTIONS:
                _fail(lineno, f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            _fail(lineno, "content before the first section header")
        if "=" not in line:
            _fail(lineno, "expected 'key = value'")
        key, value = line.split("=", 1)
        value_col = len(key) + 1 + (len(value) - len(value.lstrip()))
        sections[current].append((lineno, key.strip(), value.strip(), value_col))

    # [system]
    name = path.stem
    dof = None
    for k, (lineno, key, value, _) in enumerate(sections["system"]):
        if key in (entry[1] for entry in sections["system"][:k]):
            _fail(lineno, f"duplicate '{key}' entry")
        if key == "name":
            name = value
        elif key == "dof":
            try:
                dof = int(value)
            except ValueError:
                _fail(lineno, f"dof must be an integer, got '{value}'")
        else:
            _fail(lineno, f"unknown [system] key '{key}'")
    if dof is None:
        _fail(0, "missing mandatory [system] entry 'dof'")
    if not 1 <= dof <= MAX_DOF:
        _fail(0, f"dof must lie in 1..{MAX_DOF}, got {dof}")
    space = PhaseSpace.canonical(dof)

    # [poisson]
    if not sections["poisson"]:
        _fail(0, "missing mandatory section [poisson]")
    W = MultiVectorField(space, 2, _components(sections["poisson"], _W_KEY_RE, "W(a,b)", space))

    # [hamiltonian]
    h = None
    for lineno, key, value, col in sections["hamiltonian"]:
        if key != "h":
            _fail(lineno, f"expected 'h = <expr>', got key '{key}'")
        if h is not None:
            _fail(lineno, "duplicate 'h' entry")
        h = _parse_expr(value, space, lineno, col)
    if h is None:
        _fail(0, "missing mandatory [hamiltonian] entry 'h'")

    # [symmetry]
    e_comps = _components(sections["symmetry"], _E_KEY_RE, "E(coord)", space)
    if not e_comps:
        _fail(0, "generator E required: the [symmetry] section is missing or empty")
    E = MultiVectorField(space, 1, e_comps)

    return SystemSpec(space, W, h, E, name)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def builtin_system(name: str, n: int) -> SystemSpec:
    """Built-in examples.

    "dissipative":        W = sum p_i dp_i^dq_i, h = sum (p_i + q_i),
                          E = sum (p_i + q_i)^2 d/dq_i  (non-Noether).
    "canonical-noether":  canonical W, oscillator h = sum (p_i^2 + q_i^2)/2,
                          E = Hamiltonian field of (q_1^2 + p_1^2)/2, the
                          Noether negative control (L_E W = 0 exactly).
    """
    if not 1 <= n <= MAX_DOF:
        raise ValueError(f"n outside 1..{MAX_DOF}: {n}")
    space = PhaseSpace.canonical(n)
    q = [Var(space.names[i], i) for i in range(n)]
    p = [Var(space.names[n + i], n + i) for i in range(n)]

    if name == "dissipative":
        W = MultiVectorField(space, 2, {(i, n + i): -p[i] for i in range(n)})
        h: ScalarExpr = Num(0.0)
        for i in range(n):
            h = h + (p[i] + q[i])
        E = MultiVectorField(space, 1, {(i,): (p[i] + q[i]) ** 2 for i in range(n)})
        return SystemSpec(space, W, h, E, f"dissipative-n{n}")

    if name == "canonical-noether":
        W = MultiVectorField(space, 2, {(i, n + i): Num(-1.0) for i in range(n)})
        h = Num(0.0)
        for i in range(n):
            h = h + (p[i] * p[i] + q[i] * q[i]) / 2.0
        first_mode_energy = (q[0] * q[0] + p[0] * p[0]) / 2.0
        E = hamiltonian_vf(W, first_mode_energy)
        return SystemSpec(space, W, h, E, f"canonical-noether-n{n}")

    raise ValueError(f"unknown builtin '{name}' (try 'dissipative' or 'canonical-noether')")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _error_record(check_id: str, err: Exception) -> CheckRecord:
    # a RecursionError's own text depends on the stack depth at which it was raised
    text = "maximum recursion depth exceeded" if isinstance(err, RecursionError) else err
    return CheckRecord(check_id, PAPER_ANCHORS[check_id], -1.0, 1.0, False, 0, f"error: {text}")


def run_report(
    spec: SystemSpec, cfg: CheckConfig, start: PhasePoint | None = None
) -> CheckReport:
    """Run the full audit: Jacobi, regularity, symmetry, (non-)Noether
    classification, Yang-Baxter, compatibility, spectral routes, conservation
    drift from `start` (default: first sampled regular point), involution.

    Check-level errors are captured in the report, never raised past it:
    a check that raises leaves one failing record for each id it reports.
    """
    W, h, E = spec.W, spec.h, spec.E
    audit = Audit(cfg, W, E)  # every check's config: what the checks share, built once
    records: list[CheckRecord] = []
    samples: tuple = ()

    def run(fn, *check_ids):
        try:
            result = fn()
        except Exception as err:  # noqa: BLE001 - captured into the report
            result = [_error_record(check_id, err) for check_id in check_ids]
        if isinstance(result, CheckRecord):
            records.append(result)
        else:
            records.extend(result)
        return records[-1]

    run(lambda: check_jacobi(W, audit), "jacobi")
    run(lambda: check_regularity(W, audit), "regularity")
    run(lambda: check_symmetry(E, W, h, audit), "symmetry")
    noether_rec = run(lambda: check_non_noether(E, W, audit), "non_noether")
    noether = noether_rec.passed and noether_rec.residual <= cfg.tol * noether_rec.scale
    run(lambda: check_yang_baxter(E, W, audit), "yang_baxter")
    run(lambda: check_compatibility(W, audit.what, audit), "compat_mixed", "compat_deformed")

    def spectral_stage():
        nonlocal samples
        record, samples = check_spectral_routes(W, audit.what, audit)
        return record

    run(spectral_stage, "spectral_routes")
    run(lambda: conservation_drift(W, E, h, audit.points[0] if start is None else start, audit),
        "conservation_drift")
    run(lambda: check_involution(W, E, audit), "involution")

    if noether:
        vacuous = {"spectral_routes", "conservation_drift", "involution"}
        records = [
            replace(r, notes=(r.notes + "; " if r.notes else "") + "vacuous (Noether: deformation vanishes)")
            if r.id in vacuous
            else r
            for r in records
        ]

    return CheckReport(spec.name, cfg, tuple(records), samples)
