"""Golden report JSON: the builtins and the shipped system files, audited at
the default config, must serialize to exactly the bytes stored under
tests/golden/.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change log.  To list every value that would move (file,
JSON path, old -> new) without rewriting anything, run

    PYTHONPATH=src python tests/test_golden.py --moved
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from binoether import expr, geometry, spectral, verify
from binoether.geometry import MultiVectorField
from binoether.systems import SystemSpec, builtin_system, load_system, run_report
from binoether.verify import CheckConfig
from helpers import dense_frame_fields

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

N1_SYSTEM = ("[system]\nname = {name}\ndof = 1\n[poisson]\nW(q1,p1) = {w}\n[hamiltonian]\n"
             "h = {h}\n[symmetry]\nE(q1) = {e}\n")


def loaded(text: str) -> SystemSpec:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.sys"
        path.write_text(text, encoding="utf-8")
        return load_system(path)


def n1(name, w="-p1", h="p1 + q1", e="(p1 + q1)^2"):
    """A one-degree-of-freedom system file, the dissipative one where not given."""
    return lambda: loaded(N1_SYSTEM.format(name=name, w=w, h=h, e=e))


def zero_w():
    spec = builtin_system("dissipative", 1)
    return SystemSpec(spec.space, MultiVectorField.zero(spec.space, 2), spec.h, spec.E, "zero-w")


# golden file stem -> system; the .sys reports get a "sys-" prefix because
# systems/dissipative-n2.sys reports under the same name as the builtin
CASES = {
    "dissipative-n1": lambda: builtin_system("dissipative", 1),
    "dissipative-n2": lambda: builtin_system("dissipative", 2),
    "dissipative-n3": lambda: builtin_system("dissipative", 3),
    # the only golden case that runs the 12x12 pencil path
    "dissipative-n6": lambda: builtin_system("dissipative", 6),
    "canonical-noether-n1": lambda: builtin_system("canonical-noether", 1),
    "canonical-noether-n2": lambda: builtin_system("canonical-noether", 2),
    "sys-dissipative-n2": lambda: load_system(ROOT / "systems" / "dissipative-n2.sys"),
    "sys-broken-generator-n1": lambda: load_system(ROOT / "systems" / "broken-generator-n1.sys"),
    # coupled generators: N not normal, and (swap) a non-real secular spectrum
    "sys-coupled-product-n2": lambda: load_system(ROOT / "systems" / "coupled-product-n2.sys"),
    "sys-coupled-squares-n2": lambda: load_system(ROOT / "systems" / "coupled-squares-n2.sys"),
    "sys-coupled-swap-n2": lambda: load_system(ROOT / "systems" / "coupled-swap-n2.sys"),
    # the only golden case whose trees are large and share subtree objects
    "dense-frame-n2": lambda: SystemSpec(*dense_frame_fields(2, seed=7), "dense-frame-n2"),
    # systems whose reports hold error records, which pin the error texts:
    # no regular point; 3000 nested sums exceed the recursion limit; sin of
    # an inf literal product; W = 1e200 squares past the float range in
    # ||W|| and gives an infinite deformation; N = W^-1 What is inf at
    # n = 1 and at n = 2; the field overflows to inf in the first step;
    # the pencil's node scale 1e100 overflows in its fourth power; What's
    # squares are finite, but their sum overflows
    "error-zero-w": zero_w,
    "error-deep-sum": n1("deep-sum", w="-(" + " + ".join(["p1"] * 3000) + ")/3000"),
    "error-literal-product": n1("literal-product", w="2 + sin((1e200*q1)*(1e200*q1))"),
    "error-norm-overflow": n1("norm-overflow", w="1e200", e="1e200*q1"),
    "error-nonfinite-n1": n1("nonfinite-n1", e="(1e10*q1)/1e-300"),
    "error-nonfinite-n2": lambda: loaded(
        "[system]\nname = nonfinite-n2\ndof = 2\n[poisson]\nW(q1,p1) = -p1\nW(q2,p2) = -p2\n"
        "[hamiltonian]\nh = p1 + q1 + p2 + q2\n[symmetry]\nE(q1) = (1e10*q1)/1e-300\n"
        "E(q2) = (p2 + q2)^2\n"),
    "error-field-overflow": n1("field-overflow", w="1", h="p1*p1*1e300*1e300"),
    "error-ln-domain": n1("ln-domain", e="(p1 + q1)^2 + ln(q1 + 1.5)"),
    "error-norm-sum-overflow": n1("norm-sum-overflow", w="1", h="p1", e="1e150*q1^5"),
    "error-node-power": lambda: loaded(
        "[system]\nname = node-power\ndof = 4\n[poisson]\n"
        + "".join(f"W(q{i},p{i}) = -1e-30\n" for i in range(1, 5)) + "[hamiltonian]\nh = p1\n"
        "[symmetry]\n" + "".join(f"E(q{i}) = q{i}*q{i}*1e110\n" for i in range(1, 5))),
}


def report_text(stem: str) -> str:
    return run_report(CASES[stem](), CheckConfig()).to_json() + "\n"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_report_matches_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_text(stem) == expected


@pytest.mark.parametrize("stem", ["dense-frame-n2", "dissipative-n3"])
def test_a_report_compiles_no_point_kernel(monkeypatch, stem):
    # a report takes every value on batched routes: its fields are new in each
    # report, so a point kernel compiled there would serve one use
    def refuse(exprs, dim):
        raise AssertionError("a report compiled a point kernel")

    monkeypatch.setattr(geometry, "compile_kernel", refuse)
    assert report_text(stem) == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", ["dense-frame-n2", "dissipative-n3"])
def test_a_report_builds_no_bracket_tree_and_evaluates_each_field_once(monkeypatch, stem):
    # the brackets are contracted from each field's arrays at the samples: no
    # report builds a Schouten trivector or the tree of [E, X], and outside
    # the sampling, evaluate_batch runs at the samples only for the fields'
    # arrays, each field in exactly one call
    def refuse(*fields):
        raise AssertionError("a report built a bracket tree")

    def lie_derivative(E, A):
        if A.degree == 1:
            refuse()
        fields.append(geometry.lie_derivative_mv(E, A))
        return fields[-1]

    def hamiltonian(V, f):
        fields.append(geometry.hamiltonian_vf(V, f))
        return fields[-1]

    def sampled(W, cfg, sample=verify.sample_regular_points):
        nonlocal sampling
        sampling = True
        try:
            return sample(W, cfg)
        finally:
            sampling = False

    def at_the_samples(states):
        return not sampling and len(states) == CheckConfig().samples

    def counted(exprs, states):
        if at_the_samples(states):
            calls.append("evaluate_batch")
        return expr.evaluate_batch(exprs, states)

    def arrays(evaluated, states, partials=True):
        if at_the_samples(states):
            calls.append(list(evaluated))
        return geometry.field_arrays(evaluated, states, partials)

    spec = CASES[stem]()
    fields, calls, sampling = [spec.W, spec.E], [], False
    for module in (geometry, verify):
        monkeypatch.setattr(module, "schouten_bb", refuse)
    monkeypatch.setattr(verify, "lie_derivative_mv", lie_derivative)
    monkeypatch.setattr(verify, "hamiltonian_vf", hamiltonian)
    monkeypatch.setattr(verify, "sample_regular_points", sampled)
    for module in (geometry, spectral, verify):
        monkeypatch.setattr(module, "evaluate_batch", counted)
    monkeypatch.setattr(verify, "field_arrays", arrays)
    report = run_report(spec, CheckConfig()).to_json() + "\n"
    assert report == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    # one field_arrays call, and in it one evaluate_batch call, per check
    # that meets new fields: jacobi, symmetry, non_noether and yang_baxter
    evaluated = [F for call in calls[::2] for F in call]
    assert calls[1::2] == ["evaluate_batch"] * 4 and len(calls) == 8
    # W, E, then as built: the symmetry check's X = W(h), W_hat, L_E L_E W,
    # and the flow's own X, which it evaluates along the trajectory alone
    assert [sum(F is G for G in evaluated) for F in fields] == [1, 1, 1, 1, 1, 0]


def moved_values(old, new, path="$"):
    """(JSON path, old, new) of every leaf value that differs between two
    parsed JSON documents; a key or list entry on one side only is a leaf
    whose missing side reads None.  Leaves compare as they serialize, so a
    NaN that stays NaN has not moved."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [move for key in {**old, **new}
                for move in moved_values(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list):
        padded = max(len(old), len(new))
        old, new = old + [None] * (padded - len(old)), new + [None] * (padded - len(new))
        return [move for k, (a, b) in enumerate(zip(old, new))
                for move in moved_values(a, b, f"{path}[{k}]")]
    same = json.dumps(old) == json.dumps(new) and type(old) is type(new)
    return [] if same else [(path, old, new)]


def test_moved_values_name_each_changed_leaf():
    old = {"checks": [{"residual": 1.0, "notes": "a"}], "verdict": "pass"}
    new = {"checks": [{"residual": 2.0, "notes": "a"}, {"id": "x"}], "verdict": "pass"}
    assert moved_values(old, new) == [("$.checks[0].residual", 1.0, 2.0),
                                      ("$.checks[1]", None, {"id": "x"})]
    assert moved_values(new, new) == []
    assert moved_values({"scale": float("nan")}, {"scale": float("nan")}) == []
    assert moved_values([0.0], [-0.0]) == [("$[0]", 0.0, -0.0)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--moved"]:
        for stem in sorted(CASES):
            golden = GOLDEN / f"{stem}.json"
            old = json.loads(golden.read_text(encoding="utf-8")) if golden.exists() else None
            for path, a, b in moved_values(old, json.loads(report_text(stem))):
                print(f"{golden.name}: {path}: {json.dumps(a)} -> {json.dumps(b)}")
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    for stem in sorted(CASES):
        (GOLDEN / f"{stem}.json").write_text(report_text(stem), encoding="utf-8")
        print(f"wrote {stem}.json")
