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
from pathlib import Path

import pytest

from binoether.systems import SystemSpec, builtin_system, load_system, run_report
from binoether.verify import CheckConfig
from helpers import dense_frame_fields

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

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
}


def report_text(stem: str) -> str:
    return run_report(CASES[stem](), CheckConfig()).to_json() + "\n"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_report_matches_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_text(stem) == expected


def moved_values(old, new, path="$"):
    """(JSON path, old, new) of every leaf value that differs between two
    parsed JSON documents; a key or list entry on one side only is a leaf
    whose missing side reads None."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [move for key in {**old, **new}
                for move in moved_values(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list):
        padded = max(len(old), len(new))
        old, new = old + [None] * (padded - len(old)), new + [None] * (padded - len(new))
        return [move for k, (a, b) in enumerate(zip(old, new))
                for move in moved_values(a, b, f"{path}[{k}]")]
    return [] if old == new and type(old) is type(new) else [(path, old, new)]


def test_moved_values_name_each_changed_leaf():
    old = {"checks": [{"residual": 1.0, "notes": "a"}], "verdict": "pass"}
    new = {"checks": [{"residual": 2.0, "notes": "a"}, {"id": "x"}], "verdict": "pass"}
    assert moved_values(old, new) == [("$.checks[0].residual", 1.0, 2.0),
                                      ("$.checks[1]", None, {"id": "x"})]
    assert moved_values(new, new) == []


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
