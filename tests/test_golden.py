"""Golden report JSON: the builtins and the shipped system files, audited at
the default config, must serialize to exactly the bytes stored under
tests/golden/.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change log.
"""

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
    # the only golden case whose trees are large and share subtree objects
    "dense-frame-n2": lambda: SystemSpec(*dense_frame_fields(2, seed=7), "dense-frame-n2"),
}


def report_text(stem: str) -> str:
    return run_report(CASES[stem](), CheckConfig()).to_json() + "\n"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_report_matches_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_text(stem) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in sorted(CASES):
        (GOLDEN / f"{stem}.json").write_text(report_text(stem), encoding="utf-8")
        print(f"wrote {stem}.json")
