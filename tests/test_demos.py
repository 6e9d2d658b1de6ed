"""Demo output: each demos/0*.py, run as a script with src/ on the path,
must exit 0 and print exactly the text stored under tests/golden/demos/.

A change that alters a demo's output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_demos.py

and says so in its change log.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(demo: Path) -> str:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_golden_output(demo):
    assert run_demo(demo) == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_text(run_demo(demo), encoding="utf-8")
        print(f"wrote {demo.stem}.txt")
