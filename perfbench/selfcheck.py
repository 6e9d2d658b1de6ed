"""Run each workload repeatedly and report the run-to-run spread of every
end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/selfcheck.py

Every workload of BENCHMARK.json runs in two sets of ten runs, the first
with seeds 1-10, the second with seeds 11-20.  Each run is one `run.py`
process, started only after the previous one has ended.  The spread of a metric is the distance
between the first and third quartile of its values, as a share of their
median.  The second set is compared with the first: its median may not
differ from the first's by more than the bound, in either direction, and
the share of failed operations must be the same.  The exit code is 1 when a
spread exceeds its bound, a comparison fails or an output is incorrect.
Results also go to .perfbench_out/selfcheck-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results: dict = {}
    ok = True
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(RUNS):
                seed = s * RUNS + i + 1
                t0 = time.perf_counter()
                runs.append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} {w} seed {seed}: {time.perf_counter() - t0:.1f} s "
                      f"{ {k: round(v['value'], 4) for k, v in runs[-1]['metrics'].items()} }",
                      flush=True)
            results.setdefault(w, []).append(runs)

    print(f"\n{'workload':14} {'metric':12} {'set':>3} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for w, sets in results.items():
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        if any(not r["correct"] for runs in sets for r in runs) or len(set(shares)) > 1:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                med, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                verdict = "steady" if sp <= bound / 3 else "within" if sp <= bound else "WIDE"
                if sp > bound:
                    ok = False
                shift = ""
                if s:
                    worse = (med - medians[0]) / medians[0]
                    worse = worse if m["better"] == "lower" else -worse
                    shift = f"  vs set 1: {worse:+.3f}"
                    if abs(worse) > bound:
                        ok, shift = False, shift + " APART"
                print(f"{w:14} {name:12} {s + 1:>3} {med:12.6g} {sp:8.4f} {bound:6.3f}  {verdict}{shift}")
        print(f"{w:14} failed shares per set: {shares}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"selfcheck-{int(time.time())}.json").write_text(json.dumps(results), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
