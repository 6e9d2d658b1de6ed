"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload audit-sparse --seed 1 --seconds 15 --trace 0

Run it from anywhere in a checkout of the repository: the library is
imported from the checkout's src/ directory, and generated inputs, traces
and logs go to .perfbench_out/ at its root.  With --trace 0 the last line of
standard output holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads: runs stay single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402 - these load numpy
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, layer_figures  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_EVERY = 1.0  # seconds of the run per set-up
MIN_PASSES = 2
STAGES = ("sample", "jacobi", "regularity", "symmetry", "non_noether", "yang_baxter",
          "compat", "routes", "drift", "involution")
LAYERS = ("systems", "verify", "geometry", "spectral", "expr")


def purge_binoether() -> dict:
    """Remove binoether's modules from sys.modules and return them."""
    names = [m for m in sys.modules if m == "binoether" or m.startswith("binoether.")]
    return {name: sys.modules.pop(name) for name in names}


class SetUps:
    """The workload's set-ups and their times, scaled to the reference host
    speed by a reading of the kernel taken right after each.

    A set-up imports binoether afresh from SRC, with its modules purged from
    sys.modules so that the import is paid again, and builds every system or
    pencil of the workload.  The first set-up's modules and systems are the
    ones the operations use; later set-ups put them back in sys.modules when
    they are done.  After the first, one set-up is taken per SETUP_EVERY
    seconds of the run, in the next gap between two operations of an
    untraced pass, so that their median spans the whole run rather than one
    moment of the host."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.last = 0.0

    def run(self):
        saved = purge_binoether()
        t0 = time.perf_counter()
        bino = importlib.import_module("binoether")
        built = self.workload.build(bino)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed * hostspeed.scale(hostspeed.burst()))
        if not Path(bino.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"binoether was imported from {bino.__file__}, not from {SRC}")
        if saved:
            purge_binoether()
            sys.modules.update(saved)
            gc.collect()
        self.last = time.perf_counter()
        return bino, built

    def when_due(self):
        for _ in range(int((time.perf_counter() - self.last) / SETUP_EVERY)):
            self.run()


def run_pass(ops, tracer=None, between=None, sampler=None) -> tuple[float, float, int, int]:
    """Run every operation once, calling ``between`` before each; returns
    (seconds in timed program calls, the same scaled to the reference host
    speed, attempted, failed).  The checks run outside the clock.  With a
    sampler the host speed is read during the calls and the kernel's time is
    taken out of theirs; without one (traced passes) the two times agree."""
    gc.collect()
    wall, failed = 0.0, 0
    first = len(sampler.samples) if sampler else 0
    for op in ops:
        if between is not None:
            between()
        try:
            if tracer is not None and op.span is not None:
                with tracer.installed():
                    t0 = time.perf_counter()
                    result = tracer.call(op.span, op.call)
                    elapsed = time.perf_counter() - t0
            elif sampler is not None:
                with sampler.running():
                    spent = sampler.spent
                    t0 = time.perf_counter()
                    result = op.call()
                    elapsed = time.perf_counter() - t0 - (sampler.spent - spent)
            else:
                t0 = time.perf_counter()
                result = op.call()
                elapsed = time.perf_counter() - t0
            if op.timed:
                wall += elapsed
            op.check(result)
        except Exception as err:  # noqa: BLE001 - every failure is counted and logged
            failed += 1
            print(f"perfbench: {op.label}: {type(err).__name__}: {err}", file=sys.stderr)
    if sampler is None:
        return wall, wall, len(ops), failed
    samples = sampler.samples[first:]
    if len(samples) < hostspeed.BURST:
        samples += hostspeed.burst()
    return wall, wall * hostspeed.scale(samples), len(ops), failed


def cli_check() -> tuple[float, str | None]:
    """Wall time of `binoether check` on the n = 1 builtin, run as a
    subprocess, and the reason it failed (None when it passed)."""
    cmd = [sys.executable, "-m", "binoether.cli", "check", "--builtin", "dissipative", "--n", "1"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "timed out"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or "verdict: pass" not in proc.stdout:
        return elapsed, f"exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return elapsed, None


def layer_metrics(tracer, k: int, untraced, traced) -> dict[str, float]:
    """Per-layer figures from the spans of k traced passes."""
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def mean_us(name):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    m = {f"verify.{s}_s": get(f"verify.{s}", "self_s") / k for s in STAGES}
    steps = tracer.counts["rk4_steps"]
    m["verify.flow_s"] = get("verify.flow", "total_s") / k
    m["verify.rk4_steps"] = steps / k
    m["verify.rk4_step_us"] = get("verify.flow", "total_s") / steps * 1e6 if steps else 0.0
    reports = get("systems.run_report", "calls")
    m["verify.sample_calls"] = get("verify.sample", "calls") / reports if reports else 0.0
    m["geometry.lie_s"] = get("geometry.lie", "total_s") / k
    m["geometry.schouten_s"] = get("geometry.schouten", "total_s") / k
    m["geometry.evaluate_mv_us"] = mean_us("geometry.evaluate_mv")
    m["expr.jet_us"] = mean_us("expr.evaluate_jet")
    own = tracer.layer_self()
    m.update({f"{layer}.self_s": own.get(layer, 0.0) / k for layer in LAYERS})
    base = statistics.median(untraced)
    m["trace.overhead_pct"] = (statistics.median(traced) - base) / base * 100.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "binoether" / "__init__.py").is_file():
        print(f"perfbench: no binoether sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, OUT)
    setups = SetUps(workload)
    bino, built = setups.run()
    ops = workload.ops(bino, built)

    attempted = failed = 0
    untraced, scaled, traced = [], [], []
    tracer = Tracer() if args.trace else None
    sampler = hostspeed.Sampler()
    deadline = time.perf_counter() + args.seconds
    with sampler.installed():
        while True:
            started = time.perf_counter()
            wall, wall_scaled, a, f = run_pass(ops, between=setups.when_due, sampler=sampler)
            untraced.append(wall)
            scaled.append(wall_scaled)
            attempted, failed = attempted + a, failed + f
            print(f"perfbench: pass {len(untraced)}: {wall:.4f} s, scaled {wall_scaled:.4f} s",
                  file=sys.stderr)
            if tracer:
                wall, _, a, f = run_pass(ops + list(workload.probe_ops), tracer)
                traced.append(wall)
                attempted, failed = attempted + a, failed + f
                print(f"perfbench: traced pass {len(traced)}: {wall:.4f} s", file=sys.stderr)
            # start another round only if it should end before the deadline
            enough = len(traced) >= 1 if tracer else len(untraced) >= MIN_PASSES
            if enough and 2 * time.perf_counter() - started > deadline:
                break

    print(f"perfbench: {len(setups.times)} set-ups", file=sys.stderr)
    if tracer:
        metrics = layer_metrics(tracer, len(traced), untraced, traced)
        metrics.update(layer_figures(bino, workload.layer_cases(bino)))
        metrics["systems.load_s"] = statistics.median(workload.load_times)
        metrics["cli.check_s"], error = cli_check()
        attempted += 1
        if error:
            failed += 1
            print(f"perfbench: cli check: {error}", file=sys.stderr)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setups.times),
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
