#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds N] [--first S]
        Run every workload on N seeds (default 10) with tracing off and
        report, per end-to-end metric, the median and the quartile
        spread (Q3 - Q1) / median against the metric's bound.
    python3 perfbench/check.py seeds
        Run every workload on two seeds, traced and untraced: each run
        must pass every output check (failed_frac = 0) and print exactly
        the metrics BENCHMARK.json names. The traced runs go twice on the
        first seed, so the harness also checks that the work counts repeat.

Seconds per run come from BENCHMARK.json. Exits non-zero when a check
fails.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
MAX_SPAWN_SHARE = 0.2


def run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return done.returncode, result, meta


def arg(name, default):
    return sys.argv[sys.argv.index(name) + 1] if name in sys.argv else default


def spread():
    workloads = arg("--workloads", ",".join(w["name"] for w in SPEC["workloads"])).split(",")
    seeds = int(arg("--seeds", "10"))
    first = int(arg("--first", "1"))
    ok = True
    for w in workloads:
        values = {}
        for seed in range(first, first + seeds):
            code, result, _ = run(w, seed, 0)
            if code != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {seeds} seeds from {first}")
        for e in SPEC["end_to_end"]:
            v = values.get(e["name"], [])
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            rel = (q3 - q1) / med
            verdict = "ok" if rel < e["bound"] / 3 else ("within bound" if rel <= e["bound"] else "TOO NOISY")
            if rel > e["bound"]:
                ok = False
            print(f"  {e['name']:<14} median {med:<14.6g} spread {rel:7.4f} bound {e['bound']:.3f}  {verdict}")
    return ok


def seeds():
    expected = {0: {e["name"] for e in SPEC["end_to_end"]}, 1: {p["name"] for p in SPEC["per_layer"]}}
    ok = True
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, seed in [(0, 1), (0, 2), (1, 1), (1, 1), (1, 2)]:
            code, result, meta = run(w, seed, trace)
            good = (code == 0 and result is not None and result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == expected[trace])
            # Set-up must time program work, not process spawn.
            good &= meta.get("spawn_share_of_setup", 0) < MAX_SPAWN_SHARE
            ok &= good
            print(f"{w} seed {seed} trace {trace}: {'ok' if good else 'FAILED'}"
                  + ("" if result is None else f" ({result['failed']} of {result['attempted']} failed)"))
    return ok


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode not in ("spread", "seeds"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if (spread() if mode == "spread" else seeds()) else 1)
