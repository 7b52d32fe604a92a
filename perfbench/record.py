"""Repeat benchmark runs over several seeds and summarize their spread.

Usage, from the root of a checkout:

    python3 perfbench/record.py --workloads scan,joint --seeds 1-10 \\
        [--trace-seeds 1] [--out perfbench/baseline.json]

Each run is ``perfbench/run.py`` with BENCHMARK.json's run_seconds.  For
every end-to-end metric the summary gives the ten values, their median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the metric's bound.  Traced
runs add the per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    machine = next(json.loads(ln[9:]) for ln in lines if ln.startswith("machine: "))
    return machine, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="untraced runs, e.g. 1-10")
    ap.add_argument("--trace-seeds", default="", help="traced runs, e.g. 1")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in args.workloads.split(","):
        entry = summary["workloads"].setdefault(name, {"end_to_end": {}, "per_layer": {}})
        runs = []
        for seed in _seeds(args.seeds):
            summary["machine"], res = one_run(name, seed, bench["run_seconds"], 0)
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)
        entry["all_correct"] = all(r["correct"] for r in runs)
        for metric in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bounds[metric], "values": values,
            }
            print(f"  {name} {metric}: median {med:.4f}, spread {(q3 - q1) / med:.4f} "
                  f"(bound {bounds[metric]})", flush=True)
        traced = [one_run(name, seed, bench["run_seconds"], 1)[1] for seed in _seeds(args.trace_seeds)]
        if traced:
            entry["traced_all_correct"] = all(r["correct"] for r in traced)
        for metric in (traced[0]["metrics"] if traced else {}):
            entry["per_layer"][metric] = {
                "unit": traced[0]["metrics"][metric]["unit"],
                "median": statistics.median(r["metrics"][metric]["value"] for r in traced),
            }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
