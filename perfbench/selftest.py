"""Small-size self-test of the benchmark harness (about half a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics the harness
reports; that a phi job at p = 10007 prints every end-to-end and
per-layer metric by name and unit, with tracing off and on; that at two
threads no job starts more worker threads than nproc; that every traced
function is found in the package; and that a bad argv counts as a failed
job instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from run import END_TO_END, ROOT, run_workload
from workloads import ALL, PER_LAYER, RUN_LAYER, Workload

SMALL = (
    "phi", "--p", "10007", "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
    "--window", "20", "--block", "4", "--trials", "50",
)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def run_quietly(w: Workload, trace: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run_workload(w, seed=1, seconds=0, trace=trace)
    return result, buf.getvalue()


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(ALL), "workload names")
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(e2e == END_TO_END, f"end_to_end metrics {e2e}")
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(layers == [(m, u) for m, u, *_ in PER_LAYER] + RUN_LAYER, "per_layer metrics")


def check_reports(threads: str) -> None:
    w = Workload("small", SMALL + ("--threads", threads), True, "", lambda r: None, "")
    result, text = run_quietly(w, trace=False)
    expect(result["correct"] and result["failed"] == 0, f"untraced small job: {text}")
    for name, unit in END_TO_END:
        value = result["metrics"][name]
        expect(value == {"value": value["value"], "unit": unit} and value["value"] > 0, name)
        expect(f"  {name} " in text, f"{name} is not printed")
    result, text = run_quietly(w, trace=True)
    expect(result["correct"], f"traced small job: {text}")
    metrics = result["metrics"]
    units = [(m, u) for m, u, *_ in PER_LAYER] + RUN_LAYER
    expect([(k, v["unit"]) for k, v in metrics.items()] == units, "per-layer metric names")
    for name in ("ffield.pow_mod_vec.calls", "polyff.eval_vec.elements", "rwalk.block_types.types"):
        expect(metrics[name]["value"] > 0, f"{name} recorded no work")
    expect(metrics["trace.missing_spans"]["value"] == 0, f"missing spans: {text}")
    workers = metrics["cli.worker_threads"]["value"]
    expect(workers <= len(os.sched_getaffinity(0)), f"{workers} worker threads")
    expect(threads == "1" or workers >= 1, "the thread pool was not traced")


def check_bad_argv() -> None:
    bad = SMALL[:2] + ("10008",) + SMALL[3:]  # 10008 is not prime: exit code 1
    w = Workload("bad", bad, True, "", lambda r: None, "")
    result, text = run_quietly(w, trace=False)
    expect(not result["correct"], "a failing job was reported correct")
    expect(result["failed"] == result["attempted"] >= 1, f"failures not counted: {result}")
    expect("error_rate 1.0000" in text, "error_rate not printed")


def check_tracer_finds_targets() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    tracer = Tracer().install()
    expect(not tracer.missing, f"traced functions not found: {tracer.missing}")


def main() -> int:
    check_benchmark_json()
    check_reports("1")
    check_reports("2")
    check_bad_argv()
    check_tracer_finds_targets()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
