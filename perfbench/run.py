"""The curvestats benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of scan, scan-t2, joint, verify, or ``all`` to run each in
turn.  Jobs run one at a time, each in a fresh Python process (a closed
loop with one client), for S seconds and at least MIN_JOBS jobs.  Every
job's output is checked; a job that exits nonzero, raises, or fails a
check counts as failed.  With ``--trace 0`` the run reports the
end-to-end metrics (medians over the jobs); with ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics
of the traced ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ALL, DEFAULT_SEED, PER_LAYER, RUN_LAYER, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 10  # start-up-only children per run, besides the start-up of each job
MIN_JOBS = 3
LAST_START_S = 120  # no job starts later than this into a run
RUN_LIMIT_S = 170  # a job still running this long into a run is killed and fails
# Children cache bytecode inside the checkout, as an installed package
# would have it cached, whatever the caller's PYTHONDONTWRITEBYTECODE.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPYCACHEPREFIX": str(ROOT / ".bench_build" / "pycache"),
}

END_TO_END = [
    ("job_s", "s"),  # wall time of cli.run, timed inside the child
    ("setup_s", "s"),  # child start until numpy and curvestats are imported
    ("cpu_s", "s"),  # user + system CPU time of cli.run
    ("peak_rss_mb", "MB"),  # peak resident memory of the child
]


def spawn(argv: list[str] | None, trace: bool = False, timeout: float = 60.0) -> dict:
    """Run one job (or, with argv None, only the start-up) in a new process."""
    spec = {"src": str(ROOT / "src"), "argv": argv, "trace": trace, "t0": time.perf_counter()}
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {timeout:.1f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    return json.loads(lines[-1])


def check(w: Workload, job: dict, seed: int) -> str | None:
    """Why the job failed, or None when its output is correct."""
    if "error" in job:
        return job["error"]
    try:
        error = w.check(job["report"])
    except (KeyError, TypeError, IndexError) as e:
        error = f"report lacks an expected field: {e!r}"
    if error is None and (seed == DEFAULT_SEED or not w.seeded) and job["sha256"] != w.sha256:
        error = f"canonical report sha256 {job['sha256']}, want {w.sha256}"
    return error


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": _commit()}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Run:
    """The jobs of one workload run and the failures among them."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.jobs: list[dict] = []
        self.errors: list[str] = []
        self.probes = 0
        self.setups: list[float] = []  # setup_s of the start-up-only children
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def probe(self) -> None:
        """Time one start-up-only child."""
        self.probes += 1
        setup_s = spawn(None, timeout=self._timeout()).get("setup_s")
        if setup_s is not None:
            self.setups.append(setup_s)

    def job(self, argv: list[str], kind: str = "untraced") -> None:
        """Run and check one job; kind is untraced, traced or reference."""
        job = spawn(argv, kind == "traced", self._timeout())
        job["kind"] = kind
        error = check(self.w, job, self.seed)
        if error is not None:
            self.errors.append(error)
            print(f"  job failed: {error}", flush=True)
        elif self.jobs and "sha256" in self.jobs[0] and job["sha256"] != self.jobs[0]["sha256"]:
            self.errors.append("canonical report differs from the run's first job")
            print(f"  job failed: {self.errors[-1]}", flush=True)
        self.jobs.append(job)

    def loop(self, seconds: float, traced: bool) -> None:
        """Jobs back to back (traced ones alternating in) while the next
        one is expected to end within the time, and at least MIN_JOBS.
        Untraced runs spread SETUP_PROBES start-up probes over the run:
        one before each job, the rest at the end."""
        start = time.perf_counter()
        argv = self.w.command(self.seed)
        step = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LAST_START_S or (
                len(self.jobs) >= MIN_JOBS and elapsed + step > seconds
            ):
                break
            t = time.perf_counter()
            if not traced and self.probes < SETUP_PROBES:
                self.probe()
            self.job(argv)
            if traced:
                self.job(argv, "traced")
            step = time.perf_counter() - t
        while not traced and self.probes < SETUP_PROBES:
            self.probe()
        if self.w.reference is not None:
            self.job(self.w.command(self.seed, self.w.reference), "reference")

    def samples(self, key: str, kind: str = "untraced") -> list[float]:
        return [j[key] for j in self.jobs if key in j and j["kind"] == kind]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    out = {key: _median(run.samples(key)) for key, _ in END_TO_END}
    out["setup_s"] = _median(run.setups + run.samples("setup_s"))
    return out


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    traced = [j for j in run.jobs if j["kind"] == "traced" and "spans" in j]
    out, missing = {}, set()
    for metric, _, span, field, on in PER_LAYER:
        values = [j["spans"].get(span, {}).get(field, 0) for j in traced]
        out[metric] = _median(values)
        if run.w.name in on and not all(j["spans"].get(span, {}).get("calls") for j in traced):
            missing.add(span)
    for j in traced:
        missing.update(j["missing"])
    out["cli.worker_threads"] = max((j["max_threads"] - 1 for j in traced), default=0)
    out["trace.overhead_s"] = _median(run.samples("job_s", "traced")) - _median(run.samples("job_s"))
    out["trace.missing_spans"] = len(missing)
    return out, sorted(missing)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object."""
    print(f"workload {w.name}: {' '.join(w.command(seed))}", flush=True)
    print(f"  why: {w.why}", flush=True)
    run = Run(w, seed)
    run.loop(seconds, trace)
    if trace:
        metrics, missing = per_layer(run)
        units = {m: u for m, u, *_ in PER_LAYER} | dict(RUN_LAYER)
        if missing:
            print(f"  trace self-check: no call recorded for {', '.join(missing)}")
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
    n_timed = len(run.samples("job_s", "traced" if trace else "untraced"))
    for name, value in metrics.items():
        n = n_timed + len(run.setups) * (name == "setup_s")
        print(f"  {name:42s} {value:14.6g} {units[name]:5s} median of {n}")
    job_s = run.samples("job_s")
    if job_s and not trace:
        print(f"  job_s min {min(job_s):.4f} s, max {max(job_s):.4f} s")
    attempted, failed = len(run.jobs), len(run.errors)
    print(f"  error_rate {failed / max(attempted, 1):.4f} ({failed} of {attempted} jobs failed)")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*ALL, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "curvestats" / "cli.py").is_file():
        print(f"no curvestats sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    info = machine()
    probe = spawn(None)  # also fills the bytecode and file caches before timing
    if "error" in probe:
        print(f"cannot start curvestats: {probe['error']}", file=sys.stderr)
        return 2
    info.update(python=probe["python"], numpy=probe["numpy"])
    print("machine: " + json.dumps(info), flush=True)
    names = ALL if args.workload == "all" else (args.workload,)
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
