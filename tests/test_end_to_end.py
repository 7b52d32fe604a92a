"""End-to-end runs of the command line and the demos, each in a fresh process.

The large-field rows run at p near 10^7 and past the 2^24 table limit.
Each row gives a command, the thread counts it runs at (none: the
command takes no --threads), a reader of the canonical report with the
value it must give at every thread count, a peak-RSS bound in MB (or
None) and a time limit in seconds for all of its runs.  Canonical
reports must be byte-identical across the thread counts.

Peak RSS is read by a small launcher that imports no numpy: a child
forked from this process would start with pytest's resident size in its
ru_maxrss, which exec keeps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvestats
from curvestats.cli import canonical_json

SRC = str(Path(curvestats.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
DEMOS = sorted(Path(__file__).resolve().parents[1].glob("demos/*.py"))

# argv: a JSON list of commands and a deadline in seconds for all of them;
# prints their outputs and the largest peak RSS among them in MB
LAUNCHER = """
import json, resource, subprocess, sys, time
commands, deadline = json.loads(sys.argv[1]), time.monotonic() + float(sys.argv[2])
outs = [subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True,
                       timeout=deadline - time.monotonic()).stdout for argv in commands]
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"outs": outs, "peak_mb": peak_mb}))
"""

RECT = "--p 10000019 --ell 2 --poly 0,1 --y-lo 1 --y-hi 5000009"

# past 2^24 the empty-window count walks the field in tiles (704 MB with
# arrays over the whole field); at ell = 2 the class tests read the 2 MB
# bitmap of squares and build no 16 MB index table (both peaked at 50 MB);
# the beta scan tallies its tiles and holds no array as long as its
# y-interval (270 MB with per-window arrays, 184 MB with interval-long
# ones), nor do the restricted rectangle or the shifted census (366 MB);
# criteria 2, 7, 8, 9 and 10 pass --threads to the scans and the model
RUNS = {
    "gaps-past-2^24": (
        "gaps --p 16777259 --ell 2 --mu 1 --window 10,20", (),
        lambda r: [c["count"] for c in r["counts"]], [16226, 29], 150, 60,
    ),
    "gaps-squares-bitmap": (
        "gaps --p 16777213 --ell 2 --mu 1 --window 10,20,40,80", (),
        lambda r: [c["count"] for c in r["counts"]], [16576, 16, 0, 0], 44, 60,
    ),
    "phi": (
        "phi --p 10000019 --ell 2 --poly 1,1,0,1 --m 3 --window 50 --block 5 --trials 500 --seed 0",
        (1, 2),
        lambda r: (r["histogram"]["counts"], (r["discrepancy"]["num"], r["discrepancy"]["den"])),
        ([3331645, 3333795, 3334524], (6721291, 149998920001944)), None, 60,
    ),
    "beta": (
        "beta --p 10000019 --beta 1/2 --m 3 --window 50", (1, 2),
        lambda r: (r["r_histogram"]["counts"], r["n_histogram"]["counts"]),
        ([3332990, 3333989, 3332990],) * 2, 80, 60,
    ),
    "restricted": (
        f"restricted {RECT} --m 3 --window 100 --block 10 --trials 50 --seed 0", (1, 2),
        lambda r: r["histogram"]["counts"], [3330937, 3330939, 3338033], 80, 60,
    ),
    "shifted": (
        f"shifted {RECT} --offsets 0,1 --stride 1", (),
        lambda r: (r["count"], r["positions"], r["boundary_miss"]), (2500004, 10000019, 0), 80, 60,
    ),
    "verify": ("verify --only 2,7,8,9,10", (1, 2), lambda r: r["all_passed"], True, None, 120),
}


@pytest.mark.parametrize("command, threads, read, want, rss_mb, limit_s", RUNS.values(), ids=RUNS)
def test_large_field_run(command, threads, read, want, rss_mb, limit_s):
    argv = [sys.executable, "-m", "curvestats.cli", *command.split()]
    commands = [[*argv, "--threads", str(t)] for t in threads] or [argv]
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, json.dumps(commands), str(limit_s)],
        env=ENV, capture_output=True, text=True,
    )
    assert launched.returncode == 0, launched.stderr
    result = json.loads(launched.stdout)
    reports = [json.loads(out)["report"] for out in result["outs"]]
    for report in reports:
        assert read(report["results"]) == want
    assert len({canonical_json(report) for report in reports}) == 1, "reports differ by thread count"
    if rss_mb is not None:
        assert result["peak_mb"] < rss_mb, f"peak RSS {result['peak_mb']:.0f} MB"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    argv = [sys.executable, "-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning", str(demo)]
    ran = subprocess.run(argv, env=ENV, capture_output=True, text=True, timeout=60)
    assert ran.returncode == 0, ran.stderr
