"""Workloads of the curvestats benchmark, their output checks, and the
per-layer metrics with the workloads each must be seen on.

Every job is one ``curvestats.cli.run(argv)`` call in a fresh Python
process.  The expected outputs were taken at the commit that introduced
the benchmark; the histograms and discrepancies do not depend on the
seed (only the model quantiles do), so they are checked at every seed,
and the SHA-256 of the whole canonical report is checked at DEFAULT_SEED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

SCAN = (
    "phi", "--p", "10000019", "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
    "--window", "50", "--block", "5", "--trials", "500",
)
SCAN_COUNTS = [3331645, 3333795, 3334524]
SCAN_DISCREPANCY = (6721291, 149998920001944)
JOINT_CELLS = [
    ([0, 0], 1080), ([0, 1], 1038), ([0, 2], 1121),
    ([1, 0], 1065), ([1, 1], 1063), ([1, 2], 1148),
    ([2, 0], 1100), ([2, 1], 1131), ([2, 2], 1153),
]
JOINT_DISCREPANCY = (120176, 881911809)
VERIFY_IDS = list(range(1, 12))


def _discrepancy_error(results: dict, want: tuple[int, int]) -> str | None:
    got = (results["discrepancy"]["num"], results["discrepancy"]["den"])
    return None if got == want else f"discrepancy {got[0]}/{got[1]}, want {want[0]}/{want[1]}"


def check_scan(report: dict) -> str | None:
    results = report["results"]
    counts = results["histogram"]["counts"]
    if counts != SCAN_COUNTS:
        return f"histogram counts {counts}, want {SCAN_COUNTS}"
    return _discrepancy_error(results, SCAN_DISCREPANCY)


def check_joint(report: dict) -> str | None:
    results = report["results"]
    cells = [(c["a"], c["count"]) for c in results["joint_histogram"]["cells"]]
    if cells != JOINT_CELLS:
        return f"joint cells {cells}, want {JOINT_CELLS}"
    return _discrepancy_error(results, JOINT_DISCREPANCY)


def check_verify(report: dict) -> str | None:
    results = report["results"]
    ids = [c["id"] for c in results["criteria"]]
    failed = [c["id"] for c in results["criteria"] if not c["passed"]]
    if ids != VERIFY_IDS or failed or not results["all_passed"]:
        return f"criteria {ids}, failed {failed}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    seeded: bool  # the workload seed is passed as --seed
    why: str
    check: Callable[[dict], str | None]
    sha256: str  # of cli.canonical_json(report) at DEFAULT_SEED
    reference: tuple[str, ...] | None = None  # argv whose report must be byte-identical

    def command(self, seed: int, argv: tuple[str, ...] | None = None) -> list[str]:
        """The CLI argv of one job (argv defaults to the workload's own)."""
        return list(argv or self.argv) + (["--seed", str(seed)] if self.seeded else [])


SCAN_SHA = "77dc2e6b0eda11018a4792391f03c6349251f9966a0e9be7f3181bf4b97e75f3"

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "scan",
            SCAN + ("--threads", "1"),
            True,
            "one 10^7-element phi scan: field arithmetic (pow_mod_vec) dominates; "
            "p stays below the 2^24 index-table limit",
            check_scan,
            SCAN_SHA,
        ),
        Workload(
            "scan-t2",
            SCAN + ("--threads", "2"),
            True,
            "the same scan with --threads 2 (= nproc): the only workload whose "
            "thread fan-outs run more than one worker",
            check_scan,
            SCAN_SHA,
            reference=SCAN + ("--threads", "1"),
        ),
        Workload(
            "joint",
            (
                "joint", "--p", "10007", "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
                "--poly", "2,0,1", "--window", "100", "--block", "8", "--trials", "500",
            ),
            True,
            "two-curve joint scan at L = 8: the exact block-type DP takes almost all "
            "the time and field work is about 1 ms",
            check_joint,
            "3b09d87b6ed8e995e53f5db1c6f5c20a9e721135c4403c5b900264911067d66f",
        ),
        Workload(
            "verify",
            # criterion 12 starts 4 threads; its determinism property is
            # checked instead by the scan-t2 reference job
            ("verify", "--only", ",".join(map(str, VERIFY_IDS))),
            False,
            "acceptance criteria 1-11: thousands of small field calls, 100 small DPs, "
            "factoring, character sums and censuses",
            check_verify,
            "747c553b1bf98e534cbf1a642ec7eab0aa8936d52591fb05c64b996492da9efc",
        ),
    ]
}

ALL = tuple(WORKLOADS)
SCANS = ("scan", "scan-t2")

# (metric, unit, span, field, workloads on which the seed code records a
# call and the traced run must therefore see one).  Span fields come from
# tracer.Tracer.summary(); "total_s" is a span's full duration.
_FIELD = ("scan", "scan-t2", "verify")
PER_LAYER = [
    ("ffield.pow_mod_vec.self_s", "s", "ffield.pow_mod_vec", "self_s", _FIELD),
    ("ffield.pow_mod_vec.calls", "count", "ffield.pow_mod_vec", "calls", _FIELD),
    ("ffield.pow_mod_vec.elements", "count", "ffield.pow_mod_vec", "elements", _FIELD),
    ("ffield.pow_mod_vec.mulmods", "count", "ffield.pow_mod_vec", "mulmods", _FIELD),
    ("ffield.char_indices.self_s", "s", "ffield.char_indices", "self_s", _FIELD),
    ("ffield.char_indices.elements", "count", "ffield.char_indices", "elements", _FIELD),
    # only criterion 11 (cor4_exceptional) builds the table at the seed commit
    ("ffield.char_index_table.self_s", "s", "ffield.char_index_table", "self_s", ("verify",)),
    ("ffield.char_index_table.calls", "count", "ffield.char_index_table", "calls", ("verify",)),
    ("ffield.from_prime.self_s", "s", "ffield.from_prime", "self_s", _FIELD),
    ("ffield.from_prime.calls", "count", "ffield.from_prime", "calls", _FIELD),
    ("polyff.eval_vec.self_s", "s", "polyff.eval_vec", "self_s", ("scan", "verify")),
    ("polyff.eval_vec.calls", "count", "polyff.eval_vec", "calls", ("scan", "verify")),
    ("polyff.eval_vec.elements", "count", "polyff.eval_vec", "elements", ("scan", "verify")),
    ("polyff.factor.self_s", "s", "polyff.factor", "self_s", ("verify",)),
    ("polyff.factor.calls", "count", "polyff.factor", "calls", ("verify",)),
    ("curvewin.fiber_array.self_s", "s", "curvewin.fiber_array", "self_s", SCANS),
    ("curvewin.window_counts.self_s", "s", "curvewin.window_counts", "self_s", SCANS),
    ("curvewin.window_counts.windows", "count", "curvewin.window_counts", "windows", SCANS),
    # only criterion 10 (beta_residue_scan) runs a restricted scan
    (
        "curvewin.restricted_window_counts.self_s", "s",
        "curvewin.restricted_window_counts", "self_s", ("verify",),
    ),
    ("curvewin.histogram.self_s", "s", "curvewin.histogram", "self_s", SCANS),
    ("rwalk.block_types.self_s", "s", "rwalk.block_types", "self_s", ("joint", "verify")),
    ("rwalk.block_types.calls", "count", "rwalk.block_types", "calls", ("joint", "verify")),
    ("rwalk.block_types.types", "count", "rwalk.block_types", "types", ("joint", "verify")),
    ("rwalk.model_sampling.self_s", "s", "rwalk.model_sampling", "self_s", ("joint", "verify")),
    ("rwalk.model_sampling.trials", "count", "rwalk.model_sampling", "trials", ("joint", "verify")),
    ("rwalk.enumerations.self_s", "s", "rwalk.enumerations", "self_s", ("verify",)),
    ("charsum.incomplete_sum.self_s", "s", "charsum.incomplete_sum", "self_s", ("verify",)),
    ("charsum.incomplete_sum.calls", "count", "charsum.incomplete_sum", "calls", ("verify",)),
    ("charsum.census.self_s", "s", "charsum.census", "self_s", ("verify",)),
    ("charsum.census.calls", "count", "charsum.census", "calls", ("verify",)),
    *[
        (f"acceptance.criterion_{n}_s", "s", f"acceptance.criterion_{n}", "total_s", ("verify",))
        for n in VERIFY_IDS
    ],
    ("cli.self_s", "s", "cli", "self_s", ALL),
]
# computed by run.py from the traced and untraced jobs of a traced run
RUN_LAYER = [
    ("cli.worker_threads", "count"),  # most threads seen besides the main one
    ("trace.overhead_s", "s"),  # traced job_s minus untraced job_s
    ("trace.missing_spans", "count"),  # expected spans that recorded no call
]
