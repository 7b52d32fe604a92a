"""The verification suite: twelve acceptance criteria with pinned seeds.

Each criterion is a check that returns ``(passed, detail)``, declared with
its id and name once; ``RUNNERS`` maps each id to a runner that wraps the
check in a CriterionResult.  The CLI ``verify`` subcommand and the test
suite both dispatch here, so a criterion passes or fails identically in
either harness.  Randomized criteria derive every draw from fixed seeds,
making reruns exact.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import _weil_checks, census_m, joint_census
from .curvewin import (
    Rect,
    ScanSpec,
    beta_residue_scan,
    condition_star,
    cor4_exceptional,
    curve,
    experiment_thm1,
    fiber_array,
    gauss_lemma_check,
    joint_histogram,
    window_counts,
    window_counts_direct,
)
from .errors import HypothesisError
from .ffield import FieldSpec, character, is_prime, pow_mod_vec
from .polyff import Poly, poly, x_poly
from .rwalk import exact_prop21a, exact_prop21b, exact_prop21c, model_reference

__all__ = ["CriterionResult", "run_all", "RUNNERS"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


RUNNERS: dict[int, Callable[[int], CriterionResult]] = {}


def _criterion(cid: int, name: str):
    """Register a check as criterion ``cid``.  The check returns
    ``(passed, detail)``; the registered runner, also left under the
    check's own name, wraps that in a CriterionResult, and reports a
    crash as a failure named like any other."""

    def register(check):
        @functools.wraps(check)
        def runner(threads: int = 1) -> CriterionResult:
            try:
                passed, detail = check(threads)
            except Exception as e:  # a crash is a failure, not an excuse
                passed, detail = False, repr(e)
            return CriterionResult(cid, name, passed, detail)

        runner.name = name
        RUNNERS[cid] = runner
        return runner

    return register


def _odd_primes_upto(limit: int) -> list[int]:
    return [q for q in range(3, limit + 1, 2) if is_prime(q)]


def _random_poly(rng, p: int, max_deg: int) -> Poly:
    deg = int(rng.integers(1, max_deg + 1))
    coeffs = [int(rng.integers(0, p)) for _ in range(deg)]
    coeffs.append(int(rng.integers(1, p)))
    return poly(coeffs, p)


# ---------------------------------------------------------------- criteria


@_criterion(1, "fiber oracle")
def criterion_1(threads: int = 1) -> tuple[bool, str]:
    """Fiber sizes match exhaustive root counts on every small field."""
    rng = np.random.default_rng(10101)
    checked = 0
    for p in _odd_primes_upto(200):
        fs = FieldSpec.from_prime(p)
        xs = np.arange(p, dtype=np.int64)
        for ell in (2, 3, 4):
            if p % ell != 1:
                continue
            root_counts = np.bincount(pow_mod_vec(xs, ell, p), minlength=p)
            for _ in range(50):
                P = _random_poly(rng, p, 5)
                C = curve(fs, ell, P)
                want = root_counts[P.eval_vec(xs)]
                if not np.array_equal(fiber_array(C, 0, p - 1), want):
                    return False, f"mismatch at p={p}, ell={ell}, P={P}"
                checked += 1
    return True, f"{checked} random curves against exhaustive root counts"


@_criterion(2, "sliding-window identity")
def criterion_2(threads: int = 1) -> tuple[bool, str]:
    """Scanned window counts equal independent summation."""
    rng = np.random.default_rng(20202)
    primes = [101, 1009, 4999, 10007, 99991]
    for i in range(100):
        p = int(rng.choice(primes))
        fs = FieldSpec.from_prime(p)
        ell = int(rng.choice([2, 3, 4]))
        C = curve(fs, ell, _random_poly(rng, p, 4))
        I = int(rng.integers(1, min(p // 3, 250)))
        scan_len = int(rng.integers(1, min(p - I, 300) + 1))
        x_start = int(rng.integers(0, p - I - scan_len + 1))
        spec = ScanSpec(x_start, scan_len, I)
        if not np.array_equal(
            window_counts(C, spec, threads=threads), window_counts_direct(C, spec)
        ):
            return False, f"mismatch on configuration {i}"
    return True, "100 random configurations, exact"


@_criterion(3, "parity lemma")
def criterion_3(threads: int = 1) -> tuple[bool, str]:
    """Gauss-lemma parity agrees with the Legendre symbol everywhere."""
    checked = 0
    for p in _odd_primes_upto(300):
        for a in range(1, p):
            _, ok = gauss_lemma_check(a, p)
            if not ok:
                return False, f"failed at p={p}, a={a}"
            checked += 1
    return True, f"{checked} (p, a) pairs, exact"


@_criterion(4, "walk enumerations")
def criterion_4(threads: int = 1) -> tuple[bool, str]:
    """Exact enumeration inequalities for short walks."""
    runs = []
    for m in (3, 5):
        for L in range(2, 7):
            runs.append((f"a ell=2 m={m} L={L}", exact_prop21a(2, m, L)))
    for m in (2, 3):
        for L in range(2, 7):
            runs.append((f"c m={m} L={L}", exact_prop21c(m, L)))
    runs.append(("b ell=2 m=3 L=2 k=2", exact_prop21b(2, 3, 2, 2)))
    bad = [tag for tag, res in runs if not res.passed]
    if bad:
        return False, f"failed: {bad}"
    return True, f"{len(runs)} enumerations within bounds"


@_criterion(5, "cancellation bounds")
def criterion_5(threads: int = 1) -> tuple[bool, str]:
    """Character sums stay below the square-root cancellation bounds."""
    rng = np.random.default_rng(50505)
    fields = {p: FieldSpec.from_prime(p) for p in (10007, 100003)}
    done = 0
    while done < 100:
        p = int(rng.choice([10007, 100003]))
        ell = int(rng.choice([2, 3]))
        if p % ell != 1:
            ell = 2
        chi = character(fields[p], ell)
        P = _random_poly(rng, p, 5)
        lo = int(rng.integers(0, p - 1))
        hi = int(rng.integers(lo, p))
        hi = min(hi, p - 1)
        try:
            sub, full = _weil_checks(P, chi, [(lo, hi), (0, p - 1)])
        except HypothesisError:
            continue  # resample the measure-zero power-shaped draws
        if not sub.passed:
            return False, f"incomplete bound failed: p={p}, ell={ell}, P={P}, [{lo},{hi}]"
        if not full.complete_pass or not full.complete_twists:
            return False, f"complete twisted bound failed: p={p}, ell={ell}, P={P}"
        done += 1
    return True, "100 random (P, ell, subinterval) configurations at p in {10007, 100003}"


@_criterion(6, "census bounds")
def criterion_6(threads: int = 1) -> tuple[bool, str]:
    """Stride censuses stay within their bounds and match brute force."""
    rng = np.random.default_rng(60606)
    p = 10007
    chi = character(FieldSpec.from_prime(p), 2)
    checked = 0
    for _ in range(4):
        P = _random_poly(rng, p, 2)
        for r in (1, 2, 3):
            offsets = [int(h) for h in rng.choice(50, size=r, replace=False)]
            stride = int(rng.integers(1, 4))
            for code in range(2**r):
                v = [(code >> j) & 1 for j in range(r)]
                res = census_m(P, chi, stride, offsets, p - 2, v)
                checked += 1
                if not res.bound_ok:
                    return False, (
                        f"plain census out of bound: P={P}, r={r}, v={v}, "
                        f"residual={res.residual:.1f} > {res.main_bound + res.slack:.1f}"
                    )
    pair = [x_poly(p), poly([1, 1], p)]
    for r in (1, 2):
        offsets = [int(h) for h in rng.choice(50, size=r, replace=False)]
        for code in range(2 ** (2 * r)):
            rows = [
                [(code >> (i * r + j)) & 1 for j in range(r)] for i in range(2)
            ]
            res = joint_census(pair, chi, 1, offsets, p - 2, rows)
            checked += 1
            if not res.bound_ok:
                return False, (
                    f"joint census out of bound: r={r}, rows={rows}, "
                    f"residual={res.residual:.1f}"
                )
    # exact recount matrix on small fields
    recounts = 0
    for q in (31, 97, 499):
        chi_q = character(FieldSpec.from_prime(q), 2)
        for _ in range(3):
            P = _random_poly(rng, q, 2)
            r = int(rng.integers(1, 3))
            offsets = [int(h) for h in rng.choice(q, size=r, replace=False)]
            stride = int(rng.integers(1, 4))
            N = int(rng.integers(0, q))
            v = [int(rng.integers(0, 2)) for _ in range(r)]
            try:
                res = census_m(P, chi_q, stride, offsets, N, v)
            except HypothesisError:
                continue
            brute = 0
            for i in range(N + 1):
                ok = True
                for h, t in zip(offsets, v):
                    val = P((i * stride + h) % q)
                    idx = None if val == 0 else pow(val, (q - 1) // 2, q)
                    if val == 0 or (0 if idx == 1 else 1) != t:
                        ok = False
                        break
                brute += ok
            recounts += 1
            if res.count != brute:
                return False, f"recount mismatch at p={q}: {res.count} != {brute}"
    return True, f"{checked} bound checks at p=10007 and {recounts} exact recounts"


@_criterion(7, "parity invariant")
def criterion_7(threads: int = 1) -> tuple[bool, str]:
    """Window counts of quadratic curves have the parity of the root count."""
    rng = np.random.default_rng(70707)
    done = 0
    while done < 50:
        p = int(rng.choice([101, 1009, 10007]))
        fs = FieldSpec.from_prime(p)
        C = curve(fs, 2, _random_poly(rng, p, 4))
        I = int(rng.integers(1, 60))
        scan_len = int(rng.integers(1, 200))
        if scan_len + I > p:
            continue
        counts = window_counts(C, ScanSpec(0, scan_len, I), threads=threads)
        xs = np.arange(1, scan_len + I, dtype=np.int64)
        is_root = (C.P.eval_vec(xs) == 0).astype(np.int64)
        roots = np.array(
            [int(is_root[s : s + I].sum()) for s in range(scan_len)], dtype=np.int64
        )
        if not np.array_equal(counts % 2, roots % 2):
            return False, f"mismatch at p={p}, P={C.P}"
        done += 1
    return True, "50 random configurations, exact"


@_criterion(8, "diagonal joint mass")
def criterion_8(threads: int = 1) -> tuple[bool, str]:
    """Cube curves from x and x^2 put no joint mass off the diagonal."""
    for p in (7, 13, 103):
        fs = FieldSpec.from_prime(p)
        C1 = curve(fs, 3, x_poly(p))
        C2 = curve(fs, 3, poly([0, 0, 1], p))
        spec = ScanSpec(0, p - 3, 3)
        for m in (2, 5):
            jh = joint_histogram([C1, C2], spec, m, threads=threads)
            off = sum(c for vec, c in jh.as_dict().items() if vec[0] != vec[1])
            if off != 0:
                return False, f"off-diagonal mass {off} at p={p}, m={m}"
    return True, "p in {7, 13, 103}, m in {2, 5}, exact zeros"


_CRIT9_SEED_BASE = 1000


@_criterion(9, "model-calibrated uniformity")
def criterion_9(threads: int = 1) -> tuple[bool, str]:
    """Curve discrepancy sits inside the walk model's bulk at p near 10^6."""
    p = 1000003
    fs = FieldSpec.from_prime(p)
    C = curve(fs, 2, poly([1, 1, 0, 1], p))
    spec = ScanSpec.full(p, 50, 5)
    rep = experiment_thm1(
        C, spec, m=3, trials=500, seed=_CRIT9_SEED_BASE, threads=threads
    )
    disc = float(rep.discrepancy)
    q99s = [rep.model.q99]
    for s in range(1, 100):
        model = model_reference(
            2, 3, 5,
            blocks=rep.params["blocks"],
            trials=500,
            seed=_CRIT9_SEED_BASE + s,
            threads=threads,
        )
        q99s.append(model.q99)
    successes = sum(disc <= q for q in q99s)
    passed = successes >= 95 and rep.bound_pass
    return passed, (
        f"disc={disc:.3e}, below model q99 in {successes}/100 seeds, "
        f"q99 range [{min(q99s):.3e}, {max(q99s):.3e}], "
        f"literal bound {rep.bound:.1f} {'passes' if rep.bound_pass else 'fails'}"
    )


@_criterion(10, "beta partition")
def criterion_10(threads: int = 1) -> tuple[bool, str]:
    """Beta-residue windows partition, and the one-y condition splits at p/2.

    The scan's residue and nonresidue histograms mod 3 must equal those of
    R and I - R counted by brute force from the squares of 1, ..., p // 2."""
    primes = [q for q in _odd_primes_upto(80) if q >= 5][:20]
    if len(primes) < 20:
        return False, "prime list too short"

    def tally(values) -> tuple[int, ...]:
        return tuple(sum(v % 3 == a for v in values) for a in range(3))

    for p in primes:
        fs = FieldSpec.from_prime(p)
        C = curve(fs, 2, x_poly(p))
        if not condition_star(C, Rect(0, p - 1, 1, p // 2)):
            return False, f"half interval rejected at p={p}"
        if condition_star(C, Rect(0, p - 1, 0, p - 1)):
            return False, f"full interval accepted at p={p}"
        I = 2 if p < 23 else 10
        scan = beta_residue_scan(fs, Fraction(1, 2), ScanSpec(0, p - I, I), m=3, threads=threads)
        squares = {y * y % p for y in range(1, p // 2 + 1)}
        r = [sum(x in squares for x in range(x0 + 1, x0 + I + 1)) for x0 in range(p - I)]
        if scan.r_hist.counts != tally(r) or scan.n_hist.counts != tally([I - v for v in r]):
            return False, f"partition failed at p={p}"
    return True, "20 primes: partition exact, condition split at p/2"


_CRIT11_LENGTHS = (10, 20, 40, 80)


@_criterion(11, "vanishing empty windows")
def criterion_11(threads: int = 1) -> tuple[bool, str]:
    """Windows missing the nonresidue class die out as the window grows."""
    fs = FieldSpec.from_prime(1000003)
    counts = cor4_exceptional(fs, 2, _CRIT11_LENGTHS, 1)
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    halved = counts[-1] < counts[0] / 2
    passed = monotone and halved
    pairs = ", ".join(f"L={L}: {c}" for L, c in zip(_CRIT11_LENGTHS, counts))
    return passed, f"{pairs}; monotone={monotone}, L=80 count under half the L=10 count={halved}"


@_criterion(12, "thread determinism")
def criterion_12(threads: int = 1) -> tuple[bool, str]:
    """Thread count never changes a canonical report."""
    from . import cli

    argsets = [
        [
            "phi", "--p", "65647", "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
            "--window", "100", "--block", "10", "--trials", "500", "--seed", "7",
        ],
        [
            "restricted", "--p", "65647", "--ell", "2", "--m", "3", "--poly", "0,1",
            "--window", "100", "--block", "10", "--trials", "500", "--seed", "7",
            "--y-lo", "1", "--y-hi", "32823",
        ],
        ["walk", "--ell", "2", "--m", "3", "--block", "2000", "--trials", "64", "--seed", "11"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(argsets):
            canon = []
            for t in ("1", "4"):
                path = os.path.join(tmp, f"r{i}_{t}.json")
                code = cli.run(argv + ["--threads", t, "--out", path])
                if code != 0:
                    return False, f"{argv[0]} exited {code} with threads={t}"
                with open(path) as f:
                    canon.append(cli.canonical_json(json.load(f)["report"]))
            if canon[0] != canon[1]:
                return False, f"{argv[0]} reports differ between 1 and 4 threads"
    disc_1 = model_reference(2, 3, 5, blocks=19998, trials=2000, seed=3, threads=1)
    disc_4 = model_reference(2, 3, 5, blocks=19998, trials=2000, seed=3, threads=4)
    if not np.array_equal(disc_1.discrepancies, disc_4.discrepancies):
        return False, "model discrepancy arrays differ"
    return True, (
        "3 canonical CLI reports and the model sample are byte-identical at 1 and 4 threads"
    )


def run_all(threads: int = 1, only=None) -> list[CriterionResult]:
    """Run every criterion, or those whose ids are in ``only``, in id order."""
    unknown = sorted(set(only or ()) - RUNNERS.keys())
    if unknown:
        raise ValueError(f"unknown criterion ids {unknown}")
    return [RUNNERS[cid](threads) for cid in sorted(RUNNERS) if only is None or cid in only]
