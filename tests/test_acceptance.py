"""Acceptance gate: one test per verification criterion.

Each test calls the matching runner in curvestats.acceptance and asserts
its pass flag, so `pytest -v` prints one line per criterion.  Two
deterministic large-field computations are additionally pinned to their
frozen first-run values as regressions.
"""

import sys
from fractions import Fraction

import pytest

from curvestats import acceptance, charsum, cli, parallel
from curvestats.curvewin import ScanSpec, curve, residue_histogram, window_counts
from curvestats.ffield import FieldSpec
from curvestats.polyff import poly


def _run(cid):
    res = acceptance.RUNNERS[cid]()
    assert res.passed, f"criterion {cid} ({res.name}): {res.detail}"
    return res


def test_criterion_01_fiber_oracle():
    _run(1)


def test_criterion_02_sliding_window_identity():
    _run(2)


def test_criterion_03_parity_lemma():
    _run(3)


def test_criterion_04_walk_enumerations():
    _run(4)


def test_criterion_05_cancellation_bounds():
    _run(5)


def test_criterion_05_decomposes_each_polynomial_once(monkeypatch, capsys):
    # one squarefree decomposition per polynomial drawn serves both the
    # subinterval and the full-field check
    drawn, decomposed = [], []
    draw = acceptance._random_poly
    decompose = charsum.squarefree_decomposition

    def counted_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def counted_decompose(P):
        decomposed.append(P)
        return decompose(P)

    monkeypatch.setattr(acceptance, "_random_poly", counted_draw)
    monkeypatch.setattr(charsum, "squarefree_decomposition", counted_decompose)
    assert cli.run(["verify", "--only", "5"]) == 0
    assert "criterion  5 [PASS]" in capsys.readouterr().err
    assert len(drawn) >= 100
    assert len(decomposed) == len(set(drawn))
    assert set(decomposed) == set(drawn)


def test_criterion_06_census_bounds():
    _run(6)


def test_criterion_07_parity_invariant():
    _run(7)


def test_criterion_08_diagonal_joint_mass():
    _run(8)


def test_criterion_09_model_calibrated_uniformity():
    res = _run(9)
    assert "100/100" in res.detail or "/100 seeds" in res.detail


def test_criterion_10_beta_partition():
    _run(10)


def test_criterion_11_vanishing_empty_windows():
    _run(11)


def test_criterion_12_thread_determinism():
    _run(12)


def test_criterion_12_compares_threaded_runs(monkeypatch):
    # each run criterion 12 compares spans two or more tiles, batches or
    # trials, so at 4 threads every scan and every model sampling starts a
    # pool: phi and restricted scan and sample, walk simulates, and the
    # closing model reference samples
    started = []
    pool = parallel.ThreadPoolExecutor

    def spy(*args, **kwargs):
        started.append(sys._getframe(2).f_code.co_name)  # run_blocks' caller
        return pool(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", spy)
    _run(12)
    assert started == ["_scan_tiles", "_visit_sums"] * 2 + ["simulate_phi", "_visit_sums"]


def test_run_all_reports_every_criterion():
    results = acceptance.run_all(only={3, 4})
    assert [r.cid for r in results] == [3, 4]
    assert all(r.passed for r in results)
    # one registry: ids 1..12, distinct names, and each module-level
    # criterion_<n> is the registered runner (the benchmark tracer wraps
    # the attribute and rebinds the same object in RUNNERS)
    assert sorted(acceptance.RUNNERS) == list(range(1, 13))
    names = [runner.name for runner in acceptance.RUNNERS.values()]
    assert len(set(names)) == len(names)
    for n in acceptance.RUNNERS:
        assert getattr(acceptance, f"criterion_{n}") is acceptance.RUNNERS[n]


def test_crashed_criterion_fails_under_its_own_name(monkeypatch):
    err = RuntimeError("boom")

    def crash(a, p):
        raise err

    monkeypatch.setattr(acceptance, "gauss_lemma_check", crash)
    assert acceptance.run_all(only={3}) == [
        acceptance.CriterionResult(3, "parity lemma", False, repr(err))
    ]


# ------------------------------------------------------- frozen regressions


def test_large_field_histogram_regression():
    # first-run values of the criterion 9 scan, frozen
    p = 1000003
    C = curve(FieldSpec.from_prime(p), 2, poly([1, 1, 0, 1], p))
    hist = residue_histogram(window_counts(C, ScanSpec.full(p, 50, 5)), 3)
    assert hist.counts == (333556, 332548, 333844)
    assert hist.total == 999948
    disc = sum((Fraction(c, hist.total) - Fraction(1, 3)) ** 2 for c in hist.counts)
    assert disc == Fraction(6432, 6943722241)


def test_empty_window_counts_regression():
    # first-run values of the criterion 11 sweep, frozen
    from curvestats.curvewin import cor4_exceptional

    fs = FieldSpec.from_prime(1000003)
    got = cor4_exceptional(fs, 2, [10, 20, 40, 80], 1)
    assert got == [948, 0, 0, 0]


@pytest.mark.parametrize("threads", [1, 4])
def test_run_all_passes_with_threads(threads):
    results = acceptance.run_all(threads=threads, only={2, 8})
    assert all(r.passed for r in results)
