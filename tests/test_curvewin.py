"""Tests for sliding-window curve statistics.

Hand-checkable cases use F_7 and F_13; randomized cross-checks compare
the sliding update against independent per-window summation and brute
force over y.  Frozen experiment values are regression pins computed by
this module once and checked exactly thereafter.
"""

import dataclasses
import itertools
import math
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from curvestats import curvewin, ffield, parallel, rwalk
from curvestats.curvewin import (
    BetaScan,
    Curve,
    Histogram,
    Rect,
    ScanSpec,
    beta_residue_scan,
    condition_star,
    condition_star_witness,
    cor4_exceptional,
    curve,
    delta_array,
    discrepancy,
    experiment_thm1,
    experiment_thm2,
    experiment_thm3,
    fiber_array,
    fiber_count,
    gauss_lemma_check,
    joint_histogram,
    residue_histogram,
    restricted_window_counts,
    window_counts,
    window_counts_direct,
)
from curvestats.errors import HypothesisError, InfeasibleModelError
from curvestats.ffield import FieldSpec, char_index, char_indices, legendre, pow_mod_vec
from curvestats.polyff import Poly, admissible, poly, x_poly


def _field(p):
    return FieldSpec.from_prime(p)


def _random_poly(rng, p, max_deg):
    deg = int(rng.integers(1, max_deg + 1))
    coeffs = [int(rng.integers(0, p)) for _ in range(deg)]
    coeffs.append(int(rng.integers(1, p)))
    return poly(coeffs, p)


def _brute_fiber(p, ell, val):
    return sum(1 for y in range(p) if pow(y, ell, p) == val)


# ---------------------------------------------------------------- fibers


def test_fiber_examples_f7():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    assert fiber_count(C, 2) == 2
    assert fiber_count(C, 0) == 1
    C3 = curve(fs, 3, x_poly(7))
    assert fiber_count(C3, 1) == 3


def test_fiber_matches_brute_force():
    rng = np.random.default_rng(11)
    for p in (7, 13, 31):
        fs = _field(p)
        for ell in (2, 3, 4):
            for _ in range(5):
                C = curve(fs, ell, _random_poly(rng, p, 5))
                for x in range(p):
                    assert fiber_count(C, x) == _brute_fiber(p, ell, C.P(x))


def test_fiber_array_agrees_pointwise():
    fs = _field(31)
    C = curve(fs, 3, poly([4, 0, 1, 2], 31))
    arr = fiber_array(C, 0, 30)
    assert arr.tolist() == [fiber_count(C, x) for x in range(31)]
    assert fiber_array(C, 5, 4).size == 0
    # callers keep the result, so no call may hand out memory another
    # call (or a scan worker's buffers) will write
    again = fiber_array(C, 0, 30)
    assert not np.shares_memory(arr, again) and np.array_equal(arr, again)
    buffers = curvewin._TileBuffers(np.arange(40, dtype=np.int64))
    tiled = fiber_array(C, 0, 30, buffers)
    assert np.array_equal(tiled, arr)
    assert not any(np.shares_memory(tiled, b) for b in (buffers.acc, buffers.q))
    assert np.array_equal(fiber_array(C, 3, 7, buffers), arr[3:8]) and np.array_equal(tiled, arr)


def test_curve_constructor_rejects_bad_inputs():
    fs = _field(7)
    with pytest.raises(ValueError):
        curve(fs, 1, x_poly(7))
    with pytest.raises(ValueError):
        curve(fs, 2, poly([3], 7))
    with pytest.raises(ValueError):
        curve(fs, 2, x_poly(11))


# ---------------------------------------------------------------- windows


def test_window_examples_f7():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    assert window_counts(C, ScanSpec(0, 1, 3)).tolist() == [4]
    assert window_counts(C, ScanSpec(3, 1, 3)).tolist() == [2]
    assert window_counts(C, ScanSpec(0, 4, 3)).tolist() == [4, 4, 2, 2]


def test_window_of_roots_counts_roots():
    fs = _field(7)
    P = poly([2, 4, 1], 7)  # (x-1)(x-2)
    assert P(1) == 0 and P(2) == 0
    C = curve(fs, 2, P)
    assert window_counts(C, ScanSpec(0, 1, 2)).tolist() == [2]


def test_sliding_equals_direct_on_random_configurations():
    rng = np.random.default_rng(2024)
    primes = [101, 1009, 10007, 99991]
    for _ in range(25):
        p = int(rng.choice(primes))
        fs = _field(p)
        ell = int(rng.choice([2, 3, 4]))
        C = curve(fs, ell, _random_poly(rng, p, 4))
        I = int(rng.integers(1, min(p // 3, 200)))
        max_scan = p - I
        scan_len = int(rng.integers(1, min(max_scan, 400) + 1))
        x_start = int(rng.integers(0, max_scan - scan_len + 1))
        spec = ScanSpec(x_start, scan_len, I)
        assert np.array_equal(window_counts(C, spec), window_counts_direct(C, spec))


def test_window_counts_thread_invariance():
    fs = _field(10007)
    C = curve(fs, 2, poly([1, 1, 0, 1], 10007))
    spec = ScanSpec(17, 3001, 64)
    base = window_counts(C, spec, threads=1)
    for threads in (2, 3, 8):
        assert np.array_equal(base, window_counts(C, spec, threads=threads))


def _count_table_builds(monkeypatch) -> list:
    """Record (kind, p, thread id) for each character table built."""
    builds = []
    for kind, name in (("bits", "power_bitmap"), ("index", "char_index_table")):
        build = getattr(ffield, name)

        def counted(chi, kind=kind, build=build):
            builds.append((kind, chi.field.p, threading.get_ident()))
            return build(chi)

        monkeypatch.setattr(ffield, name, counted)
    return builds


def test_threads_build_one_table(monkeypatch):
    # a scan reads its bitmap of d-th powers before it starts a worker, so
    # the bitmap is built once, on the calling thread, and the workers only
    # read it; the scan never builds an index table
    fs = _field(100003)
    spec = ScanSpec(0, fs.p - 100, 50)
    Ps = [poly([1, 1, 0, 1], fs.p), poly([2, 0, 1], fs.p)]
    base = window_counts(curve(fs, 2, Ps[0]), spec)
    base_joint = joint_histogram([curve(fs, 2, P) for P in Ps], spec, 3)
    builds = _count_table_builds(monkeypatch)
    here = threading.get_ident()
    for threads in (2, 8):
        for scan, want in [
            (lambda Cs: window_counts(Cs[0], spec, threads=threads), base),
            (lambda Cs: joint_histogram(Cs, spec, 3, threads=threads), base_joint),
        ]:
            ffield.character.cache_clear()
            builds.clear()
            Cs = [curve(fs, 2, P) for P in Ps]
            assert builds == []
            got = scan(Cs)
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
            assert builds == [("bits", fs.p, here)]


def test_degenerate_scans_on_the_table_path(monkeypatch):
    # m = 1, I = 0, scan_len = 1 and p = 3, with the character's bitmap of
    # d-th powers in use: the scans never reach the character indices
    for module in (curvewin, ffield):
        monkeypatch.setattr(module, "char_indices", lambda *a: pytest.fail("power map used"))
    rng = np.random.default_rng(3030)
    for _ in range(60):
        p = int(rng.choice([3, 5, 7, 13, 10009]))
        fs = _field(p)
        C = curve(fs, int(rng.choice([2, 3, 4])), _random_poly(rng, p, 3))
        fib = fiber_array(C, 0, p - 1)
        assert C.chi.power_bits is not None
        if p < 100:
            assert fib.tolist() == [fiber_count(C, x) for x in range(p)]
        I = 0 if rng.random() < 0.5 else int(rng.integers(0, p))
        scan_len = 1 if rng.random() < 0.5 else int(rng.integers(1, p - I + 1))
        x_start = int(rng.integers(0, p - I - scan_len + 1))
        spec = ScanSpec(x_start, scan_len, I)
        direct = window_counts_direct(C, spec)
        for threads in (1, 2):
            assert np.array_equal(window_counts(C, spec, threads=threads), direct)
        assert residue_histogram(direct, 1).counts == (scan_len,)
        assert joint_histogram([C], spec, 1).counts == (scan_len,)


@pytest.mark.parametrize("p, ell", [
    (3, 2), (13, 4), (101, 2),  # d = 2, 4 and 2
    (31, 3), (10009, 3),  # d = 3
    (11, 3), (40009, 5),  # d = 1: every x is an ell-th power, once
    (40009, 4), (40009, 2),  # (p - 1) / d above one walk block
    (257, 256), (40009, 40008),  # d >= 128: int32 sizes
    (17, 4), (19, 3), (29, 2), (23, 2), (7, 3),  # p = 1, 3, 5, 7 and 7 mod 8
])
def test_fiber_size_table_matches_oracles(p, ell):
    # the bitmap of d-th powers against exhaustive root counts: its bits,
    # the sizes d * bit + [x = 0], and fiber_array over the whole field;
    # p is odd, so the bitmap's last byte is partial and its padding bits
    # stay clear
    fs = _field(p)
    ffield.character.cache_clear()
    chi = ffield.character(fs, ell)
    d = chi.d
    bitmap = ffield.power_bitmap(chi)
    assert bitmap.dtype == np.uint8 and bitmap.shape == ((p + 7) // 8,)
    bits = np.unpackbits(bitmap, bitorder="little")
    assert not bits[p:].any()
    bits = bits[:p].astype(np.int64)
    xs = np.arange(p, dtype=np.int64)
    # criterion 1's oracle: the number of y with y^ell = x, for every x
    roots = np.bincount(ffield.pow_mod_vec(xs, ell, p), minlength=p)
    assert np.array_equal(bits, (roots == d) & (xs != 0))
    sizes = d * bits
    sizes[0] += 1
    assert np.array_equal(sizes, roots)
    C = curve(fs, ell, x_poly(p))
    probes = range(p) if p < 300 else np.random.default_rng(p).integers(0, p, 300).tolist()
    for x in [0, 1, p - 1, *probes]:
        assert sizes[x] == fiber_count(C, x)
    assert "power_bits" not in vars(chi)
    assert not chi.power_bits.flags.writeable
    assert np.array_equal(chi.power_bits, bitmap)
    q = np.empty_like(xs)
    for got in (fiber_array(C, 0, p - 1), ffield._root_counts(chi, xs, q)):
        assert got.dtype == (np.int8 if d < 128 else np.int32)
        assert np.array_equal(got, roots)


@pytest.mark.parametrize("p, ell", [(10007, 2), (10009, 4), (257, 256)])
def test_fiber_array_patches_the_roots_of_p(p, ell):
    # P(x) = 0 reads the clear bit of 0 and is patched to 1: roots at a
    # tile's first and last positions, several roots inside it, and a
    # tile without roots, with and without the tile buffers
    fs = _field(p)
    rng = np.random.default_rng(p + ell)
    for _ in range(4):
        lo, hi = sorted(int(x) for x in rng.choice(range(1, p - 1), 2, replace=False))
        inner = [int(x) for x in rng.integers(lo, hi + 1, 3)]
        for roots in ([lo], [hi], [lo, hi], [lo, *inner, hi], [lo - 1, hi + 1]):
            P = poly([int(rng.integers(1, p))], p)  # a nonzero constant
            for r in roots:
                P = P * poly([-r, 1], p)
            C = curve(fs, ell, P)
            want = [fiber_count(C, x) for x in range(lo, hi + 1)]
            buffers = curvewin._TileBuffers(np.arange(hi - lo + 1, dtype=np.int64))
            for got in (fiber_array(C, lo, hi), fiber_array(C, lo, hi, buffers)):
                assert got.dtype == (np.int8 if C.chi.d < 128 else np.int32)
                assert got.tolist() == want


def test_bitmap_at_the_top_of_the_table_range():
    # the largest prime below 2^24 builds its bitmap (2 MB; its last byte
    # holds 5 bits), and the sizes over the field's last 2000 x match the
    # power map; the first prime past 2^24 refuses the bitmap
    ffield.character.cache_clear()
    try:
        p = 16777213
        fs = _field(p)
        for P in (x_poly(p), poly([1, 1, 0, 1], p)):
            C = curve(fs, 2, P)
            got = fiber_array(C, p - 2000, p - 1)
            idx = ffield._char_indices_pow(C.chi, P.eval_vec(np.arange(p - 2000, p)))
            want = np.where(idx == 0, 2, 0) + (idx == -1)
            assert got.dtype == np.int8 and np.array_equal(got, want)
        assert C.chi.power_bits.nbytes == (p + 7) // 8
        big = ffield.character(_field(16777259), 2)
        with pytest.raises(ValueError, match="2\\*\\*24"):
            ffield.power_bitmap(big)
        assert big.power_bits is None
    finally:
        ffield.character.cache_clear()


def test_first_scan_holds_the_bitmap_not_a_byte_table():
    # a first scan at p = 10000019 builds the character's bitmap inside the
    # call: p / 8 bytes (1.25 MB) beside one tile's work arrays, where a
    # byte table of fiber sizes took p bytes (11.6 MiB peak)
    import tracemalloc

    p = 10000019
    fs = _field(p)
    ffield.character.cache_clear()
    try:
        C = curve(fs, 2, poly([1, 1, 0, 1], p))
        assert "power_bits" not in vars(C.chi)
        tracemalloc.start()
        try:
            joint_histogram([C], ScanSpec(0, 2**17, 50), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.chi.power_bits.nbytes == (p + 7) // 8
        assert peak < 5 << 20
    finally:
        ffield.character.cache_clear()


def test_scan_past_the_table_limit_uses_the_power_map(monkeypatch):
    # above 2^24 the character has no tables; fiber sizes come from the
    # power map, and the scans agree with pointwise and direct oracles
    p = 16777259
    calls = []
    pow_path = ffield._char_indices_pow

    def counted(chi, xs):
        calls.append(len(xs))
        return pow_path(chi, xs)

    monkeypatch.setattr(ffield, "_char_indices_pow", counted)
    for name in ("power_bitmap", "char_index_table"):
        monkeypatch.setattr(ffield, name, lambda chi: pytest.fail("table built"))
    C = curve(_field(p), 2, poly([1, 1, 0, 1], p))
    x0 = p // 3
    fib = fiber_array(C, x0, x0 + 399)
    assert C.chi.power_bits is None and calls == [400]
    assert fib.tolist() == [fiber_count(C, x) for x in range(x0, x0 + 400)]
    spec = ScanSpec(x0, 300, 50)
    direct = window_counts_direct(C, spec)
    assert np.array_equal(direct, [fib[s + 1 : s + 51].sum() for s in range(300)])
    for threads in (1, 2):
        assert np.array_equal(window_counts(C, spec, threads=threads), direct)
        assert joint_histogram([C], spec, 3, threads=threads) == residue_histogram(direct, 3)


# window lengths at and around powers of two and the tile width (64 here),
# and past it: from I = n on, the windows of an n-window tile share a core
# of values, summed once, and the rest has a width w in [n - 1, I] (n - 1
# at n = 2 and 5; a power of two above it at n = 1 and 64)
_TILE = 64
_WINDOWS = [1, 2, 3, 7, 8, 9, 31, 32, 33, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3, 5 * _TILE]


def _narrowest(bound: int) -> np.dtype:
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= bound)


def _check_window_sums(values: np.ndarray, I: int, n: int) -> np.dtype:
    prefix = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
    sums, bound = curvewin._window_sums(values, I, n)
    assert bound == int(values.max(initial=0)) * I
    assert sums.dtype == _narrowest(bound) and sums.shape == (n,)
    assert np.array_equal(sums, prefix[I : I + n] - prefix[:n]), (n, I)
    return sums.dtype


@pytest.mark.parametrize("top, dtype, want", [
    (1, np.int8, {np.int8, np.int16}),  # fiber sizes at d = 1
    (100, np.int8, {np.int8, np.int16}),
    (30000, np.int32, {np.int8, np.int16, np.int32}),  # int32 fiber sizes
    (1 << 40, np.int64, {np.int8, np.int64}),
])
def test_window_sums_match_prefix_sums(top, dtype, want):
    # _window_sums against prefix sums, in the narrowest dtype of each bound,
    # with windows narrower than, as wide as and wider than the tile
    rng = np.random.default_rng(7070)
    seen = set()
    for n in (1, 2, 5, _TILE):
        for I in [0, *_WINDOWS]:
            values = rng.integers(0, top + 1, size=n - 1 + I).astype(dtype)
            seen.add(_check_window_sums(values, I, n).type)
    assert seen == want


def test_window_sums_at_the_full_tile():
    # widths n - 1 (sixteen set bits) and n (one), then n + 1 and 3n: a
    # core of 1 and 2n values and width n; in int32 and int64
    rng = np.random.default_rng(8080)
    n = curvewin._SCAN_CHUNK
    for I, top in [(n - 1, 2), (n, 2), (n + 1, 2), (3 * n, 2), (n - 1, 1 << 40), (3 * n, 1 << 40)]:
        values = rng.integers(0, top + 1, size=n - 1 + I)
        assert _check_window_sums(values, I, n) == (np.int32 if top == 2 else np.int64)


@pytest.mark.parametrize("threads", [1, 2])
def test_window_counts_and_tallies_at_each_window(threads, monkeypatch):
    # counts and tallies (d = 2 and 4: int8 and int16 sums) against direct
    # per-window sums, in full tiles of _TILE windows
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", _TILE)
    p = 1009
    fs = _field(p)
    for ell in (2, 4):
        Cs = [curve(fs, ell, poly(c, p)) for c in ([1, 1, 0, 1], [2, 0, 1])]
        for I in _WINDOWS:
            spec = ScanSpec(5, 5 * _TILE, I)
            direct = [window_counts_direct(C, spec) for C in Cs]
            assert np.array_equal(window_counts(Cs[0], spec, threads=threads), direct[0])
            for m in (1, 3, 4):
                assert joint_histogram(Cs[:1], spec, m, threads=threads) == residue_histogram(direct[0], m)
                joint = joint_histogram(Cs, spec, m, threads=threads)
                codes = direct[0] % m + m * (direct[1] % m)
                assert joint.counts == residue_histogram(codes, m * m).counts


def test_wraparound_rejected_by_name():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    with pytest.raises(HypothesisError) as exc:
        window_counts(C, ScanSpec(3, 2, 3))
    assert exc.value.name == "no_wraparound"


def test_scan_spec_rejects_degenerate_values():
    with pytest.raises(ValueError):
        ScanSpec(0, 0, 3).validate(7)
    with pytest.raises(ValueError):
        ScanSpec(-1, 1, 3).validate(7)


def test_scan_spec_full_leaves_margin():
    spec = ScanSpec.full(103, 10, 5)
    assert spec.x_start == 0 and spec.scan_len == 88
    spec.validate(103)
    assert spec.x_start + spec.scan_len - 1 + spec.window_len == 97


def test_parity_invariant_quadratic_curves():
    rng = np.random.default_rng(5)
    ran = 0
    for _ in range(20):
        p = int(rng.choice([101, 1009, 10007]))
        fs = _field(p)
        C = curve(fs, 2, _random_poly(rng, p, 4))
        I = int(rng.integers(1, 60))
        scan_len = int(rng.integers(1, 200))
        if scan_len + I > p:
            continue
        ran += 1
        spec = ScanSpec(0, scan_len, I)
        counts = window_counts(C, spec)
        xs = np.arange(1, scan_len + I, dtype=np.int64)
        is_root = (C.P.eval_vec(xs) == 0).astype(np.int64)
        roots_in = np.array(
            [int(is_root[s : s + I].sum()) for s in range(scan_len)], dtype=np.int64
        )
        assert np.array_equal(counts % 2, roots_in % 2)
    assert ran > 0


def test_total_points_weil_sanity():
    rng = np.random.default_rng(31)
    for p in (101, 103, 1009):
        fs = _field(p)
        for ell in (2, 3):
            for _ in range(5):
                P = _random_poly(rng, p, 4)
                if not admissible(P, ell):
                    continue
                C = curve(fs, ell, P)
                total = int(fiber_array(C, 0, p - 1).sum())
                assert abs(total - p) <= ell * (P.degree + 1) * math.sqrt(p)


# ---------------------------------------------------------------- histograms


def test_residue_histogram_examples():
    h2 = residue_histogram(np.array([4, 2]), 2)
    assert h2.counts == (2, 0) and h2.phi(0) == 1
    h3 = residue_histogram(np.array([4, 2]), 3)
    assert h3.counts == (0, 1, 1)
    assert h3.phi(1) == Fraction(1, 2) and h3.phi(2) == Fraction(1, 2)
    h1 = residue_histogram(np.array([9, 5, 0]), 1)
    assert h1.phi(0) == 1


def test_histogram_conservation():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 1000, size=500)
    for m in (1, 2, 3, 7):
        h = residue_histogram(counts, m)
        assert h.total == 500
        assert sum(h.phi(a) for a in range(m)) == 1
    assert residue_histogram(np.array([1, 2, 3]), 2).counts == (1, 2)


def test_discrepancy_closed_forms():
    assert discrepancy(Histogram(4, (5, 5, 5, 5))) == 0
    assert discrepancy(Histogram(2, (9, 0))) == Fraction(1, 2)
    for m in (2, 3, 5, 8):
        h = Histogram(m, (7,) + (0,) * (m - 1))
        assert discrepancy(h) == 1 - Fraction(1, m)
    with pytest.raises(ValueError):
        discrepancy(Histogram(3, (0, 0, 0)))
    # the joint (k = 2) histogram shares the closed forms and the empty guard
    assert discrepancy(Histogram(2, (3, 0, 0, 0), k=2)) == Fraction(3, 4)
    empty = Histogram(3, (0,) * 9, k=2)
    for call in (empty.discrepancy, lambda: empty.phi((0, 0))):
        with pytest.raises(ValueError):
            call()


def test_object_dtype_path_above_int64_limit():
    # p > 3_037_000_499: polynomial values, powers and character indices
    # fall back to Python ints in object arrays
    p = 4294967311
    fs = _field(p)
    C = curve(fs, 3, poly([1, 1, 0, 1], p))
    x0 = p - 3000
    assert C.P.eval_vec(np.arange(x0, x0 + 3, dtype=np.int64)).dtype == object
    fib = fiber_array(C, x0, x0 + 299)
    assert fib.tolist() == [fiber_count(C, x) for x in range(x0, x0 + 300)]
    assert set(fib.tolist()) == {0, 3}
    spec = ScanSpec(x0, 400, 30)
    direct = window_counts_direct(C, spec)
    for threads in (1, 2):
        assert np.array_equal(window_counts(C, spec, threads=threads), direct)
    xs = np.concatenate([[0, p], np.arange(x0, x0 + 300)]).astype(np.int64)
    want = [-1 if char_index(C.chi, int(x)) is None else char_index(C.chi, int(x)) for x in xs]
    assert char_indices(C.chi, xs).tolist() == want


# ---------------------------------------------------------------- joint


def test_joint_diagonal_for_cubes_vs_square_of_cubes():
    for p in (7, 13):
        fs = _field(p)
        C1 = curve(fs, 3, x_poly(p))
        C2 = curve(fs, 3, poly([0, 0, 1], p))
        spec = ScanSpec(0, p - 3, 3)
        for m in (2, 5):
            jh = joint_histogram([C1, C2], spec, m)
            assert jh.total == p - 3
            for vec, c in jh.as_dict().items():
                if vec[0] != vec[1]:
                    assert c == 0


def test_joint_single_curve_reduces_to_histogram():
    fs = _field(103)
    C = curve(fs, 2, poly([1, 3, 1], 103))
    spec = ScanSpec(0, 80, 9)
    jh = joint_histogram([C], spec, 4)
    h = residue_histogram(window_counts(C, spec), 4)
    assert jh.counts == h.counts


def test_joint_modulus_one_single_cell():
    fs = _field(31)
    Cs = [curve(fs, 2, x_poly(31)), curve(fs, 2, poly([1, 1], 31))]
    jh = joint_histogram(Cs, ScanSpec(0, 10, 5), 1)
    assert jh.counts == (10,)
    assert jh.discrepancy() == 0


def test_joint_matches_brute_force():
    fs = _field(31)
    Cs = [curve(fs, 2, poly([3, 1], 31)), curve(fs, 2, poly([1, 0, 1], 31))]
    spec = ScanSpec(2, 15, 6)
    m = 3
    jh = joint_histogram(Cs, spec, m)
    expected = {}
    for s in range(spec.scan_len):
        x0 = spec.x_start + s
        key = tuple(
            sum(fiber_count(C, x) for x in range(x0 + 1, x0 + spec.window_len + 1)) % m
            for C in Cs
        )
        expected[key] = expected.get(key, 0) + 1
    got = {k: v for k, v in jh.as_dict().items() if v}
    assert got == expected


def test_joint_rejects_mismatched_curves():
    fs = _field(31)
    with pytest.raises(ValueError):
        joint_histogram(
            [curve(fs, 2, x_poly(31)), curve(fs, 4, x_poly(31))], ScanSpec(0, 5, 3), 2
        )
    with pytest.raises(ValueError):
        joint_histogram([], ScanSpec(0, 5, 3), 2)
    C = curve(fs, 2, x_poly(31))
    with pytest.raises(ValueError, match="joint cell space m\\^k is too large"):
        joint_histogram([C, C], ScanSpec(0, 5, 3), 1025)  # 1025^2 > 2^20


# ---------------------------------------------------------------- restricted rectangles


def test_condition_star_f7_examples():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    assert condition_star(C, Rect(0, 6, 1, 3))
    assert not condition_star(C, Rect(0, 6, 1, 6))
    assert condition_star_witness(C, Rect(0, 6, 1, 6)) == 1
    # y = 3 alone: each x with P(x) = 2 sees a single y
    assert condition_star(C, Rect(0, 6, 3, 3))


def test_rect_delta_matches_per_x_count_of_y(monkeypatch):
    # one tile pass gives the membership over [0, p), zero outside the
    # x-interval, and the first x with two y; x_lo > 0, and the witness is
    # 10 points past it, in the second tile of 7
    p = 1009
    C = curve(_field(p), 2, poly([1, 1, 0, 1], p))

    def count_of_y(y_hi):
        roots = Counter(pow(y, 2, p) for y in range(1, y_hi + 1))
        return [roots[C.P(x)] for x in range(p)]

    count = count_of_y(700)
    assert set(count) == {0, 1, 2}
    witness = next(w for w in range(20, p) if count[w] >= 2 and max(count[w - 10 : w]) < 2)
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    for y_hi, first in ((700, witness), ((p - 1) // 2, None)):
        # y in [1, (p - 1) / 2] never holds both roots of a square
        rect = Rect(witness - 10, p - 40, 1, y_hi)
        count = count_of_y(y_hi)
        want = [int(rect.x_lo <= x <= rect.x_hi and count[x] >= 1) for x in range(p)]
        delta, got = curvewin._rect_delta(C, rect)
        assert got == first and condition_star_witness(C, rect) == first
        assert delta.dtype == np.int8 and delta.tolist() == want
        assert not delta.flags.writeable
        assert delta_array(C, rect).tolist() == want[rect.x_lo : rect.x_hi + 1]


def _rect_delta_by_bincount(C, rect):
    """The rectangle membership from whole-interval arrays: every y's
    power, one int64 bincount over [0, p), read at P(x) for every x."""
    p = C.p
    ys = np.arange(rect.y_lo, rect.y_hi + 1, dtype=np.int64)
    mult = np.bincount(pow_mod_vec(ys, C.ell, p), minlength=p)
    fibers = mult[C.P.eval_vec(np.arange(rect.x_lo, rect.x_hi + 1, dtype=np.int64))]
    delta = np.zeros(p, dtype=np.int8)
    delta[rect.x_lo : rect.x_hi + 1] = np.minimum(fibers, 1)
    bad = np.flatnonzero(fibers >= 2)
    return delta, rect.x_lo + int(bad[0]) if bad.size else None


@pytest.mark.parametrize("p, ell", [(1009, 2), (1009, 3), (1009, 4), (1013, 3)])
def test_rect_delta_tiles_match_the_bincount(monkeypatch, p, ell):
    # y-tiles of 7 from y_lo = 2: some value's roots share a tile (504 and
    # 505 at ell = 2) and others fall in different tiles; d = 1 at (1013, 3)
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    C = curve(_field(p), ell, poly([5, 1, 0, 1], p))
    rect = Rect(3, p - 2, 2, p - 1)
    tiles = {}
    for y in range(rect.y_lo, rect.y_hi + 1):
        tiles.setdefault(pow(y, ell, p), []).append((y - rect.y_lo) // 7)
    shared = [len(set(t)) < len(t) for t in tiles.values()]
    assert (any(shared) and not all(shared)) == (C.chi.d > 1)
    for r in (rect, Rect(3, p - 2, 2, 300), Rect(0, 0, 0, 0)):
        delta, witness = curvewin._rect_delta(C, r)
        want, want_witness = _rect_delta_by_bincount(C, r)
        assert np.array_equal(delta, want) and witness == want_witness


def test_rect_delta_counts_past_a_byte():
    # every nonzero y in F_257 has y^256 = 1: 256 roots of one value, which
    # wrap to 0 in a uint8 count, so the count table is uint16 here
    p = 257
    C = curve(_field(p), 256, x_poly(p))
    assert C.chi.d == 256
    delta, witness = curvewin._rect_delta(C, Rect(0, p - 1, 1, 256))
    assert witness == 1 and np.flatnonzero(delta).tolist() == [1]
    want, want_witness = _rect_delta_by_bincount(C, Rect(0, p - 1, 1, 256))
    assert np.array_equal(delta, want) and witness == want_witness


def test_rect_validate_names_the_bad_interval():
    with pytest.raises(ValueError, match="x interval must be nonempty"):
        Rect(5, 4, 1, 2).validate(7)
    with pytest.raises(ValueError, match="x interval must be nonempty"):
        Rect(0, 7, 1, 2).validate(7)
    with pytest.raises(ValueError, match="y interval must be nonempty"):
        Rect(0, 6, 3, 2).validate(7)
    with pytest.raises(ValueError, match="y interval must be nonempty"):
        Rect(0, 6, -1, 2).validate(7)


def test_restricted_example_f7():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    out = restricted_window_counts(C, Rect(0, 6, 1, 3), ScanSpec(0, 1, 3))
    assert out.tolist() == [2]


def test_restricted_rejects_condition_violation():
    fs = _field(7)
    C = curve(fs, 2, x_poly(7))
    with pytest.raises(HypothesisError) as exc:
        restricted_window_counts(C, Rect(0, 6, 0, 6), ScanSpec(0, 1, 3))
    assert exc.value.name == "condition_star"
    assert "x = 1" in exc.value.detail


def test_delta_zero_outside_x_interval():
    fs = _field(31)
    C = curve(fs, 2, x_poly(31))
    rect = Rect(5, 10, 1, 15)
    d = delta_array(C, rect)
    assert d.size == 6
    brute = []
    for x in range(5, 11):
        brute.append(int(any(pow(y, 2, 31) == x for y in range(1, 16))))
    assert d.tolist() == brute


def test_restricted_matches_brute_force():
    rng = np.random.default_rng(77)
    ran = 0
    for _ in range(12):
        p = int(rng.choice([31, 103, 211]))
        fs = _field(p)
        ell = int(rng.choice([2, 3]))
        C = curve(fs, ell, _random_poly(rng, p, 3))
        y_lo = int(rng.integers(0, p // 2))
        y_hi = int(rng.integers(y_lo, min(y_lo + p // 3, p - 1) + 1))
        rect = Rect(0, p - 1, y_lo, y_hi)
        if not condition_star(C, rect):
            continue
        ran += 1
        I = int(rng.integers(1, p // 4 + 1))
        scan_len = int(rng.integers(1, p - I + 1))
        spec = ScanSpec(0, scan_len, I)
        got = restricted_window_counts(C, rect, spec)
        ys = list(range(y_lo, y_hi + 1))
        powers = {pow(y, ell, p) for y in ys}
        brute = [
            sum(1 for x in range(x0 + 1, x0 + I + 1) if C.P(x) in powers)
            for x0 in range(scan_len)
        ]
        assert got.tolist() == brute
    assert ran > 0


def test_restricted_thread_invariance():
    fs = _field(1009)
    C = curve(fs, 2, x_poly(1009))
    rect = Rect(0, 1008, 1, 504)
    spec = ScanSpec(0, 900, 50)
    base = restricted_window_counts(C, rect, spec, threads=1)
    assert np.array_equal(base, restricted_window_counts(C, rect, spec, threads=4))


def test_short_scan_chunks_change_no_result(monkeypatch):
    fs = _field(1009)
    C = curve(fs, 2, x_poly(1009))
    rect = Rect(0, 1008, 1, 504)
    spec = ScanSpec(3, 900, 50)
    direct = window_counts_direct(C, spec)
    single = restricted_window_counts(C, rect, spec)
    hist = residue_histogram(direct, 5)
    delta = delta_array(C, rect)
    # every nonzero square has two roots; the first one past 770 is 777,
    # in the second chunk of 7
    bad = Rect(770, 1008, 1, 1008)
    witness = min(x for x in range(770, 1009) if legendre(x, 1009) == 1)
    assert witness == 777
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    # 900 windows are 129 tiles of at most 7, each evaluated in one call
    tiles = []
    values = curvewin._TileBuffers.values

    def counted(buffers, P, lo, n, *rest):
        tiles.append(n)
        return values(buffers, P, lo, n, *rest)

    monkeypatch.setattr(curvewin._TileBuffers, "values", counted)
    window_counts(C, spec)
    assert len(tiles) == 129 and set(tiles[:-1]) == {7 + 50 - 1}
    for threads in (1, 2):
        assert np.array_equal(window_counts(C, spec, threads=threads), direct)
        assert np.array_equal(restricted_window_counts(C, rect, spec, threads=threads), single)
    assert residue_histogram(direct, 5) == hist
    chunked = delta_array(C, rect)
    assert chunked.dtype == np.int64 and np.array_equal(chunked, delta)
    assert condition_star_witness(C, bad) == witness



def _spy_scan_tiles(monkeypatch) -> list:
    """Record (s0, s1, lo, hi) of every scan tile run from here on."""
    calls = []
    scan_tiles = curvewin._scan_tiles

    def spied(tile, spec, threads):
        def recorded(s0, s1, lo, hi, buffers):
            calls.append((s0, s1, lo, hi))
            return tile(s0, s1, lo, hi, buffers)

        return scan_tiles(recorded, spec, threads)

    monkeypatch.setattr(curvewin, "_scan_tiles", spied)
    return calls


def test_two_thread_tiles_unequal_and_short(monkeypatch):
    # 16 windows in tiles of 7 windows are tiles of 7, 7 and 2, so at 2
    # threads one worker runs one tile and the other two, the last short;
    # each worker allocates one set of buffers for all its tiles
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    spans = _spy_scan_tiles(monkeypatch)
    made = []
    tile_buffers = curvewin._TileBuffers

    def counted(iota):
        made.append(iota.size)
        return tile_buffers(iota)

    monkeypatch.setattr(curvewin, "_TileBuffers", counted)
    p = 1009
    fs = _field(p)
    Cs = [curve(fs, 2, poly([1, 1, 0, 1], p)), curve(fs, 2, poly([3, 0, 1], p))]
    spec = ScanSpec(3, 16, 50)
    runs = {}
    for threads in (1, 2):
        made.clear()
        spans.clear()
        counts = window_counts(Cs[0], spec, threads=threads)
        assert made == [7 + 50 - 1] * threads
        assert sorted(span[:2] for span in spans) == [(0, 7), (7, 14), (14, 16)]
        runs[threads] = (
            counts.tobytes(),
            repr(joint_histogram(Cs[:1], spec, 3, threads=threads)),
            repr(joint_histogram(Cs, spec, 5, threads=threads)),
        )
    assert runs[1] == runs[2]
    assert np.array_equal(counts, window_counts_direct(Cs[0], spec))


def test_scan_tiles_fixed_by_the_input(monkeypatch):
    # the tiles of a scan depend on its windows alone: 900 windows in tiles
    # of 64 are the same 15 (lo, n) tile calls at 1, 2 and 4 threads, for
    # a window count, a joint tally and a beta scan
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 64)
    calls = _spy_scan_tiles(monkeypatch)
    p = 1009
    fs = _field(p)
    Cs = [curve(fs, 2, poly([1, 1, 0, 1], p)), curve(fs, 2, poly([3, 0, 1], p))]
    spec = ScanSpec(3, 900, 50)
    runs = {}
    for threads in (1, 2, 4):
        runs[threads] = []
        for scan in (
            lambda: window_counts(Cs[0], spec, threads=threads),
            lambda: joint_histogram(Cs, spec, 3, threads=threads),
            lambda: beta_residue_scan(fs, Fraction(1, 2), spec, m=3, threads=threads),
        ):
            calls.clear()
            scan()
            runs[threads].append(sorted((lo, hi - lo + 1) for _, _, lo, hi in calls))
    assert runs[1] == runs[2] == runs[4]
    tiles = [(4 + 64 * t, 64 + 50 - 1) for t in range(14)] + [(4 + 64 * 14, 900 - 64 * 14 + 50 - 1)]
    assert runs[1] == [tiles] * 3


def test_one_unit_jobs_start_no_pool(monkeypatch):
    # a scan shorter than one tile, and a model whose trials fit in one
    # batch (criterion 9's 21 block types, 500 trials), run on the calling
    # thread at any thread count
    def refused(*args, **kwargs):
        raise AssertionError("a one-unit job started a thread pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refused)
    p = 1009
    fs = _field(p)
    C = curve(fs, 2, poly([1, 1, 0, 1], p))
    spec = ScanSpec(3, 900, 50)
    assert spec.scan_len < curvewin._SCAN_CHUNK
    assert np.array_equal(window_counts(C, spec, threads=4), window_counts_direct(C, spec))
    assert joint_histogram([C], spec, 3, threads=4) == residue_histogram(window_counts_direct(C, spec), 3)
    beta_residue_scan(fs, Fraction(1, 2), spec, m=3, threads=4)
    cells, _ = rwalk._sampling_law(rwalk._steps(2, Fraction(1, 2), 3, 1), 3, 1, 5)
    assert cells.shape[1] == 21 and 500 <= rwalk._VISIT_BATCH // 21
    rwalk.model_reference(2, 3, 5, blocks=179, trials=500, seed=9, threads=4)


@pytest.mark.parametrize("p", [10000019, 2**31 - 1, 3037000493])
def test_shifted_tiles_match_direct_scan_near_the_top(monkeypatch, p):
    # tiles evaluate P(lo + t) at small t; the unshifted per-window oracle
    # evaluates P at x itself, here up to p - 1 and with full-size
    # coefficients, over tiles of 64 windows
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 64)
    fs = _field(p)
    for cs in ([1, 1, 0, 1], [p - 1, p - 2, 3, p - 1, p - 1]):
        C = curve(fs, 2, poly(cs, p))
        spec = ScanSpec(p - 300 - 40, 300, 40)
        direct = window_counts_direct(C, spec)
        assert direct.any()
        for threads in (1, 2):
            assert np.array_equal(window_counts(C, spec, threads=threads), direct)


def _tally_oracle(counts, m) -> dict:
    """Nonzero joint residue tallies of per-window count arrays, by brute force."""
    return dict(Counter(zip(*((c % m).tolist() for c in counts))))


@pytest.mark.parametrize("threads", [1, 2])
def test_tally_scan_in_short_chunks(threads, monkeypatch):
    p = 1009
    fs = _field(p)
    Cs = [curve(fs, 2, P) for P in (x_poly(p), poly([1, 1, 0, 1], p), poly([3, 0, 1], p))]
    rect = Rect(0, p - 1, 1, 504)  # y^2 = x has at most one y in [1, 504]
    delta = delta_array(Cs[0], rect)
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    membership, witness = curvewin._rect_delta(Cs[0], rect)
    assert witness is None and np.array_equal(membership, delta)
    # (spec, m, k): k = 1, 2, 3, m = 1, I = 0 and scan_len = 1
    cases = [
        (ScanSpec(3, 900, 50), 5, 1),
        (ScanSpec(3, 900, 50), 3, 2),
        (ScanSpec(0, 500, 20), 2, 3),
        (ScanSpec(3, 900, 50), 1, 2),
        (ScanSpec(10, 40, 0), 3, 1),
        (ScanSpec(10, 40, 0), 2, 3),
        (ScanSpec(100, 1, 9), 3, 3),
        (ScanSpec(100, 1, 9), 4, 1),
    ]
    for spec, m, k in cases:
        direct = [window_counts_direct(C, spec) for C in Cs[:k]]
        jh = joint_histogram(Cs[:k], spec, m, threads=threads)
        assert jh.total == spec.scan_len
        assert {a: c for a, c in jh.as_dict().items() if c} == _tally_oracle(direct, m)
        if k == 1:
            assert jh == residue_histogram(direct[0], m)
        starts = range(spec.x_start, spec.x_start + spec.scan_len)
        restricted = np.array([delta[x0 + 1 : x0 + 1 + spec.window_len].sum() for x0 in starts])
        tallied = curvewin._tally_scan([lambda lo, hi, _: membership[lo : hi + 1]], spec, m, threads)
        assert tallied == residue_histogram(restricted, m)
    # the experiment drivers run the same tallies
    spec = ScanSpec(3, 900, 50, block_len=5)
    rep = experiment_thm1(Cs[1], spec, m=3, trials=5, seed=1, threads=threads)
    assert rep.histogram == residue_histogram(window_counts_direct(Cs[1], spec), 3)
    rep = experiment_thm3(Cs[0], rect, spec, m=3, trials=5, seed=1, threads=threads)
    restricted = np.array([delta[x0 + 1 : x0 + 51].sum() for x0 in range(3, 903)])
    assert rep.histogram == residue_histogram(restricted, 3)


@pytest.mark.parametrize("threads", [1, 2])
def test_tally_scan_fold_and_mod_paths(threads, monkeypatch):
    # A one-sum chunk whose window sums are bounded (max value * I) below
    # _FOLD_LIMIT is tallied by value and folded mod m; a larger bound, and
    # every joint scan, reduces mod m first.  Each chunk holds its sums in
    # the narrowest dtype its bound fits: int8 and int16 below the cutoff
    # (d = 144 gives int32 fiber sizes), int32 above it.
    big = 100003
    assert 144 * 50 < curvewin._FOLD_LIMIT <= min(144 * 500, 2 * 40000, 70000)
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    curves = {
        (1009, 2): [x_poly(1009), poly([1, 1, 0, 1], 1009), poly([3, 0, 1], 1009)],
        (1009, 144): [poly([1, 1, 0, 1], 1009), poly([5, 2, 0, 0, 1], 1009)],
        (big, 2): [poly([1, 1, 0, 1], big), poly([2, 0, 1], big)],
    }
    curves = {key: [curve(_field(key[0]), key[1], P) for P in Ps] for key, Ps in curves.items()}
    assert fiber_array(curves[1009, 144][0], 0, 9).dtype == np.int32
    # (curves, spec, m, k)
    cases = [
        ((1009, 2), ScanSpec(3, 900, 50), 5, 1),
        ((1009, 2), ScanSpec(3, 900, 50), 4, 2),
        ((1009, 2), ScanSpec(3, 900, 50), 3, 3),
        ((1009, 144), ScanSpec(3, 400, 50), 7, 1),
        ((1009, 144), ScanSpec(3, 400, 500), 4, 1),
        ((1009, 144), ScanSpec(3, 400, 500), 3, 2),
        ((big, 2), ScanSpec(5, 60, 40000), 3, 1),
        ((big, 2), ScanSpec(5, 60, 40000), 2, 2),
    ]
    for key, spec, m, k in cases:
        Cs = curves[key][:k]
        direct = [window_counts_direct(C, spec) for C in Cs]
        jh = joint_histogram(Cs, spec, m, threads=threads)
        assert jh.total == spec.scan_len
        assert {a: c for a, c in jh.as_dict().items() if c} == _tally_oracle(direct, m)
        if k == 1:
            assert jh == residue_histogram(direct[0], m)
    # restricted deltas on y^2 = x, folded (I = 50) and reduced mod m (I = 70000)
    for p, spec in [(1009, ScanSpec(3, 900, 50)), (big, ScanSpec(5, 60, 70000))]:
        C = curve(_field(p), 2, x_poly(p))
        rect = Rect(0, p - 1, 1, (p - 1) // 2)
        delta = delta_array(C, rect)
        starts = range(spec.x_start, spec.x_start + spec.scan_len)
        restricted = np.array([delta[x0 + 1 : x0 + 1 + spec.window_len].sum() for x0 in starts])
        membership = curvewin._rect_delta(C, rect)[0]
        for m in (1, 3):
            tallied = curvewin._tally_scan([lambda lo, hi, _: membership[lo : hi + 1]], spec, m, threads)
            assert tallied == residue_histogram(restricted, m)
            assert tallied.as_dict() == {(a,): c for a, c in enumerate(np.bincount(restricted % m, minlength=m))}


def test_tally_scan_at_the_benchmark_field():
    # ten full chunks, and x^3 + x + 1 reduces once inside Horner at this p
    p = 10000019
    C = curve(_field(p), 2, poly([1, 1, 0, 1], p))
    hist = joint_histogram([C], ScanSpec.full(p, 50, 5), 3)
    assert hist.counts == (3331645, 3333795, 3334524)


# ---------------------------------------------------------------- beta residues


def _beta_brute(p, y_max, x_start, scan_len, I):
    """R per window, from the squares of 1, ..., y_max."""
    squares = {y * y % p for y in range(1, y_max + 1)}
    return np.array(
        [sum(x in squares for x in range(x0 + 1, x0 + I + 1))
         for x0 in range(x_start, x_start + scan_len)],
        dtype=np.int64,
    )


def test_beta_example_f7():
    # y in [1, 3] squares to {1, 4, 2}, so the window (0, 3] holds R = 2, N = 1;
    # a modulus above I reads R and N themselves
    fs = _field(7)
    scan = beta_residue_scan(fs, Fraction(3, 7), ScanSpec(0, 1, 3), m=4)
    assert (scan.y_max, scan.positions) == (3, 1)
    assert scan.r_hist.counts == (0, 0, 1, 0)
    assert scan.n_hist.counts == (0, 1, 0, 0)
    assert [f.name for f in dataclasses.fields(BetaScan)] == [
        "beta", "y_max", "positions", "r_hist", "n_hist",
    ]


def test_beta_partition_and_half_case(monkeypatch):
    # R and N = I - R against brute force, in 7-window tiles so that each
    # scan spans several, at 1 and 2 threads; I = 6, 7, 8, 10 is 0, 1, 2
    # and 1 mod 3 and 1, 2, 3 and 0 mod 5, and m = I + 1 reads R itself
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 7)
    for threads, p in itertools.product((1, 2), (31, 103)):
        fs = _field(p)
        for beta in (Fraction(1, 2), Fraction(1, 3)):
            y_max = beta.numerator * p // beta.denominator
            if beta == Fraction(1, 2):
                # beta = 1/2 reaches every nonzero quadratic residue
                squares = {y * y % p for y in range(1, y_max + 1)}
                assert squares == {x for x in range(1, p) if legendre(x, p) == 1}
            for I in (6, 7, 8, 10):
                for spec in (ScanSpec(0, p - I, I), ScanSpec(3, p - I - 9, I)):
                    r = _beta_brute(p, y_max, spec.x_start, spec.scan_len, I)
                    for m in (1, 2, 3, 5, I + 1):
                        scan = beta_residue_scan(fs, beta, spec, m=m, threads=threads)
                        assert (scan.y_max, scan.positions) == (y_max, spec.scan_len)
                        assert scan.r_hist == residue_histogram(r, m)
                        assert scan.n_hist == residue_histogram(I - r, m)


def test_beta_without_modulus_runs_no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("scanned without a modulus")

    monkeypatch.setattr(curvewin, "_rect_delta", refuse)
    monkeypatch.setattr(curvewin, "_tally_scan", refuse)
    scan = beta_residue_scan(_field(103), Fraction(1, 2), ScanSpec(4, 90, 7))
    assert (scan.y_max, scan.positions, scan.r_hist, scan.n_hist) == (51, 90, None, None)
    # the geometry is still checked
    with pytest.raises(HypothesisError):
        beta_residue_scan(_field(103), Fraction(1, 2), ScanSpec(4, 93, 7))


def test_beta_validation():
    fs = _field(31)
    with pytest.raises(ValueError):
        beta_residue_scan(fs, Fraction(2, 3), ScanSpec(0, 1, 3))
    with pytest.raises(ValueError):
        beta_residue_scan(fs, Fraction(1, 100), ScanSpec(0, 1, 3))
    with pytest.raises(ValueError, match="modulus must be positive"):
        beta_residue_scan(fs, Fraction(1, 2), ScanSpec(0, 1, 3), m=0)


# ---------------------------------------------------------------- parity and gaps


def test_gauss_lemma_examples():
    assert gauss_lemma_check(3, 7) == (1, True)
    assert gauss_lemma_check(1, 7) == (0, True)
    assert gauss_lemma_check(2, 11) == (3, True)


def test_gauss_lemma_all_small_primes():
    def odd_primes(limit):
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for q in range(2, int(limit**0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = False
        return [int(q) for q in np.nonzero(sieve)[0] if q % 2 == 1]

    for p in odd_primes(300):
        for a in range(1, p):
            _, ok = gauss_lemma_check(a, p)
            assert ok


def test_gauss_lemma_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        gauss_lemma_check(0, 7)
    with pytest.raises(ValueError):
        gauss_lemma_check(14, 7)


def test_cor4_f13_window_one():
    fs = _field(13)
    # exceptional x0 for a length-1 window at the nonresidue class:
    # x0 = 0 plus the five quadratic residues below 12
    assert cor4_exceptional(fs, 2, [1], 1) == [6]


def test_cor4_full_window_no_exceptions():
    for p in (13, 31):
        fs = _field(p)
        assert cor4_exceptional(fs, 2, [p], 0) == [0]
        assert cor4_exceptional(fs, 2, [p], 1) == [0]


def test_cor4_monotone_in_window_length():
    fs = _field(103)
    for mu in (0, 1):
        counts = cor4_exceptional(fs, 2, range(1, 13), mu)
        assert counts == sorted(counts, reverse=True)


def _cor4_brute(chi, p, L, mu):
    return sum(
        not any(x != 0 and char_index(chi, x) == mu for x in range(x0, x0 + L))
        for x0 in range(p - L)
    )


def test_cor4_matches_brute_force():
    from curvestats.ffield import character

    for p, ell in ((31, 2), (31, 3), (31, 5)):
        fs = _field(p)
        chi = character(fs, ell)
        for mu in range(chi.d):
            brute = [_cor4_brute(chi, p, L, mu) for L in (1, 2, 3, 5)]
            assert cor4_exceptional(fs, ell, [1, 2, 3, 5], mu) == brute


def test_cor4_indexes_the_field_once_for_all_lengths(monkeypatch):
    from curvestats.ffield import character

    calls = []

    def spy(chi, xs):
        calls.append(len(xs))
        return index(chi, xs)

    index = curvewin.char_indices
    monkeypatch.setattr(curvewin, "char_indices", spy)
    for p, ell, mu in ((31, 3, 1), (37, 2, 1), (61, 5, 4)):
        calls.clear()
        lengths = [7, 1, 4, 2]
        got = cor4_exceptional(_field(p), ell, lengths, mu)
        assert calls == [p - 1]
        chi = character(_field(p), ell)
        assert got == [_cor4_brute(chi, p, L, mu) for L in lengths]


def _cor4_prefix(chi, p, lengths, mu):
    """The whole-field count: prefix sums of the hits over [0, p-2], and a
    window [x0, x0+L) is empty where the sums at its two ends agree."""
    S = np.zeros(p, dtype=np.int64)
    np.cumsum(char_indices(chi, np.arange(p - 1, dtype=np.int64)) == mu, out=S[1:])
    return [int(np.count_nonzero(S[L:p] == S[: p - L])) for L in lengths]


_COR4_CASES = [
    (p, ell)
    for p in (29, 31, 37, 61, 101, 1009)
    for ell in (2, 3, 5)
    if (p - 1) % ell == 0
]


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("tile", [6, 7, 64])
def test_cor4_tiled_count_matches_prefix_sums(tile, tables, monkeypatch):
    # the runs between hits carried across short tiles, against the
    # whole-field prefix sums; tiles of 6 end exactly at p - 1 = 36 and
    # tiles of 7 at p - 1 = 28.  Without tables, indices come from the
    # power map.
    character = ffield.character
    if not tables:
        monkeypatch.setattr(ffield, "_TABLE_LIMIT", 16)
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", tile)
    sizes = []

    def spy(chi, xs):
        sizes.append(len(xs))
        return index(chi, xs)

    index = curvewin.char_indices
    monkeypatch.setattr(curvewin, "char_indices", spy)
    character.cache_clear()
    try:
        for p, ell in _COR4_CASES:
            fs = _field(p)
            chi = character(fs, ell)
            assert (chi.table is not None) == tables
            lengths = [L for L in (1, 2, tile + 1, p - 1, p) if L <= p]
            for mu in range(chi.d):
                sizes.clear()
                got = cor4_exceptional(fs, ell, lengths, mu)
                assert sum(sizes) == p - 1 and max(sizes) <= tile
                assert got == _cor4_prefix(chi, p, lengths, mu), (p, ell, mu)
    finally:
        character.cache_clear()


def test_cor4_memory_is_one_tile():
    # the index table is built by a first call; a second call holds one
    # tile's work arrays, not arrays over the whole field (about 13 bytes
    # per element, 12.4 MB here)
    import tracemalloc

    fs = _field(1000003)
    cor4_exceptional(fs, 2, [10], 1)
    tracemalloc.start()
    try:
        cor4_exceptional(fs, 2, [10, 20, 40, 80], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_cor4_validation():
    fs = _field(7)
    with pytest.raises(HypothesisError) as exc:
        cor4_exceptional(fs, 5, [2], 0)
    assert exc.value.name == "p_equiv_1_mod_ell"
    with pytest.raises(ValueError):
        cor4_exceptional(fs, 2, [1, 0], 0)
    with pytest.raises(ValueError):
        cor4_exceptional(fs, 2, [2], 2)


# ---------------------------------------------------------------- experiment drivers

# regression pins for the p = 10007 drivers, frozen from the first run
THM1_DISC = Fraction(11018, 97950609)
THM1_Q99 = 0.0005055281461205168
THM2_SHIFT_DISC = Fraction(460174, 32650203)
THM2_MIXED_DISC = Fraction(21902, 97950609)
THM3_DISC = Fraction(12152, 97950609)


def _spec10007():
    return ScanSpec.full(10007, 100, 10)


def test_thm1_report_regression():
    fs = _field(10007)
    C = curve(fs, 2, poly([1, 1, 0, 1], 10007))
    rep = experiment_thm1(C, _spec10007(), m=3, trials=50, seed=7)
    assert rep.kind == "thm1"
    assert rep.discrepancy == THM1_DISC
    assert rep.bound == pytest.approx(7 * 27 * 4 / 10)
    assert rep.bound_pass
    assert rep.model.q99 == pytest.approx(THM1_Q99)
    assert rep.model_pass is True
    assert rep.params["blocks"] == 988
    assert rep.histogram.total == 9897
    names = [c.name for c in rep.hypotheses]
    assert names == [
        "p_equiv_1_mod_ell",
        "P_nonconstant",
        "P_admissible",
        "gcd_m_ell",
        "window_len_range",
        "no_wraparound",
        "scan_interval_size",
        "block_len_regime",
    ]
    regime = rep.hypotheses[-1]
    assert not regime.passed and not regime.fatal


def test_bound_pass_is_decided_on_fractions():
    # disc = 2/3 rounds down to a float, so a bound strictly between
    # float(disc) and disc passes a float comparison but not the exact one
    hist = Histogram(m=3, counts=(1, 0, 0))
    disc = hist.discrepancy()
    assert disc == Fraction(2, 3) and float(disc) < disc
    bound = (Fraction(float(disc)) + disc) / 2
    assert float(disc) < bound < disc
    summary = rwalk.ModelSummary(1.0, 1.0, 1.0, np.zeros(1), blocks=4, trials=1)
    rep = curvewin._experiment(
        "thm1", ScanSpec(0, 10, 3, 2), 1, 0, None, [], {}, lambda: hist, bound, lambda nb: summary
    )
    assert rep.discrepancy == disc and rep.bound_pass is False
    assert type(rep.bound) is float and rep.bound == float(bound)


def test_thm1_model_errors_past_the_guards_propagate(monkeypatch):
    # only a feasibility guard becomes a non-fatal model_feasible skip; any
    # other error of the DP must not pass for an infeasible model
    fs = _field(10007)
    C = curve(fs, 2, poly([1, 1, 0, 1], 10007))

    def failing(exc):
        def dp(*args):
            raise exc
        return dp

    # a cached law from an earlier run would skip the patched DP
    rwalk._sampling_law.cache_clear()
    monkeypatch.setattr(rwalk, "_block_type_distribution", failing(InfeasibleModelError("guard")))
    rep = experiment_thm1(C, _spec10007(), m=3, trials=5, seed=7)
    assert rep.model is None and rep.model_pass is None
    check = rep.hypotheses[-1]
    assert (check.name, check.passed, check.fatal, check.detail) == ("model_feasible", False, False, "guard")
    monkeypatch.setattr(rwalk, "_block_type_distribution", failing(ValueError("boom")))
    with pytest.raises(ValueError, match="^boom$"):
        experiment_thm1(C, _spec10007(), m=3, trials=5, seed=7)


def test_thm1_modulus_one_trivial():
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    rep = experiment_thm1(C, _spec10007(), m=1, trials=10, seed=1)
    assert rep.discrepancy == 0
    assert rep.bound > 0 and rep.bound_pass


def test_thm1_gcd_violation_named():
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    with pytest.raises(HypothesisError) as exc:
        experiment_thm1(C, _spec10007(), m=2, trials=10, seed=1)
    assert exc.value.name == "gcd_m_ell"


def test_thm1_inadmissible_named():
    fs = _field(13)
    C = curve(fs, 3, poly([0, 0, 1], 13))
    spec = ScanSpec(0, 6, 5, block_len=2)
    with pytest.raises(HypothesisError) as exc:
        experiment_thm1(C, spec, m=2, trials=10, seed=1)
    assert exc.value.name == "P_admissible"


def test_thm1_window_range_named():
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    spec = ScanSpec(0, 5000, 5, block_len=10)
    with pytest.raises(HypothesisError) as exc:
        experiment_thm1(C, spec, m=3, trials=10, seed=1)
    assert exc.value.name == "window_len_range"


def test_thm1_requires_block_length():
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    with pytest.raises(ValueError):
        experiment_thm1(C, ScanSpec(0, 500, 50), m=3, trials=10, seed=1)


def test_thm2_mixed_family_calibrates():
    fs = _field(10007)
    Cs = [curve(fs, 2, x_poly(10007)), curve(fs, 2, poly([1, 0, 1], 10007))]
    rep = experiment_thm2(Cs, _spec10007(), m=3, trials=50, seed=7)
    assert rep.discrepancy == THM2_MIXED_DISC
    assert rep.bound == pytest.approx(7 * 3**4 * 4 / 10)
    assert rep.bound_pass
    assert rep.model_pass is True
    assert rep.histogram.total == 9897


def test_thm2_shifted_family_concentrates_on_diagonal():
    # counts for x+1 are the counts for x advanced one position, so the
    # pair rarely leaves the near-diagonal cells and the idealized walk
    # understates the discrepancy at this scale
    fs = _field(10007)
    Cs = [curve(fs, 2, x_poly(10007)), curve(fs, 2, poly([1, 1], 10007))]
    rep = experiment_thm2(Cs, _spec10007(), m=3, trials=50, seed=7)
    assert rep.discrepancy == THM2_SHIFT_DISC
    assert rep.bound_pass
    assert rep.model_pass is False


def test_thm2_dependent_pair_aborts_on_independence():
    fs = _field(13)
    Cs = [curve(fs, 3, x_poly(13)), curve(fs, 3, poly([0, 0, 1], 13))]
    spec = ScanSpec(0, 6, 5, block_len=2)
    with pytest.raises(HypothesisError) as exc:
        experiment_thm2(Cs, spec, m=2, trials=10, seed=1)
    assert exc.value.name == "multiplicative_independence"


def test_thm2_needs_two_curves():
    fs = _field(13)
    with pytest.raises(ValueError):
        experiment_thm2([curve(fs, 2, x_poly(13))], ScanSpec(0, 4, 3, 1), m=3, trials=5, seed=1)


def test_infeasible_model_is_recorded_not_raised():
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    rep = experiment_thm1(C, ScanSpec.full(10007, 100, 5), m=4099, trials=5, seed=1)
    assert rep.model is None and rep.model_pass is None
    check = rep.hypotheses[-1]
    assert check.name == "model_feasible"
    assert not check.passed and not check.fatal
    assert "cell space" in check.detail
    assert rep.histogram.total == rep.params["scan_len"]


@pytest.mark.parametrize("trials, blocks", [(0, None), (5, 0)])
def test_model_size_rejected_before_the_scan(trials, blocks, monkeypatch):
    monkeypatch.setattr(curvewin, "fiber_array", lambda *a, **k: pytest.fail("scan ran"))
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    with pytest.raises(ValueError, match="trials and blocks"):
        experiment_thm1(C, _spec10007(), m=3, trials=trials, seed=1, blocks=blocks)


def _count_rect_deltas(monkeypatch) -> list:
    calls = []
    inner = curvewin._rect_delta

    def counted(C, rect):
        calls.append(rect)
        return inner(C, rect)

    monkeypatch.setattr(curvewin, "_rect_delta", counted)
    return calls


def test_thm3_report_regression(monkeypatch):
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    rect = Rect(0, 10006, 1, 5003)
    calls = _count_rect_deltas(monkeypatch)
    rep = experiment_thm3(C, rect, _spec10007(), m=3, trials=50, seed=7)
    # the condition_star hypothesis and the scan share one membership pass
    assert calls == [rect]
    assert rep.discrepancy == THM3_DISC
    assert rep.bound == pytest.approx(4 * 81 / 10)
    assert rep.bound_pass
    assert rep.model_pass is True
    assert rep.params["alpha"] == pytest.approx(5003 / 10007)
    names = [c.name for c in rep.hypotheses]
    assert "condition_star" in names and "block_len_regime_thm3" in names


def test_thm3_condition_violation_named(monkeypatch):
    fs = _field(10007)
    C = curve(fs, 2, x_poly(10007))
    rect = Rect(0, 10006, 0, 10006)
    calls = _count_rect_deltas(monkeypatch)
    with pytest.raises(HypothesisError) as exc:
        experiment_thm3(C, rect, _spec10007(), m=3, trials=10, seed=1)
    assert exc.value.name == "condition_star"
    assert calls == [rect]
