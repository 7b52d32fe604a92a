"""Tests for character-sum tallies, cancellation checks, and censuses.

Small fields are checked against hand tables and exhaustive recounts;
the signed-sum identity relating censored counts to shifted censuses is
verified combinatorially on F_31 and F_97.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from curvestats.charsum import (
    CharSumTally,
    TwistCheck,
    census_m,
    incomplete_sum,
    joint_census,
    shifted_census,
    weil_check,
)
from curvestats.curvewin import Rect, curve
from curvestats.errors import HypothesisError
from curvestats.ffield import FieldSpec, char_index, character, legendre
from curvestats.polyff import poly, x_poly


def _chi(p, ell):
    return character(FieldSpec.from_prime(p), ell)


def _random_poly(rng, p, max_deg):
    deg = int(rng.integers(1, max_deg + 1))
    coeffs = [int(rng.integers(0, p)) for _ in range(deg)]
    coeffs.append(int(rng.integers(1, p)))
    return poly(coeffs, p)


def _brute_tally(P, chi, lo, hi):
    p = chi.field.p
    counts = [0] * chi.d
    zeros = 0
    for x in range(lo, hi + 1):
        val = P(x)
        if val == 0:
            zeros += 1
        else:
            counts[char_index(chi, val)] += 1
    return CharSumTally(chi.d, tuple(counts), zeros)


# ---------------------------------------------------------------- tallies


def test_full_interval_orthogonality_f7():
    chi = _chi(7, 2)
    t = incomplete_sum(x_poly(7), chi, 0, 6)
    assert t.counts == (3, 3) and t.zero_count == 1
    assert t.magnitude() == pytest.approx(0, abs=1e-12)


def test_short_interval_value_f7():
    chi = _chi(7, 2)
    t = incomplete_sum(x_poly(7), chi, 1, 3)
    assert t.counts == (2, 1) and t.zero_count == 0
    assert t.sum_value().real == pytest.approx(1)
    assert t.sum_value().imag == pytest.approx(0, abs=1e-12)


def test_nonresidue_times_square_concentrates():
    chi = _chi(7, 2)
    assert legendre(3, 7) == -1
    t = incomplete_sum(poly([0, 0, 3], 7), chi, 0, 6)
    assert t.counts == (0, 6) and t.zero_count == 1
    assert t.magnitude() == pytest.approx(6)


def test_empty_interval():
    chi = _chi(7, 2)
    t = incomplete_sum(x_poly(7), chi, 5, 4)
    assert t.total_terms == 0
    assert t.magnitude() == 0


def test_tally_matches_brute_force():
    rng = np.random.default_rng(3)
    for p, ell in ((31, 2), (31, 3), (97, 2), (103, 3)):
        chi = _chi(p, ell)
        for _ in range(5):
            P = _random_poly(rng, p, 4)
            lo = int(rng.integers(0, p - 1))
            hi = int(rng.integers(lo, p))
            hi = min(hi, p - 1)
            got = incomplete_sum(P, chi, lo, hi)
            want = _brute_tally(P, chi, lo, hi)
            assert got == want


def test_tally_splitting_property():
    rng = np.random.default_rng(9)
    chi = _chi(103, 3)
    for _ in range(10):
        P = _random_poly(rng, 103, 3)
        mid = int(rng.integers(1, 101))
        whole = incomplete_sum(P, chi, 0, 102)
        left = incomplete_sum(P, chi, 0, mid)
        right = incomplete_sum(P, chi, mid + 1, 102)
        assert left.merge(right) == whole


def test_tally_validation():
    chi = _chi(7, 2)
    with pytest.raises(ValueError):
        incomplete_sum(x_poly(7), chi, 0, 7)
    with pytest.raises(ValueError):
        incomplete_sum(x_poly(11), chi, 0, 3)
    with pytest.raises(ValueError):
        CharSumTally(2, (1, 2, 3), 0)
    a = CharSumTally(2, (1, 0), 0)
    with pytest.raises(ValueError):
        a.merge(CharSumTally(3, (0, 0, 0), 0))


def test_twisted_magnitudes_from_one_tally():
    chi = _chi(13, 4)
    assert chi.d == 4
    P = poly([2, 1, 1], 13)
    t = incomplete_sum(P, chi, 0, 12)
    for j in range(1, 4):
        direct = sum(
            np.exp(2j * np.pi * ((j * char_index(chi, P(x))) % 4) / 4)
            for x in range(13)
            if P(x) != 0
        )
        assert t.magnitude(twist=j) == pytest.approx(abs(direct), abs=1e-9)


# ---------------------------------------------------------------- cancellation checks


def test_weil_check_random_subintervals_pass():
    rng = np.random.default_rng(17)
    chi = _chi(10007, 2)
    for _ in range(10):
        lo = int(rng.integers(0, 9000))
        hi = int(rng.integers(lo, 10007))
        hi = min(hi, 10006)
        rep = weil_check(x_poly(10007), chi, lo, hi)
        assert rep.passed
        assert rep.bound == pytest.approx(2 * 2 * math.sqrt(10007) * math.log(10007))


def test_weil_check_full_interval_twists():
    chi = _chi(10007, 2)
    rep = weil_check(poly([1, 1, 0, 1], 10007), chi, 0, 10006)
    assert rep.passed and rep.complete_pass
    assert len(rep.complete_twists) == 1
    tw = rep.complete_twists[0]
    assert tw.bound == pytest.approx(4 * math.sqrt(10007))
    assert tw.magnitude <= tw.bound


def test_weil_check_rejects_power_shapes():
    chi = _chi(7, 2)
    with pytest.raises(HypothesisError) as exc:
        weil_check(poly([0, 0, 1], 7), chi, 0, 6)
    assert exc.value.name == "P_not_complete_power"
    # a non-residue times a square concentrates the sum just the same
    with pytest.raises(HypothesisError):
        weil_check(poly([0, 0, 3], 7), chi, 0, 6)


def test_weil_check_decomposes_once(monkeypatch):
    # one squarefree decomposition per weil_check serves the power-shape
    # hypothesis and every twist; skipped twists are those of order e with
    # P = c * R^e
    from curvestats import charsum

    calls = []
    real = charsum.squarefree_decomposition

    def counted(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(charsum, "squarefree_decomposition", counted)
    p = 13  # d = 4 for ell = 4
    chi = _chi(p, 4)
    square = poly([1, 0, 1], p) ** 2  # (x^2 + 1)^2: the order-2 twist is skipped
    cases = [(square, (2,)), (poly([1, 1, 0, 1], p), ()), (poly([2, 0, 0, 1], p) ** 3, ())]
    for P, skipped in cases:
        calls.clear()
        rep = weil_check(P, chi, 0, p - 1)
        assert calls == [P]
        assert rep.skipped_twists == skipped
        tally = _brute_tally(P, chi, 0, p - 1)
        assert rep.tally == tally
        cbound = (P.degree + 1) * math.sqrt(p)
        want = []
        for j in (j for j in range(1, 4) if j not in skipped):
            mj = tally.magnitude(j)
            want.append(TwistCheck(j, 4 // math.gcd(j, 4), mj, cbound, mj <= cbound + 1e-9))
        assert rep.complete_twists == tuple(want)
    calls.clear()
    with pytest.raises(HypothesisError) as exc:
        weil_check(poly([1, 0, 1], p) ** 4, chi, 0, p - 1)
    assert exc.value.name == "P_not_complete_power" and len(calls) == 1


def test_weil_check_empty_interval_trivially_passes():
    chi = _chi(10007, 2)
    rep = weil_check(x_poly(10007), chi, 9, 8)
    assert rep.magnitude == 0 and rep.passed
    assert rep.complete_twists == ()


def test_weil_check_needs_nontrivial_character():
    chi = _chi(7, 5)
    assert chi.d == 1
    with pytest.raises(ValueError):
        weil_check(x_poly(7), chi, 0, 6)


def test_complete_sums_of_random_polynomials():
    rng = np.random.default_rng(23)
    checked = 0
    for p, ell in ((101, 2), (103, 3), (1009, 2)):
        chi = _chi(p, ell)
        for _ in range(8):
            P = _random_poly(rng, p, 4)
            try:
                rep = weil_check(P, chi, 0, p - 1)
            except HypothesisError:
                continue
            checked += 1
            assert rep.magnitude <= (P.degree + 1) * math.sqrt(p) + 1e-9
            assert rep.complete_pass
    assert checked > 10


def test_skipped_twists_for_square_factor():
    # order-4 character; P a perfect square but not a 4th power: the
    # twist of order 2 degenerates and must be skipped, the others run
    chi = _chi(13, 4)
    P = poly([1, 2, 1], 13)  # (x+1)^2
    rep = weil_check(P, chi, 0, 12)
    assert rep.skipped_twists == (2,)
    assert {t.twist for t in rep.complete_twists} == {1, 3}


# ---------------------------------------------------------------- censuses


def _brute_census(polys, chi, stride, offs, N, rows):
    p = chi.field.p
    cnt = 0
    for i in range(N + 1):
        ok = True
        for P, row in zip(polys, rows):
            for h, t in zip(offs, row):
                val = P((i * stride + h) % p)
                if val == 0 or char_index(chi, val) != t:
                    ok = False
                    break
            if not ok:
                break
        cnt += ok
    return cnt


def test_census_residue_count_example():
    p = 13
    chi = _chi(p, 2)
    res = census_m(x_poly(p), chi, stride=1, offsets=[0], N=p - 2, v=[0])
    qrs = {x for x in range(1, p) if legendre(x, p) == 1}
    assert res.count == len([i for i in range(p - 1) if i in qrs])
    assert res.prediction == Fraction(p - 2, 2)


def test_census_unreachable_index_counts_zero():
    chi = _chi(13, 2)
    res = census_m(x_poly(13), chi, stride=1, offsets=[0], N=11, v=[5])
    assert res.count == 0


def test_census_single_term_range():
    chi = _chi(13, 2)
    res = census_m(poly([3, 1], 13), chi, stride=2, offsets=[1], N=0, v=[0])
    assert res.count in (0, 1)
    assert res.count == _brute_census([poly([3, 1], 13)], chi, 2, [1], 0, [(0,)])


def test_census_matches_exhaustive_recount():
    rng = np.random.default_rng(41)
    for p, ell in ((31, 2), (97, 2), (103, 3), (499, 2)):
        chi = _chi(p, ell)
        for _ in range(4):
            P = _random_poly(rng, p, 2)
            r = int(rng.integers(1, 4))
            offs = [int(h) for h in rng.choice(p, size=r, replace=False)]
            stride = int(rng.integers(1, 6))
            N = int(rng.integers(0, p))
            v = [int(rng.integers(0, chi.d)) for _ in range(r)]
            try:
                res = census_m(P, chi, stride, offs, N, v)
            except HypothesisError:
                continue
            assert res.count == _brute_census([P], chi, stride, offs, N, [v])
            assert res.residual == pytest.approx(
                abs(res.count - float(res.prediction))
            )


def test_census_validation_errors():
    chi = _chi(31, 2)
    with pytest.raises(ValueError):
        census_m(x_poly(31), chi, 1, [0, 0], 10, [0, 0])
    with pytest.raises(ValueError):
        census_m(x_poly(31), chi, 0, [0], 10, [0])
    with pytest.raises(ValueError):
        census_m(x_poly(31), chi, 1, [0], 10, [-1])
    with pytest.raises(HypothesisError) as exc:
        census_m(poly([0, 0, 0, 1], 31), chi, 1, [0], 10, [0])
    assert exc.value.name == "P_admissible"


def test_census_regime_gate():
    chi = _chi(31, 2)
    offs = [0, 1, 2]
    res = census_m(x_poly(31), chi, 1, offs, 20, [0, 0, 0])
    assert not res.regime_ok
    with pytest.raises(HypothesisError) as exc:
        census_m(x_poly(31), chi, 1, offs, 20, [0, 0, 0], theorem_mode=True)
    assert exc.value.name == "census_r_regime"
    # at p = 10007 three probes of a degree <= 2 polynomial are in regime
    chi_big = _chi(10007, 2)
    res2 = census_m(x_poly(10007), chi_big, 1, offs, 50, [0, 0, 0], theorem_mode=True)
    assert res2.regime_ok


def test_joint_census_single_poly_matches_plain():
    chi = _chi(97, 2)
    P = poly([5, 1], 97)
    a = census_m(P, chi, 3, [0, 2], 40, [0, 1])
    b = joint_census([P], chi, 3, [0, 2], 40, [[0, 1]])
    assert a.count == b.count and a.prediction == b.prediction


def test_joint_census_rejects_dependent_pair():
    chi = _chi(31, 2)
    with pytest.raises(HypothesisError) as exc:
        joint_census(
            [x_poly(31), poly([0, 0, 1], 31)], chi, 1, [0], 10, [[0], [0]]
        )
    assert exc.value.name == "multiplicative_independence"
    assert "(2, -1)" in exc.value.detail


def test_joint_census_matches_exhaustive_recount():
    rng = np.random.default_rng(43)
    chi = _chi(97, 2)
    polys = [x_poly(97), poly([1, 1], 97)]
    for _ in range(6):
        r = int(rng.integers(1, 3))
        offs = [int(h) for h in rng.choice(97, size=r, replace=False)]
        stride = int(rng.integers(1, 5))
        N = int(rng.integers(0, 97))
        rows = [[int(rng.integers(0, 2)) for _ in range(r)] for _ in polys]
        res = joint_census(polys, chi, stride, offs, N, rows)
        assert res.count == _brute_census(polys, chi, stride, offs, N, rows)
        assert res.prediction == Fraction(N, 2 ** (2 * r))


# ---------------------------------------------------------------- shifted census


def _delta_fn(C, rect):
    p = C.p
    ys = range(rect.y_lo, rect.y_hi + 1)
    powers = {pow(y, C.ell, p) for y in ys}

    def delta(x):
        x %= p
        if not rect.x_lo <= x <= rect.x_hi:
            return 0
        return int(C.P(x) in powers)

    return delta


def test_shifted_census_single_offset_is_delta_census():
    fs = FieldSpec.from_prime(31)
    C = curve(fs, 2, x_poly(31))
    rect = Rect(0, 30, 1, 15)
    res = shifted_census(C, rect, [4], stride=1)
    delta = _delta_fn(C, rect)
    assert res.count == sum(delta(x + 4) for x in range(31))
    assert res.positions == 31
    assert res.prediction == Fraction(31, 1) * Fraction(15, 31)


def test_shifted_census_matches_brute_force():
    rng = np.random.default_rng(51)
    fs = FieldSpec.from_prime(31)
    ran = 0
    for _ in range(10):
        ell = int(rng.choice([2, 3]))
        C = curve(fs, ell, _random_poly(rng, 31, 3))
        y_hi = int(rng.integers(1, 14))
        rect = Rect(int(rng.integers(0, 5)), int(rng.integers(20, 31)) - 1, 1, y_hi)
        offs = list(rng.choice(10, size=int(rng.integers(1, 4)), replace=False))
        stride = int(rng.integers(1, 4))
        try:
            res = shifted_census(C, rect, offs, stride)
        except HypothesisError:
            continue
        ran += 1
        delta = _delta_fn(C, rect)
        brute = 0
        miss = 0
        for x in range(rect.x_lo, rect.x_hi + 1):
            if x % stride:
                continue
            vals = [delta(x + h) for h in offs]
            brute += int(all(vals))
            miss += int(
                any(not rect.x_lo <= (x + h) % 31 <= rect.x_hi for h in offs)
            )
        assert res.count == brute
        assert res.boundary_miss == miss
    assert ran > 0


def test_shifted_census_condition_violation():
    fs = FieldSpec.from_prime(31)
    C = curve(fs, 2, x_poly(31))
    with pytest.raises(HypothesisError) as exc:
        shifted_census(C, Rect(0, 30, 0, 30), [1], 1)
    assert exc.value.name == "condition_star"


def test_shifted_census_no_positions():
    fs = FieldSpec.from_prime(31)
    C = curve(fs, 2, x_poly(31))
    res = shifted_census(C, Rect(1, 5, 1, 10), [1], stride=7)
    assert res.count == 0 and res.positions == 0


def test_signed_sum_identity_recovers_censored_count():
    # sum over E subset of B of (-1)^|E| count(A union E) equals the
    # number of stride positions hitting delta = 1 on A and 0 on B
    rng = np.random.default_rng(61)
    for p in (31, 97):
        fs = FieldSpec.from_prime(p)
        C = curve(fs, 2, x_poly(p))
        rect = Rect(0, p - 1, 1, (p - 1) // 2)
        delta = _delta_fn(C, rect)
        for _ in range(6):
            r = int(rng.integers(2, 4))
            offs = [int(h) for h in rng.choice(12, size=r, replace=False)]
            split = int(rng.integers(1, r))
            A, B = offs[:split], offs[split:]
            stride = int(rng.integers(1, 4))
            signed = 0
            for take in range(len(B) + 1):
                for E in itertools.combinations(B, take):
                    c = shifted_census(C, rect, list(A) + list(E), stride)
                    signed += (-1) ** len(E) * c.count
            direct = sum(
                1
                for x in range(0, p, stride)
                if all(delta(x + a) for a in A)
                and not any(delta(x + b) for b in B)
            )
            assert signed == direct
