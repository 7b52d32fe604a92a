"""Random-walk model and enumeration tests."""

import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from curvestats import rwalk
from curvestats.errors import HypothesisError, InfeasibleModelError
from curvestats.rwalk import (
    EnumResult,
    WalkConfig,
    _block_type_distribution,
    _digit_matrix,
    _pair_sum,
    _prefix_sums,
    _steps,
    _trial_gen,
    exact_prop21a,
    exact_prop21b,
    exact_prop21c,
    model_reference,
    model_reference_bernoulli,
    model_reference_joint,
    simulate_phi,
    trial_rng,
    walk_draws,
    walk_steps,
)


def _cum_power(ell, L):
    digits = _digit_matrix(ell, L)
    f = np.zeros(ell, dtype=np.int64)
    f[0] = ell
    return _prefix_sums(digits, f)


def _integer_oracle(cum, m):
    # sum_x sum_{t=1}^{m-1} e_m(t(D_x - a)) = m*#{x : D_x = a} - L, an integer,
    # so the whole double sum collapses to exact integer arithmetic
    V, L = cum.shape
    tot = 0
    for i in range(V):
        D = (cum[i][None, :] - cum) % m
        for row in D:
            R = np.bincount(row, minlength=m)
            tot += int(((m * R - L) ** 2).sum())
    return tot


def _exp_sum_oracle(cum, m, k=1):
    """The variance sum as written, in complex floats: over k-tuples of
    ordered row pairs and all a in (Z/mZ)^k, |sum_x sum_{t != 0} e_m(t . (D_x - a))|^2."""
    V, L = cum.shape
    diffs = (cum[:, None, :] - cum[None, :, :]).reshape(V * V, L)
    Z = diffs[np.array(list(itertools.product(range(V * V), repeat=k)))]  # (tuples, k, L)
    em = np.exp(2j * np.pi * np.arange(m) / m)
    tot = 0.0
    for avec in itertools.product(range(m), repeat=k):
        acc = np.zeros(len(Z), dtype=np.complex128)
        for tvec in itertools.product(range(m), repeat=k):
            if any(tvec):
                phase = (np.array(tvec)[:, None] * (Z - np.array(avec)[:, None])).sum(axis=1)
                acc += em[phase % m].sum(axis=1)
        tot += float((acc.real**2 + acc.imag**2).sum())
    return tot


def _fraction_block_types(steps, m, k, L):
    """The block-type DP on dicts of Fractions: the oracle for the integer DP."""
    mk = m**k

    def encode(vec):
        code = 0
        for i in reversed(range(k)):
            code = code * m + vec[i]
        return code

    def decode(code):
        out = []
        for _ in range(k):
            out.append(code % m)
            code //= m
        return tuple(out)

    zero = tuple([0] * k)
    start_counts = tuple([0] * mk)
    states: dict[tuple, Fraction] = {(zero, start_counts): Fraction(1)}
    for _ in range(L):
        nxt: dict[tuple, Fraction] = {}
        for (z, c), pr in states.items():
            for sv, sp in steps:
                z2 = tuple((zi + si) % m for zi, si in zip(z, sv))
                c2 = list(c)
                c2[encode(z2)] += 1
                key = (z2, tuple(c2))
                nxt[key] = nxt.get(key, Fraction(0)) + pr * sp
        states = nxt

    # rotate by a uniform start: a visit at cell b becomes a visit at b + u
    shift_perm = {}
    for u_code in range(mk):
        u = decode(u_code)
        shift_perm[u_code] = [
            encode(tuple((bi - ui) % m for bi, ui in zip(decode(b_code), u)))
            for b_code in range(mk)
        ]

    unif = Fraction(1, mk)
    agg: dict[tuple, Fraction] = {}
    for (_, c), pr in states.items():
        w = pr * unif
        for perm in shift_perm.values():
            c2 = tuple(c[perm[b]] for b in range(mk))
            agg[c2] = agg.get(c2, Fraction(0)) + w

    types = np.array(sorted(agg.keys()), dtype=np.int64)
    probs = np.array([float(agg[tuple(row)]) for row in types], dtype=np.float64)
    return types, probs


# ---------------------------------------------------------------- config and rng


def test_walkconfig_validation():
    WalkConfig(2, 3, 5, 10, 0).validate()
    for bad in [
        WalkConfig(1, 3, 5, 10, 0),
        WalkConfig(2, 0, 5, 10, 0),
        WalkConfig(2, 3, 0, 10, 0),
        WalkConfig(2, 3, 5, 0, 0),
    ]:
        with pytest.raises(ValueError):
            bad.validate()


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(17, 3).integers(0, 1 << 30, size=8)
    b = trial_rng(17, 3).integers(0, 1 << 30, size=8)
    c = trial_rng(17, 4).integers(0, 1 << 30, size=8)
    d = trial_rng(18, 3).integers(0, 1 << 30, size=8)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


STREAM_SEEDS = [0, 7, -1, 2**63 + 5]
STREAM_TRIALS = [0, 1, 499, 2**32, 2**64 + 3]


def _draws(gen):
    probs = np.array([0.1, 0.25, 0.05, 0.6])
    return [
        gen.multinomial(1000, probs),
        gen.integers(0, 3, size=7),
        gen.random(5),
        gen.multinomial(37, probs[::-1]),
    ]


def _same_draws(a, b) -> bool:
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_trial_gen_matches_fresh_trial_rng():
    # trial_rng defines the streams; _trial_gen re-keys one generator per thread
    for seed in STREAM_SEEDS:
        for trial in STREAM_TRIALS:
            assert _same_draws(_draws(_trial_gen(seed, trial)), _draws(trial_rng(seed, trial)))
            # an odd number of small draws leaves half a 64-bit word buffered
            fresh = trial_rng(seed, trial)
            fresh.integers(0, 2, size=5)
            assert fresh.bit_generator.state["has_uint32"] == 1
            _trial_gen(seed, trial).integers(0, 2, size=5)
            assert _same_draws(_draws(_trial_gen(seed, trial + 1)), _draws(trial_rng(seed, trial + 1)))
    # keys 0 and 2^64 - 1 in each word, and a negative seed, which both
    # paths mask to its 64-bit two's complement
    top = 2**64 - 1
    for seed, trial in ((0, 0), (top, top), (0, top), (top, 0), (-3, 5)):
        gen = _trial_gen(seed, trial)
        assert gen.bit_generator.state["state"]["key"].tolist() == [seed & top, trial & top]
        assert _same_draws(_draws(gen), _draws(trial_rng(seed, trial)))
    assert _same_draws(_draws(_trial_gen(-3, 5)), _draws(trial_rng(top - 2, 5)))


def test_trial_gen_streams_from_two_threads():
    keys = [(seed, trial) for seed in STREAM_SEEDS for trial in range(60)]
    want = [_draws(trial_rng(seed, trial)) for seed, trial in keys]
    start = threading.Barrier(2, timeout=10)

    def worker(order) -> list:
        start.wait()
        return [i for i in order if not _same_draws(_draws(_trial_gen(*keys[i])), want[i])]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as ex:
            # the two workers walk the keys in opposite orders
            orders = (range(len(keys)), range(len(keys) - 1, -1, -1))
            futures = [ex.submit(worker, order) for order in orders]
            assert [f.result(timeout=60) for f in futures] == [[], []]
    finally:
        sys.setswitchinterval(old)


def test_walk_steps_support_and_one_step_law():
    cfg = WalkConfig(ell=2, m=5, L=1, trials=4000, seed=123)
    vals = np.array([walk_steps(cfg, t)[0] for t in range(cfg.trials)])
    assert set(np.unique(vals)) <= {-2, 0, 2}
    # P(+2) = P(-2) = 1/4, P(0) = 1/2
    frac_plus = (vals == 2).mean()
    frac_zero = (vals == 0).mean()
    assert abs(frac_plus - 0.25) < 0.03
    assert abs(frac_zero - 0.50) < 0.03


def test_step_law_concentration():
    cfg = WalkConfig(ell=3, m=7, L=100, trials=200, seed=9)
    hits = total = 0
    for t in range(cfg.trials):
        v, _ = walk_draws(cfg, t)
        hits += int((v == 0).sum())
        total += cfg.L
    tol = 4 * math.sqrt(1 / (cfg.ell * total))
    assert abs(hits / total - 1 / cfg.ell) <= tol


def test_simulate_phi_m1():
    cfg = WalkConfig(ell=2, m=1, L=50, trials=20, seed=1)
    sim = simulate_phi(cfg)
    assert (sim.phis == 1.0).all()


def test_simulate_phi_clt_mean():
    cfg = WalkConfig(ell=2, m=3, L=10_000, trials=1000, seed=2024)
    sim = simulate_phi(cfg)
    for a in range(3):
        assert abs(sim.mean[a] - 1 / 3) <= 3 * sim.stderr[a]


def test_simulate_phi_rows_sum_to_one():
    cfg = WalkConfig(ell=3, m=4, L=77, trials=30, seed=3)
    sim = simulate_phi(cfg)
    assert np.allclose(sim.phis.sum(axis=1), 1.0)


def test_simulate_phi_thread_determinism():
    cfg = WalkConfig(ell=2, m=3, L=500, trials=64, seed=5)
    a = simulate_phi(cfg, threads=1)
    b = simulate_phi(cfg, threads=4)
    assert np.array_equal(a.phis, b.phis)


# ---------------------------------------------------------------- enumerations

# values computed once by the exact integer identity above and frozen
PROP21A_EXPECTED = {
    (2, 3, 2): 240,
    (2, 5, 2): 880,
    (2, 5, 3): 6320,
    (2, 5, 4): 37920,
    (2, 5, 5): 206000,
    (2, 5, 6): 1051120,
    (2, 3, 5): 45744,
    (3, 2, 3): 5058,
}

PROP21C_EXPECTED = {
    (2, 2): 64,
    (2, 3): 384,
    (2, 4): 2048,
    (2, 5): 10240,
    (2, 6): 49152,
    (3, 2): 240,
    (3, 3): 1584,
    (3, 4): 8880,
    (3, 5): 45744,
    (3, 6): 223920,
}


@pytest.mark.parametrize("ell,m,L", sorted(PROP21A_EXPECTED))
def test_prop21a_regression_and_bound(ell, m, L):
    res = exact_prop21a(ell, m, L)
    assert res.lhs == PROP21A_EXPECTED[(ell, m, L)]
    assert res.bound == 7 * m**4 * L * ell ** (2 * L + 2)
    assert res.passed


@pytest.mark.parametrize("ell,m,L", [(2, 3, 2), (2, 5, 3), (3, 2, 3), (5, 2, 2)])
def test_prop21a_matches_integer_oracle(ell, m, L):
    res = exact_prop21a(ell, m, L)
    assert res.lhs == _integer_oracle(_cum_power(ell, L), m)


def test_prop21a_m1_is_exactly_zero():
    assert exact_prop21a(2, 1, 4).lhs == 0.0


def test_prop21a_gcd_hypothesis():
    with pytest.raises(HypothesisError) as err:
        exact_prop21a(2, 4, 3)
    assert err.value.name == "gcd_m_ell"


def test_prop21a_feasibility_guard():
    with pytest.raises(ValueError):
        exact_prop21a(2, 3, 11)  # 2^22 pairs


def test_prop21_relabel_invariance():
    # F only distinguishes the root 1 from the rest; relabeling which index
    # plays that role must not change the sum
    ell, m, L = 3, 2, 3
    digits = _digit_matrix(ell, L)
    base = None
    for c in range(ell):
        f = np.zeros(ell, dtype=np.int64)
        f[c] = ell
        val = _pair_sum(_prefix_sums(digits, f), m)
        if base is None:
            base = val
        assert val == base


@pytest.mark.parametrize("m,L", sorted(PROP21C_EXPECTED))
def test_prop21c_regression_and_bound(m, L):
    res = exact_prop21c(m, L)
    assert res.lhs == PROP21C_EXPECTED[(m, L)]
    assert res.bound == 2 ** (2 * L + 2) * m**4 * L
    assert res.passed


def test_prop21c_matches_integer_oracle():
    for m, L in [(2, 3), (3, 2), (4, 4)]:
        res = exact_prop21c(m, L)
        digits = _digit_matrix(2, L)
        assert res.lhs == _integer_oracle(digits.cumsum(axis=1), m)


def test_prop21c_small_L1():
    # four pairs of one-bit sequences, small enough to check by hand count
    res = exact_prop21c(5, 1)
    assert res.lhs == _integer_oracle(_digit_matrix(2, 1).cumsum(axis=1), 5)
    assert res.passed


def test_prop21b_regression():
    res = exact_prop21b(2, 3, 2, 2)
    assert res.lhs == 42624
    assert res.passed


def test_prop21b_k1_agrees_with_a():
    # part a is part b at k = 1; over criterion 4's grid both equal the
    # integer oracle against part a's own bound 7 m^4 L ell^(2L + 2)
    for m in (3, 5):
        for L in range(2, 7):
            res = exact_prop21a(2, m, L)
            assert res == exact_prop21b(2, m, L, 1)
            want = EnumResult.compare(_integer_oracle(_cum_power(2, L), m), 7 * m**4 * L * 2 ** (2 * L + 2))
            assert res == want and res.passed


def test_prop21b_matches_integer_oracle():
    ell, m, L, k = 2, 3, 2, 2
    res = exact_prop21b(ell, m, L, k)
    cum = _cum_power(ell, L)
    V = cum.shape[0]
    diffs = (cum[:, None, :] - cum[None, :, :]).reshape(V * V, L)
    mk = m**k
    tot = 0
    for combo in itertools.product(range(V * V), repeat=k):
        Z = np.stack([diffs[c] for c in combo])
        for avec in itertools.product(range(m), repeat=k):
            ok = np.ones(L, dtype=bool)
            for l in range(k):
                ok &= (Z[l] - avec[l]) % m == 0
            tot += (mk * int(ok.sum()) - L) ** 2
    assert res.lhs == tot


@pytest.mark.parametrize("ell,m,L", [(2, 3, 3), (2, 5, 2), (3, 2, 2), (2, 1, 3), (3, 1, 2)])
def test_prop21a_matches_exp_sum_oracle(ell, m, L):
    assert exact_prop21a(ell, m, L).lhs == pytest.approx(_exp_sum_oracle(_cum_power(ell, L), m), rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("m,L", [(3, 3), (4, 2), (5, 1), (1, 3)])
def test_prop21c_matches_exp_sum_oracle(m, L):
    cum = _digit_matrix(2, L).cumsum(axis=1)
    assert exact_prop21c(m, L).lhs == pytest.approx(_exp_sum_oracle(cum, m), rel=1e-9, abs=1e-6)


@pytest.mark.parametrize(
    "ell,m,L,k",
    [(2, 3, 2, 1), (2, 3, 2, 2), (2, 5, 1, 2), (2, 3, 1, 3), (3, 2, 1, 2), (3, 2, 1, 3), (2, 1, 2, 2), (2, 1, 1, 3)],
)
def test_prop21b_matches_exp_sum_oracle(ell, m, L, k):
    want = _exp_sum_oracle(_cum_power(ell, L), m, k)
    assert exact_prop21b(ell, m, L, k).lhs == pytest.approx(want, rel=1e-9, abs=1e-6)


def test_prop21_guard_edge_values():
    # the largest enumerations the guard admits; values from the complex
    # exponential-sum implementation, which took 0.8 s, 1.1 s and 8.2 s
    assert exact_prop21a(2, 3, 10).lhs == 99265200
    assert exact_prop21c(5, 10).lhs == 513364000
    assert exact_prop21b(2, 3, 5, 2).lhs == 489591936


def test_prop21b_m1_and_guard():
    assert exact_prop21b(2, 1, 2, 2).lhs == 0.0
    with pytest.raises(ValueError):
        exact_prop21b(2, 3, 6, 2)  # 2^24 combined pairs


def test_enum_result_decides_on_exact_integers():
    # at 2^60 the floats of bound and bound + 1 are equal, so only the
    # integers separate lhs = bound (passes) from lhs = bound + 1 (fails)
    for bound in (0, 7, 2**60, 7 * 3**4 * 10 * 2**22):
        at = EnumResult.compare(bound, bound)
        above = EnumResult.compare(bound + 1, bound)
        assert at.passed and not above.passed
        assert at == EnumResult(float(bound), float(bound), True)
        assert type(above.lhs) is float and type(above.bound) is float
    assert float(2**60 + 1) == float(2**60)


# ---------------------------------------------------------------- block model


def test_block_types_match_path_enumeration():
    # brute force over all step paths and start residues for a tiny model
    ell, m, L = 2, 3, 2
    types, probs = _block_type_distribution(_steps(ell, Fraction(1, ell), m, 1), m, 1, L)
    got = {tuple(t): p for t, p in zip(types.tolist(), probs)}

    q = Fraction(1, ell)
    pq = q * (1 - q)
    stepdist = [(ell % m, pq), ((-ell) % m, pq), (0, 1 - 2 * pq)]
    want: dict[tuple, Fraction] = {}
    for path in itertools.product(stepdist, repeat=L):
        pr = math.prod([s[1] for s in path], start=Fraction(1))
        for start in range(m):
            z = start
            counts = [0] * m
            for s, _ in path:
                z = (z + s) % m
                counts[z] += 1
            key = tuple(counts)
            want[key] = want.get(key, Fraction(0)) + pr * Fraction(1, m)
    assert set(got) == set(want)
    for key, frac in want.items():
        assert got[key] == pytest.approx(float(frac), abs=1e-12)


@pytest.mark.parametrize("a,q,m,k", [(2, Fraction(1, 2), 3, 1), (3, Fraction(1, 3), 2, 2), (1, Fraction(1, 4), 3, 1),
                                      (1, Fraction(0), 2, 1), (5, Fraction(1, 5), 5, 2), (2, Fraction(1, 2), 4, 3)])
def test_steps_match_literal_law(a, q, m, k):
    # each coordinate draws v, v' independently: a with probability q, else 0
    want: dict[tuple, Fraction] = {}
    draws = [(a, q), (0, 1 - q)]
    for combo in itertools.product(itertools.product(draws, draws), repeat=k):
        vec = tuple((v - w) % m for (v, _), (w, _) in combo)
        pr = math.prod([pv * pw for (_, pv), (_, pw) in combo], start=Fraction(1))
        want[vec] = want.get(vec, Fraction(0)) + pr
    steps = _steps(a, q, m, k)
    assert [sv for sv, _ in steps] == sorted(set(sv for sv, _ in steps))
    assert dict(steps) == want


# (3, 2, 2, 10) carries its weights as Python ints: 81^10 * 4 >= 2^63
POWER_GRID = [
    (2, 3, 1, 5), (2, 3, 2, 8), (2, 3, 3, 3), (2, 100, 1, 5), (2, 250, 1, 5),
    (3, 4, 2, 4), (3, 2, 2, 10), (2, 3, 1, 40), (2, 1, 1, 5), (2, 3, 1, 1),
]


@pytest.mark.parametrize("ell,m,k,L", POWER_GRID)
def test_block_types_match_fraction_dp_power_steps(ell, m, k, L):
    steps = _steps(ell, Fraction(1, ell), m, k)
    types, probs = _block_type_distribution(steps, m, k, L)
    want_types, want_probs = _fraction_block_types(steps, m, k, L)
    assert types.dtype == want_types.dtype and np.array_equal(types, want_types)
    assert np.array_equal(probs, want_probs)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3001, 10007)])
@pytest.mark.parametrize("m,L", [(3, 5), (2, 6), (1, 3)])
def test_block_types_match_fraction_dp_bernoulli_steps(alpha, m, L):
    # alpha in {0, 1} gives zero-probability steps, whose types stay with weight 0
    steps = _steps(1, alpha, m, 1)
    types, probs = _block_type_distribution(steps, m, 1, L)
    want_types, want_probs = _fraction_block_types(steps, m, 1, L)
    assert np.array_equal(types, want_types)
    assert np.array_equal(probs, want_probs)
    if alpha in (0, 1) and m > 1:
        assert (probs == 0).any()


def test_model_m1_quantiles_zero():
    ms = model_reference(2, 1, 5, blocks=500, trials=50, seed=1)
    assert ms.q50 == ms.q95 == ms.q99 == 0.0


def test_model_quantile_stability_under_doubling():
    a = model_reference(2, 3, 5, blocks=2000, trials=400, seed=11)
    b = model_reference(2, 3, 5, blocks=2000, trials=800, seed=11)
    assert abs(a.q95 - b.q95) / a.q95 < 0.10


def test_model_thread_determinism():
    # fewer trials than threads, and trials that split unevenly over threads
    for trials, threads in [(100, 4), (3, 4), (7, 2), (7, 3)]:
        a = model_reference(2, 3, 5, blocks=3000, trials=trials, seed=9, threads=1)
        b = model_reference(2, 3, 5, blocks=3000, trials=trials, seed=9, threads=threads)
        assert np.array_equal(a.discrepancies, b.discrepancies)


@pytest.mark.parametrize("m,k,L", [(3, 1, 5), (100, 1, 3), (3, 2, 3)])
def test_model_matches_per_trial_streams(m, k, L):
    # each trial's discrepancy, computed alone from a fresh trial_rng stream
    blocks, trials, seed = 400, 9, 2**63 + 5
    types, probs = _block_type_distribution(_steps(2, Fraction(1, 2), m, k), m, k, L)
    probs = probs / probs.sum()
    want = [
        float((((trial_rng(seed, t).multinomial(blocks, probs) @ types) / (blocks * L) - 1 / m**k) ** 2).sum())
        for t in range(trials)
    ]
    got = model_reference_joint(2, m, L, k, blocks=blocks, trials=trials, seed=seed, threads=2)
    assert got.discrepancies.tolist() == want


def test_model_matches_direct_block_walks():
    # the multinomial over block types stands for N independent L-step walks
    # from uniform starts; simulate those walks directly from walk_steps
    ell, m, L, blocks, trials = 2, 3, 4, 200, 400
    model = model_reference(ell, m, L, blocks=blocks, trials=trials, seed=21).discrepancies
    cfg = WalkConfig(ell=ell, m=m, L=blocks * L, trials=trials, seed=22)
    starts = np.random.default_rng(23).integers(0, m, size=(trials, blocks, 1))
    direct = np.empty(trials)
    for t in range(trials):
        z = (starts[t] + np.cumsum(walk_steps(cfg, t).reshape(blocks, L), axis=1)) % m
        phi = np.bincount(z.ravel(), minlength=m) / (blocks * L)
        direct[t] = ((phi - 1 / m) ** 2).sum()
    # a discrepancy is close to a scaled chi-square with m - 1 = 2 degrees of
    # freedom (an exponential); over 400 trials the mean has a relative
    # standard error of about 5%, the median and q95 about 7%, so 7% and 10%
    # for the difference of two samples; each tolerance is 3 to 3.5 of those
    assert direct.mean() == pytest.approx(model.mean(), rel=0.20)
    for q, rel in ((0.5, 0.30), (0.95, 0.35)):
        assert np.quantile(direct, q) == pytest.approx(np.quantile(model, q), rel=rel)


def test_model_discrepancies_scale_with_blocks():
    # averaging over more blocks concentrates the histogram
    small = model_reference(2, 3, 4, blocks=100, trials=300, seed=4)
    large = model_reference(2, 3, 4, blocks=10_000, trials=300, seed=4)
    assert large.q50 < small.q50


def test_bernoulli_model():
    ms = model_reference_bernoulli(Fraction(1, 4), 3, 5, blocks=1000, trials=100, seed=6)
    assert ms.q99 >= ms.q95 >= ms.q50 >= 0
    with pytest.raises(ValueError):
        model_reference_bernoulli(1.5, 3, 5, blocks=10, trials=10, seed=0)


def test_joint_model_and_guard():
    ms = model_reference_joint(2, 3, 3, 2, blocks=1000, trials=100, seed=8)
    assert ms.q99 >= 0
    with pytest.raises(ValueError, match="^joint cell space too large for the block model$"):
        model_reference_joint(2, 100, 3, 2, blocks=10, trials=10, seed=0)
    # 3^2 cells pass the cell guard; at L = 15 the DP reaches C(22, 8) =
    # 319770 re-centred states
    with pytest.raises(ValueError, match="^block model state space exceeds the feasibility guard$"):
        model_reference_joint(2, 3, 15, 2, blocks=10, trials=10, seed=0)


def test_joint_block_types_feasible_at_l11():
    # every histogram of 11 visits over 9 cells, C(19, 8) of them
    types, probs = _block_type_distribution(_steps(2, Fraction(1, 2), 3, 2), 3, 2, 11)
    assert types.shape == (math.comb(19, 8), 9)
    assert (types.sum(axis=1) == 11).all()
    assert abs(probs.sum() - 1) <= 1e-12


def test_block_type_dp_keeps_no_position(monkeypatch):
    # re-centred states are m^k = 9 counts wide; the largest merge is the
    # rotation of the C(15, 8) = 6435 final states over 9 start cells
    widths, lengths = set(), []

    def spy(rows, weights):
        widths.add(rows.shape[1])
        lengths.append(len(rows))
        return merge(rows, weights)

    merge = rwalk._merge_rows
    monkeypatch.setattr(rwalk, "_merge_rows", spy)
    types, _ = _block_type_distribution(_steps(2, Fraction(1, 2), 3, 2), 3, 2, 8)
    assert len(types) == math.comb(16, 8)
    assert widths == {9}
    assert max(lengths) <= 57915


def test_model_validation():
    with pytest.raises(ValueError):
        model_reference(1, 3, 5, blocks=10, trials=10, seed=0)
    with pytest.raises(ValueError):
        model_reference(2, 3, 5, blocks=0, trials=10, seed=0)


@pytest.mark.parametrize("ell,m,k,L", [(2, 3, 1, 5), (2, 3, 2, 3)])
def test_visit_sums_match_per_trial_products(ell, m, k, L, monkeypatch):
    # float64 batch products against each trial's int64 multinomial @ types,
    # for the 21 types of criterion 9's shape and a k = 2 model; batches of
    # 1, of 4 with a short last one, and the default, at 1, 2 and 3 threads.
    # The batches are the units handed to workers, so their number is fixed
    # by the trials and the batch alone.
    blocks, trials, seed = 777, 11, 41
    types, probs = _block_type_distribution(_steps(ell, Fraction(1, ell), m, k), m, k, L)
    probs = probs / probs.sum()
    assert k == 2 or len(types) == 21
    want = np.array([trial_rng(seed, t).multinomial(blocks, probs) @ types for t in range(trials)])
    assert want.dtype == np.int64
    units = []
    run_blocks = rwalk.run_blocks
    monkeypatch.setattr(rwalk, "run_blocks", lambda fn, n, threads: units.append(n) or run_blocks(fn, n, threads))
    for batch, n in ((1, trials), (4 * len(types), 3), (rwalk._VISIT_BATCH, 1)):
        monkeypatch.setattr(rwalk, "_VISIT_BATCH", batch)
        for threads in (1, 2, 3):
            units.clear()
            got = rwalk._visit_sums(types.T.astype(np.float64), probs, blocks, seed, trials, threads)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert units == [n]


def test_visit_sums_exact_below_2_53():
    # one block type holds every visit at the largest blocks the guard
    # admits, so each sum is blocks * L itself, just under 2^53
    L = 5
    blocks = ((1 << 53) - 1) // L
    cells = np.array([[L, 0], [0, L], [0, 0]], dtype=np.float64)
    got = rwalk._visit_sums(cells, np.array([1.0, 0.0]), blocks, 0, 3, 1)
    assert got[:, 0].tolist() == [blocks * L] * 3 and not got[:, 1:].any()
    assert blocks * L == 2**53 - 2


def test_model_refuses_visit_sums_past_2_53(monkeypatch):
    # the guard fires before the DP, whose spy would record a call
    rwalk._sampling_law.cache_clear()
    calls = []
    dp = rwalk._block_type_distribution
    monkeypatch.setattr(rwalk, "_block_type_distribution", lambda *a: calls.append(a) or dp(*a))
    for L, blocks in ((5, -(-(2**53) // 5)), (8, 2**50)):
        with pytest.raises(InfeasibleModelError, match="2\\^53"):
            model_reference(2, 3, L, blocks=blocks, trials=2, seed=0)
    assert not calls
    ms = model_reference(2, 3, 5, blocks=2**53 // 5, trials=2, seed=0)
    assert len(calls) == 1 and ms.q99 >= ms.q50 >= 0


def test_one_sampling_law_per_shape(monkeypatch):
    # repeated calls on one shape run the DP once and sample the same law;
    # a new shape replaces it
    rwalk._sampling_law.cache_clear()
    calls = []
    dp = rwalk._block_type_distribution
    monkeypatch.setattr(rwalk, "_block_type_distribution", lambda *a: calls.append(a[1:]) or dp(*a))
    first = model_reference(2, 3, 5, blocks=40, trials=20, seed=3)
    again = model_reference(2, 3, 5, blocks=40, trials=20, seed=3)
    assert calls == [(3, 1, 5)]
    assert np.array_equal(first.discrepancies, again.discrepancies)
    steps = _steps(2, Fraction(1, 2), 3, 1)
    cells, probs = rwalk._sampling_law(steps, 3, 1, 5)
    assert len(calls) == 1
    assert not cells.flags.writeable and not probs.flags.writeable
    types, want = dp(steps, 3, 1, 5)
    assert cells.dtype == np.float64 and np.array_equal(cells, types.T)
    assert np.array_equal(probs, want / want.sum())
    model_reference_joint(2, 3, 4, 2, blocks=10, trials=5, seed=1)
    model_reference(2, 3, 5, blocks=40, trials=20, seed=3)
    assert calls == [(3, 1, 5), (3, 2, 4), (3, 1, 5)]


def test_quantile_replica_is_bitwise_numpy():
    # ties, constant samples and spread values, for every sample size the
    # model could see up to 300 and the quantiles at both ends
    rng = np.random.default_rng(50)
    qs = [0, 0.5, 0.95, 0.99, 1]
    for n in range(1, 301):
        samples = [
            rng.exponential(1e-4, size=n),
            rng.integers(0, 4, size=n) / 7.0,
            np.full(n, 0.1),
            rng.choice([0.0, 1e-300, 3.5, 2.0**-40], size=n),
        ]
        for values in samples:
            want = np.quantile(values, qs)
            ordered = np.sort(values)
            got = [rwalk._quantile(ordered, q) for q in qs]
            assert [float(w).hex() for w in want] == [g.hex() for g in got]


def test_model_imports_no_numpy_ma():
    # np.quantile imports numpy.ma through np.unique on first use; the
    # model's replica must not.  numpy 1.24 imports numpy.ma with numpy
    # itself, and there this checks nothing
    import os
    import subprocess
    from pathlib import Path

    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from curvestats import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['phi', '--p', '10007', '--ell', '2', '--m', '3', '--poly', '1,1,0,1',\n"
        "                    '--window', '50', '--block', '5', '--trials', '50', '--seed', '0'])\n"
        "print(code, before, 'numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    assert out[0] == "0"
    assert out[2] == out[1] or out[1] == "True"
