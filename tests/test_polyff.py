"""Polynomial arithmetic, factorization, and independence tests."""

import math
import random

import pytest
import sympy

from curvestats.ffield import is_prime
from curvestats.polyff import (
    Factorization,
    admissible,
    constant,
    eval_poly,
    factor,
    is_complete_power,
    multiplicatively_independent,
    poly,
    shift_combination,
    x_poly,
)

PRIMES_1K = [q for q in range(3, 1000) if is_prime(q)]


def random_poly(rng, p, max_deg, nonzero=True):
    deg = rng.randrange(0, max_deg + 1)
    cs = [rng.randrange(p) for _ in range(deg + 1)]
    P = poly(cs, p)
    if nonzero and P.is_zero:
        return constant(1 + rng.randrange(p - 1), p)
    return P


# ---------------------------------------------------------------- evaluation


def test_eval_examples():
    assert eval_poly(poly((1, 0, 1), 5), 2) == 0  # x^2 + 1 at 2 over F_5
    assert eval_poly(constant(3, 7), 6) == 3
    for p in (7, 101):
        for a in range(p):
            assert eval_poly(x_poly(p), a) == a


def test_eval_vec_matches_scalar():
    import numpy as np

    rng = random.Random(10)
    for _ in range(20):
        p = rng.choice(PRIMES_1K)
        P = random_poly(rng, p, 6)
        xs = np.arange(p)
        vec = P.eval_vec(xs)
        assert [int(v) for v in vec] == [P(x) for x in range(p)]
    # inputs outside [0, p), other integer dtypes, the zero and constant
    # polynomials, and a modulus on the object path
    for p in (3, 101, 997, 4294967311):
        xs = np.arange(-3 * p, 3 * p, max(1, p // 50), dtype=np.int64)
        big = np.array([0, p - 1, p, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
        inputs = [(xs, xs.tolist()), (big, big.tolist())]
        if p < 2**31:
            nonneg = xs[xs >= 0]
            inputs += [
                (xs.astype(np.int32), xs.tolist()),
                (nonneg.astype(np.uint32), nonneg.tolist()),
                (nonneg.astype(np.uint64), nonneg.tolist()),
            ]
        for P in (random_poly(rng, p, 6), poly((), p), constant(rng.randrange(1, p), p)):
            for arr, ints in inputs:
                vec = P.eval_vec(arr)
                assert vec.dtype == (object if p > 2**32 else np.int64)
                assert [int(v) for v in vec] == [P(x) for x in ints]


def test_eval_vec_bound_tracking_matches_scalar():
    import numpy as np

    from curvestats.ffield import _INT64_MOD_LIMIT

    # the tracked accumulator bound decides where Horner reduces; these
    # moduli put (p - 1) * p right under 2^63 or let several steps pass, and
    # at 1449, 1448^6 < 2^63 <= 1448^6 + 1448^5, so with every coefficient
    # p - 1 only the bound's constant terms call for the reduction
    largest = next(q for q in range(_INT64_MOD_LIMIT, 0, -1) if is_prime(q))
    assert largest == 3037000493
    rng = random.Random(12)
    for p in (_INT64_MOD_LIMIT, largest, 8388593, 1449):
        top = p - 1
        inside = np.array([0, top, 1, top - 1] + [rng.randrange(p) for _ in range(12)])
        outside = np.array([-1, -top, p, 2 * p + 3, -(2**62), 2**63 - 1, -(2**63)])
        negative = np.array([-1, 0, top, -top, -(2**63)])  # below p, not all in [0, p)
        small = [0, 1, -1, 2**31 - 1, -(2**31)] + [rng.randrange(-(2**31), 2**31) for _ in range(8)]
        huge = np.array([2**63, 2**63 + p, 2**64 - 1, 0, top], dtype=np.uint64)
        inputs = [
            inside.astype(np.int64),
            outside.astype(np.int64),
            negative.astype(np.int64),
            np.array(small, dtype=np.int32),
            np.array(small[:4], dtype=np.int32).astype(np.uint32),
            huge,
            np.zeros(0, dtype=np.int64),
            np.array(top, dtype=np.int64),
        ]
        for deg in range(1, 9):
            low = [rng.randrange(p) for _ in range(deg)]
            for cs in (low + [1], low + [top], [top] * (deg + 1)):
                P = poly(cs, p)
                for xs in inputs:
                    before = xs.copy()
                    vec = P.eval_vec(xs)
                    assert vec.dtype == np.int64 and vec.shape == xs.shape
                    assert vec.ravel().tolist() == [P(int(x)) for x in xs.ravel()]
                    assert np.array_equal(xs, before)


def test_eval_vec_into_caller_buffers():
    import numpy as np

    # out (and q) are filled and returned, xs is left as it was, and the
    # values equal a fresh call's, for int64 input in and out of [0, p)
    rng = random.Random(13)
    for p in (3, 1449, 10000019, 3037000493):
        edges = [0, p - 1, 1, p, -1, 2**63 - 1, -(2**63)]
        xs = np.array(edges + [rng.randrange(p) for _ in range(9)])
        P = random_poly(rng, p, 6)
        for Q in (P, poly([5, 0, 0, 0, 1], p), constant(1 % p, p), poly((), p)):
            for arr in (xs, xs[:3], xs[:0], np.array(p - 1)):
                before = arr.copy()
                want = Q.eval_vec(arr)
                for q in (None, np.empty_like(arr)):
                    buf = np.full_like(arr, -7)
                    assert Q.eval_vec(arr, out=buf, q=q) is buf
                    assert np.array_equal(buf, want) and buf.shape == arr.shape
                    assert np.array_equal(arr, before)


def test_arithmetic_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice(PRIMES_1K)
        A = random_poly(rng, p, 5, nonzero=False)
        B = random_poly(rng, p, 5)
        S = A + B
        assert S - B == A
        Pr = A * B
        for x in range(min(p, 20)):
            assert Pr(x) == A(x) * B(x) % p


def test_poly_normalization():
    P = poly((1, 0, 0), 7)
    assert P.coeffs == (1,)
    assert poly((7, 14), 7).is_zero
    assert poly((0, 3), 7).degree == 1


# ---------------------------------------------------------------- factorization


def test_factor_examples():
    f = factor(poly((1, 0, 1), 5))  # x^2 + 1 = (x+2)(x+3) mod 5
    assert f.unit == 1
    assert {(pp.coeffs, e) for pp, e in f.factors} == {((2, 1), 1), ((3, 1), 1)}

    f = factor(poly((1, 0, 1), 7))  # irreducible mod 7
    assert f.unit == 1
    assert f.factors == ((poly((1, 0, 1), 7), 1),)

    f = factor(poly((1, 2, 1), 7))  # (x+1)^2
    assert f.factors == ((poly((1, 1), 7), 2),)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(poly((), 7))


def test_factor_reconstruction_random():
    rng = random.Random(12)
    primes = [q for q in range(3, 10_000) if is_prime(q)]
    for _ in range(500):
        p = rng.choice(primes)
        P = random_poly(rng, p, 6)
        fac = factor(P)
        assert fac.product() == P
        seen = [f for f, _ in fac.factors]
        assert len(set(seen)) == len(seen)
        for f, e in fac.factors:
            assert e >= 1
            assert f.lead == 1
            if f.degree <= 3:  # irreducibility spot check: no roots
                if f.degree > 1:
                    assert all(f(x) != 0 for x in range(p))


def test_factor_deterministic_under_seed():
    P = poly((3, 1, 4, 1, 5, 9, 2), 10007)
    assert factor(P, seed=0) == factor(P, seed=0)
    # different seeds may split in a different order but sort identically
    assert factor(P, seed=1).factors == factor(P, seed=0).factors


@pytest.mark.filterwarnings("ignore::DeprecationWarning:sympy")
def test_factor_matches_sympy():
    rng = random.Random(13)
    x = sympy.Symbol("x")
    for _ in range(25):
        p = rng.choice([5, 7, 13, 101, 257])
        P = random_poly(rng, p, 6)
        fac = factor(P)
        expr = sum(int(c) * x**i for i, c in enumerate(P.coeffs))
        unit, sfac = sympy.factor_list(sympy.Poly(expr, x, modulus=p))
        got = {(f.coeffs, e) for f, e in fac.factors}
        want = set()
        for fpoly, e in sfac:
            cs = [int(c) % p for c in reversed(sympy.Poly(fpoly, x, modulus=p).all_coeffs())]
            q = poly(cs, p)
            q = q.monic()
            want.add((q.coeffs, e))
        assert got == want


def test_repeated_factors_with_char_multiplicities():
    # multiplicity equal to p exercises the p-th root branch
    p = 5
    P = poly((1, 1), p) ** 5 * poly((2, 1), p) ** 2
    fac = factor(P)
    assert dict(((f.coeffs, e) for f, e in fac.factors)) == {(1, 1): 5, (2, 1): 2}


# ---------------------------------------------------------------- predicates


def test_is_complete_power_examples():
    assert is_complete_power(poly((1, 2, 1), 7), 2)  # (x+1)^2
    assert not is_complete_power(poly((0, 6, 0, 1), 7), 2)  # x^3 - x squarefree
    assert is_complete_power(poly((0, 0, 4), 7), 2)  # (2x)^2


def test_is_complete_power_leading_unit_matters():
    # 3 is not a square mod 7, so 3*(x+1)^2 is not a complete square
    P = poly((1, 2, 1), 7).scale(3)
    assert not is_complete_power(P, 2)
    assert is_complete_power(P.scale(3), 2)  # 9 = 2 is a QR mod 7


def test_is_complete_power_random_property():
    rng = random.Random(14)
    for _ in range(100):
        p = rng.choice([7, 13, 101, 1009])
        e = rng.choice([2, 3, 4])
        while True:
            P = random_poly(rng, p, 3)
            if P.degree >= 1:
                fac = factor(P)
                if all(m == 1 for _, m in fac.factors):
                    break
        assert is_complete_power(P**e, e)
        c = rng.randrange(p)
        if P(p - c) != 0:  # (x + c) does not divide P
            assert not is_complete_power(P**e * poly((c, 1), p), e)


def test_admissible_examples():
    p = 11
    for n in (1, 2, 3):
        assert admissible(poly((0, (-(n * n)) % p, 0, 1), p), 2)  # x^3 - n^2 x
    assert not admissible(poly((0, 0, 1), p), 3)  # x^2 is a square, gcd(2,3)=1
    assert admissible(poly((0, 0, 1), p), 2)  # obstruction q=2 shares a factor with ell
    with pytest.raises(ValueError):
        admissible(constant(4, p), 2)


# ---------------------------------------------------------------- shifted products


def test_shift_combination_examples():
    p = 13
    X = x_poly(p)
    assert shift_combination(X, 1, (0, 1), (1, 1)) == poly((0, 1, 1), p)  # x(x+1)
    assert shift_combination(X, 2, (0,), (1,)) == poly((0, 2), p)
    Q = shift_combination(poly((1, 0, 1), 5), 1, (0,), (2,))
    assert Q == poly((1, 0, 1), 5) ** 2


def test_shift_combination_validation():
    p = 7
    X = x_poly(p)
    with pytest.raises(ValueError):
        shift_combination(X, 0, (0,), (1,))
    with pytest.raises(ValueError):
        shift_combination(X, 1, (2, 2), (1, 1))
    with pytest.raises(ValueError):
        shift_combination(X, 1, (0, 1), (0, 0))


def test_shifted_products_never_complete_powers():
    # no shifted combination of an admissible P with exponents below ell
    # collapses to a complete ell-th power
    rng = random.Random(15)
    p = 10007
    checked = 0
    while checked < 200:
        ell = rng.choice([2, 3])
        P = random_poly(rng, p, 4)
        if P.degree < 1 or not admissible(P, ell):
            continue
        r = rng.randrange(1, 4)
        if (4 * P.degree) ** r >= p:  # keep r below log p / log(4 deg P)
            continue
        bs = rng.sample(range(p), r)
        es = [rng.randrange(ell) for _ in range(r)]
        if not any(es):
            es[rng.randrange(r)] = 1 + rng.randrange(ell - 1)
        Q = shift_combination(P, 1 + rng.randrange(p - 1), bs, es)
        assert not is_complete_power(Q, ell)
        checked += 1


# ---------------------------------------------------------------- independence


def test_independence_examples():
    p = 7
    X = x_poly(p)
    X2 = poly((0, 0, 1), p)
    res = multiplicatively_independent([X, X2])
    assert not res.independent
    assert res.witness == (2, -1)

    assert multiplicatively_independent([X, poly((1, 1), p)]).independent

    res = multiplicatively_independent([X * poly((1, 1), p), X, poly((1, 1), p)])
    assert not res.independent
    assert res.witness == (1, -1, -1)


def test_independence_witness_is_actual_dependence():
    p = 13
    X = x_poly(p)
    fams = [
        [X, poly((0, 0, 1), p)],
        [X * poly((1, 1), p), X, poly((1, 1), p)],
        [poly((0, 0, 0, 1), p), X],
    ]
    for fam in fams:
        res = multiplicatively_independent(fam)
        assert not res.independent
        e = res.witness
        num = constant(1, p)
        den = constant(1, p)
        for P, ei in zip(fam, e):
            if ei >= 0:
                num = num * P**ei
            else:
                den = den * P ** (-ei)
        # prod P_i^{e_i} = const means num = const * den
        assert num.degree == den.degree
        c = num.lead * pow(den.lead, -1, p) % p
        assert num == den.scale(c)


def test_independence_invariances():
    rng = random.Random(16)
    p = 101
    for _ in range(40):
        fam = [random_poly(rng, p, 4) for _ in range(rng.randrange(2, 5))]
        fam = [P if P.degree >= 1 else P * x_poly(p) for P in fam]
        base = multiplicatively_independent(fam).independent
        perm = list(fam)
        rng.shuffle(perm)
        assert multiplicatively_independent(perm).independent == base
        scaled = [P.scale(1 + rng.randrange(p - 1)) for P in fam]
        assert multiplicatively_independent(scaled).independent == base


def test_independence_rejects_bad_inputs():
    p = 7
    with pytest.raises(ValueError):
        multiplicatively_independent([])
    with pytest.raises(ValueError):
        multiplicatively_independent([constant(3, p)])
    with pytest.raises(ValueError):
        multiplicatively_independent([poly((), p)])
