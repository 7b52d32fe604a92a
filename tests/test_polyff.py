"""Polynomial arithmetic, squarefree decomposition, and independence tests."""

import math
import random

import pytest
import sympy

from curvestats.ffield import is_prime
from curvestats.polyff import (
    _gcd,
    admissible,
    constant,
    eval_poly,
    is_complete_power,
    multiplicatively_independent,
    poly,
    shift_combination,
    squarefree_decomposition,
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


# ---------------------------------------------------------------- squarefree decomposition


def _oracle_factors(P):
    """(unit, [(monic irreducible, multiplicity)]) from sympy.factor_list."""
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(P.coeffs))
    unit, sfac = sympy.factor_list(sympy.Poly(expr, x, modulus=P.p))
    factors = [(poly(reversed(f.all_coeffs()), P.p), e) for f, e in sfac]
    return int(unit) % P.p, factors


def _oracle_parts(P):
    unit, factors = _oracle_factors(P)
    parts = {}
    for f, e in factors:
        parts[e] = parts.get(e, constant(1, P.p)) * f
    return unit, parts


def _frobenius_pullback(P):
    """P(x^p)."""
    cs = [0] * (P.p * P.degree + 1)
    cs[:: P.p] = P.coeffs
    return poly(cs, P.p)


def test_squarefree_decomposition_examples():
    assert squarefree_decomposition(poly((1, 0, 1), 5)) == (1, {1: poly((1, 0, 1), 5)})
    assert squarefree_decomposition(poly((1, 2, 1), 7)) == (1, {2: poly((1, 1), 7)})
    assert squarefree_decomposition(constant(3, 7)) == (3, {})
    # 3 (x+1)^2 x^3 over F_7
    P = (poly((1, 1), 7) ** 2 * poly((0, 0, 0, 1), 7)).scale(3)
    assert squarefree_decomposition(P) == (3, {2: poly((1, 1), 7), 3: x_poly(7)})


def test_repeated_factors_with_char_multiplicities():
    # multiplicities at and above p exercise the p-th root branch
    p = 5
    P = poly((1, 1), p) ** 5 * poly((2, 1), p) ** 2
    assert squarefree_decomposition(P) == (1, {5: poly((1, 1), p), 2: poly((2, 1), p)})
    # x^2 + 2 is irreducible mod 5
    P = poly((1, 1), p) ** 7 * poly((3, 1), p) ** 10 * poly((2, 0, 1), p) ** 25
    parts = {7: poly((1, 1), p), 10: poly((3, 1), p), 25: poly((2, 0, 1), p)}
    assert squarefree_decomposition(P.scale(3)) == (3, parts)


@pytest.mark.filterwarnings("ignore::DeprecationWarning:sympy")
def test_squarefree_decomposition_matches_sympy():
    rng = random.Random(13)
    checked = 0
    for p in (3, 5, 7, 13, 101, 10007):
        for _ in range(12):
            P = random_poly(rng, p, 6)
            if P.degree < 1:
                continue
            cands = [P, P ** rng.randrange(2, 4)]
            if p <= 7:
                # a linear factor of multiplicity >= p, and P(x^p), whose
                # derivative is zero
                lin = poly((rng.randrange(p), 1), p)
                cands += [P * lin ** (p + rng.randrange(3)), _frobenius_pullback(P)]
                cands += [_frobenius_pullback(P) * P]
            for Q in cands:
                assert squarefree_decomposition(Q) == _oracle_parts(Q)
                checked += 1
    assert checked > 150


def test_squarefree_decomposition_reconstruction_random():
    rng = random.Random(12)
    primes = [q for q in range(3, 10_000) if is_prime(q)]
    for _ in range(500):
        p = rng.choice(primes)
        P = random_poly(rng, p, 6)
        if rng.random() < 0.3:
            P = P * random_poly(rng, p, 2) ** rng.randrange(2, 4)
        unit, parts = squarefree_decomposition(P)
        acc = constant(unit, p)
        for i, s in parts.items():
            assert i >= 1 and s.degree >= 1 and s.lead == 1
            assert _gcd(s, s.derivative()).degree == 0
            acc = acc * s**i
        assert acc == P
        for i, s in parts.items():
            for j, t in parts.items():
                assert i == j or _gcd(s, t).degree == 0


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decomposition(poly((), 7))
    for fn in (lambda P: is_complete_power(P, 2), lambda P: admissible(P, 2)):
        with pytest.raises(ValueError):
            fn(poly((), 7))


def test_squarefree_decomposition_rejects_bad_moduli():
    for q in (2, 9):
        with pytest.raises(ValueError):
            squarefree_decomposition(poly((1, 1), q))
        with pytest.raises(ValueError):
            admissible(poly((1, 0, 1), q), 3)


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
            if P.degree >= 1 and set(squarefree_decomposition(P)[1]) == {1}:
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
    with pytest.raises(ValueError, match="mixed moduli"):
        multiplicatively_independent([x_poly(7), x_poly(11)])


def _oracle_independence(fam):
    """Rank and first dependent row's witness over sympy irreducibles."""
    facs = [dict((f.coeffs, e) for f, e in _oracle_factors(P)[1]) for P in fam]
    support = sorted(set().union(*facs))
    M = sympy.Matrix([[fac.get(c, 0) for c in support] for fac in facs])
    for i in range(len(fam)):
        kernel = M[: i + 1, :].T.nullspace()
        if kernel:
            assert len(kernel) == 1  # rows before i are independent
            ints = [int(v) for v in kernel[0] * sympy.ilcm(*[v.q for v in kernel[0]])]
            g = math.gcd(*ints)
            ints = [v // g for v in ints] + [0] * (len(fam) - i - 1)
            sign = 1 if next(v for v in ints if v) > 0 else -1
            return False, tuple(sign * v for v in ints)
    return True, None


@pytest.mark.filterwarnings("ignore::DeprecationWarning:sympy")
def test_independence_matches_irreducible_exponent_matrix():
    # the coprime base of squarefree parts only merges columns of the
    # matrix over irreducible factors, so rank and witness must agree
    rng = random.Random(17)
    dependent = 0
    for trial in range(60):
        p = rng.choice([7, 13, 101, 10007])
        k = rng.randrange(2, 5)
        if trial % 2:
            base = random_poly(rng, p, 3)
            base = base if base.degree >= 1 else base * x_poly(p)
            fam = []
            for _ in range(k):
                bs = rng.sample(range(p), rng.randrange(1, 3))
                es = [rng.randrange(3) for _ in bs]
                es[0] = es[0] or 1
                fam.append(shift_combination(base, 1 + rng.randrange(p - 1), bs, es))
        else:
            pool = [random_poly(rng, p, 2) for _ in range(3)]
            pool = [P if P.degree >= 1 else P * x_poly(p) for P in pool]
            fam = []
            for _ in range(k):
                P = constant(1 + rng.randrange(p - 1), p)
                for Q in pool:
                    P = P * Q ** rng.randrange(3)
                fam.append(P if P.degree >= 1 else P * pool[0])
        res = multiplicatively_independent(fam)
        assert (res.independent, res.witness) == _oracle_independence(fam)
        dependent += not res.independent
    assert 10 <= dependent <= 50
