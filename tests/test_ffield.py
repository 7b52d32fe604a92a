"""Field arithmetic, primitive roots, and character tests."""

import cmath
import random

import numpy as np
import pytest
import sympy

from curvestats import ffield
from curvestats.ffield import (
    Character,
    FieldSpec,
    char_index,
    char_index_table,
    char_indices,
    character,
    factorize,
    floor_mod,
    is_prime,
    legendre,
    pow_mod_vec,
    primitive_root,
)
from curvestats.polyff import poly


# ---------------------------------------------------------------- pow_mod_vec


@pytest.mark.parametrize(
    "base,exp,p,want",
    [
        (2, 10, 1000003, 1024),
        (5, 0, 7, 1),
        (3, 100, 101, 1),  # Fermat: 101 prime, 100 = p - 1
    ],
)
def test_pow_mod_examples(base, exp, p, want):
    assert pow_mod_vec(np.array([base]), exp, p).tolist() == [want]


def test_pow_mod_matches_repeated_multiplication():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.randrange(2, 10_000)
        b = rng.randrange(0, p)
        e = rng.randrange(0, 40)
        acc = 1
        for _ in range(e):
            acc = acc * b % p
        assert pow_mod_vec(np.array([b]), e, p).tolist() == [acc]


def test_pow_mod_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pow_mod_vec(np.array([2]), -1, 7)
    with pytest.raises(ValueError):
        pow_mod_vec(np.array([2]), 3, 1)


def test_pow_mod_vec_matches_scalar():
    rng = random.Random(2)
    p = 1_000_003
    xs = np.array([rng.randrange(0, p) for _ in range(500)], dtype=np.int64)
    for e in (0, 1, 2, 17, (p - 1) // 2, p - 1):
        got = pow_mod_vec(xs, e, p)
        assert got.dtype == np.int64
        assert [int(v) for v in got] == [pow(int(x), e, p) for x in xs]


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int16])
def test_pow_mod_vec_narrow_input(dtype):
    # p is above 2^31 yet still on the int64 path; numpy 2 will not take it
    # as a scalar of the input's own dtype
    p = 3037000493
    info = np.iinfo(dtype)
    vals = [0, 1, 2, 12345, int(info.max)] + ([-1, -3, int(info.min)] if info.min < 0 else [])
    xs = np.array(vals, dtype=dtype)
    for e in (0, 1, 2, 65537, p - 2):
        got = pow_mod_vec(xs, e, p)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(x, e, p) for x in vals]


def test_pow_mod_vec_large_modulus_fallback():
    # 2**61 - 1 is prime and far above the int64 product-safe limit.
    p = (1 << 61) - 1
    xs = np.array([3, 5, 12345678901234567], dtype=np.int64)
    got = pow_mod_vec(xs, 7, p)
    assert [int(v) for v in got] == [pow(int(x), 7, p) for x in xs]


# ---------------------------------------------------------------- primality, factorization


def test_is_prime_small_table():
    small = {n for n in range(200) if sympy.isprime(n)}
    assert {n for n in range(200) if is_prime(n)} == small


def test_is_prime_matches_sympy_random_64bit():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randrange(2, 1 << 63)
        assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize(
    "n,verdict",
    [
        ((1 << 61) - 1, True),  # Mersenne prime
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (1000003, True),
    ],
)
def test_is_prime_known_cases(n, verdict):
    assert is_prime(n) == verdict


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1000002) == ((2, 1), (3, 1), (166667, 1))


def test_factorize_matches_sympy():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 1 << 48)
        got = dict(factorize(n))
        assert got == sympy.factorint(n)
        prod = 1
        for q, e in got.items():
            prod *= q**e
        assert prod == n


# ---------------------------------------------------------------- primitive roots, FieldSpec


@pytest.mark.parametrize("p,g", [(7, 3), (11, 2), (3, 2)])
def test_primitive_root_examples(p, g):
    assert primitive_root(p) == g


def test_primitive_root_is_smallest_generator():
    for p in [q for q in range(3, 200) if is_prime(q)]:
        g = primitive_root(p)
        orders = {h: min(k for k in range(1, p) if pow(h, k, p) == 1) for h in range(2, p)}
        generators = [h for h, o in orders.items() if o == p - 1]
        assert g == min(generators)


def test_primitive_root_rejects_nonprime():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            primitive_root(bad)


def test_fieldspec_from_prime():
    fs = FieldSpec.from_prime(13)
    assert fs.p == 13
    assert fs.g == 2
    assert factorize(fs.p - 1) == ((2, 2), (3, 1))
    for bad in (2, 4, 9, 1000002):
        with pytest.raises(ValueError):
            FieldSpec.from_prime(bad)


# ---------------------------------------------------------------- characters


def test_character_structure():
    fs = FieldSpec.from_prime(7)
    chi = character(fs, 3)
    assert chi.d == 3  # 7 = 1 mod 3, effective order equals requested
    assert chi.exponent == 2
    assert chi.match_table[0] == 1
    assert len(set(chi.match_table)) == chi.d
    assert (fs.p - 1) % chi.d == 0


def test_character_gcd_order():
    fs = FieldSpec.from_prime(7)
    chi = character(fs, 4)  # gcd(4, 6) = 2
    assert chi.d == 2
    with pytest.raises(ValueError):
        character(fs, 1)


def test_char_value_examples():
    fs = FieldSpec.from_prime(7)
    chi2 = character(fs, 2)
    assert char_index(chi2, 2) == 0  # squares mod 7 are {1, 2, 4}
    assert char_index(chi2, 3) == 1
    chi3 = character(fs, 3)
    assert char_index(chi3, 0) is None
    assert char_index(chi3, 7) is None


def test_char_multiplicativity_exhaustive():
    # index(xy) = index(x) + index(y) mod d, every prime p <= 200
    for p in [q for q in range(3, 201) if is_prime(q)]:
        fs = FieldSpec.from_prime(p)
        for ell in (2, 3, 4):
            chi = character(fs, ell)
            idx = char_index_table(chi).astype(np.int64)
            x = np.arange(1, p)
            prod = np.outer(x, x) % p
            lhs = idx[prod]
            rhs = (idx[x][:, None] + idx[x][None, :]) % chi.d
            assert (lhs == rhs).all()


def test_char_orthogonality_exact():
    # each unity index is hit exactly (p-1)/d times, so the value sum vanishes
    for p, ell in [(13, 2), (13, 3), (13, 4), (31, 3), (101, 5)]:
        chi = character(FieldSpec.from_prime(p), ell)
        counts = np.bincount(char_index_table(chi)[1:], minlength=chi.d)
        assert set(counts.tolist()) == {(p - 1) // chi.d}
        total = sum(c * cmath.exp(2j * cmath.pi * j / chi.d) for j, c in enumerate(counts))
        assert abs(total) < 1e-9


def test_ellth_powers_are_residues():
    for p, ell in [(13, 3), (31, 5), (29, 4), (101, 2)]:
        chi = character(FieldSpec.from_prime(p), ell)
        for y in range(1, p):
            assert char_index(chi, pow(y, ell, p)) == 0


def test_legendre_examples():
    assert legendre(4, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(7, 7) == 0


def test_legendre_agrees_with_quadratic_character():
    for p in [q for q in range(3, 501) if is_prime(q)]:
        chi = character(FieldSpec.from_prime(p), 2)
        for a in range(p):
            j = char_index(chi, a)
            sym = legendre(a, p)
            if j is None:
                assert sym == 0
            else:
                assert sym == (1 if j == 0 else -1)


def test_char_indices_agrees_with_table_and_scalar():
    # the power-map path against the table and the scalar char_index;
    # d = 3 gives an int8 table of p bytes, d = 40008 > 16384 an int32 one
    # of 4p bytes whose blocks are not a multiple of d
    for p, ell, width in [(10009, 3, 1), (40009, 40008, 4)]:
        chi = character(FieldSpec.from_prime(p), ell)
        table = char_index_table(chi)
        assert table.nbytes == width * p
        pw = ffield._char_indices_pow(chi, np.arange(p, dtype=np.int64))
        assert table.dtype == pw.dtype
        assert np.array_equal(table, pw)
        rng = random.Random(5)
        for _ in range(50):
            x = rng.randrange(0, p)
            j = char_index(chi, x)
            assert table[x] == (-1 if j is None else j)


@pytest.mark.parametrize("p, ell", [
    (3, 2), (5, 4),  # d = p - 1: H = {1}, and at p = 3 no coset is walked
    (40009, 2),  # H in one block of 16384 and a tail of 3620
    (40009, 3), (40009, 4),  # one H block, and one or two cosets walked
    (100003, 3),  # H in three blocks, the last of 566
    (65557, 4),  # (p - 1)/d = 16389: two H blocks, the last of 5
    (65537, 256),  # int32 table; H of 256, the 254 cosets 64 to a pass
    (40009, 5),  # d = 1: the whole group is the coset no walk writes
    (40009, 40008),  # d > 16384: H = {1}, the cosets 16384 to a pass
])
def test_char_index_table_matches_oracles(p, ell):
    # the walk leaves the coset g^(d - 1) H at the fill value;
    # character() builds no table, and the first read of chi.table does
    character.cache_clear()
    chi = character(FieldSpec.from_prime(p), ell)
    assert "table" not in vars(chi) and "power_bits" not in vars(chi)
    table = char_index_table(chi)
    want = ffield._char_indices_pow(chi, np.arange(p, dtype=np.int64))
    assert table.dtype == want.dtype == (np.int8 if chi.d < 128 else np.int32)
    assert table.shape == (p,)
    assert np.array_equal(table, want)
    assert not chi.table.flags.writeable
    assert np.array_equal(chi.table, table)
    assert "power_bits" not in vars(chi)
    g, d = chi.field.g, chi.d
    probes = {0, 1, p - 1}
    probes |= {pow(g, j, p) for j in range(min(d, 20))}
    probes |= {pow(g, d - 1 + d * t, p) for t in range(20)}
    for x in probes:
        j = char_index(chi, x)
        assert table[x] == (-1 if j is None else j)


def test_char_index_table_walks_nothing_at_d_1(monkeypatch):
    # all of F_p^* is the fill value's coset, so no power is computed
    monkeypatch.setattr(ffield, "_power_blocks", lambda *args: pytest.fail("block walked"))
    chi = ffield.character(FieldSpec.from_prime(40009), 5)
    assert chi.d == 1
    want = ffield._char_indices_pow(chi, np.arange(40009, dtype=np.int64))
    assert np.array_equal(char_index_table(chi), want)


def _int_edges(p: int) -> list[np.ndarray]:
    """The int64 extremes around [0, p), and each narrower integer dtype's."""
    edges = [np.array([-(2**63), 2**63 - 1, -1, 0, 1, p - 1, p, -p, 2 * p + 1], dtype=np.int64)]
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        edges.append(np.array([info.min, info.max, 0, 1, info.max // 3], dtype=dtype))
    return edges


def test_char_indices_table_path_matches_power_map(monkeypatch):
    # for d != 2 the first char_indices call builds exactly one index table,
    # and every later call, on any input, reads it; d = 2 reads the bitmap
    # of squares and builds no table
    builds = []
    build = ffield.char_index_table

    def counted(chi):
        builds.append(chi.field.p)
        return build(chi)

    monkeypatch.setattr(ffield, "char_index_table", counted)
    rng = np.random.default_rng(4040)
    for p in (3, 13, 10009, 1000003):
        fs = FieldSpec.from_prime(p)
        for ell in (2, 3, 4, 5):
            character.cache_clear()
            builds.clear()
            chi = character(fs, ell)
            assert builds == []
            want_builds = [] if chi.d == 2 else [p]
            n = 4096
            xs = rng.integers(-3 * p, 3 * p, size=n)
            xs[: n // 8] = rng.integers(-3, 4, size=n // 8) * p  # zeros mod p
            got = char_indices(chi, xs)
            assert builds == want_builds
            assert ("table" in vars(chi)) == (chi.d != 2)
            assert character(fs, ell) is chi
            want = ffield._char_indices_pow(chi, xs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            # the one-pass range check at the int64 extremes, and narrower
            # integer dtypes, which are widened first
            for xs in _int_edges(p):
                want = [-1 if (j := char_index(chi, int(x))) is None else j for x in xs]
                assert char_indices(chi, xs).tolist() == want
            assert builds == want_builds


@pytest.mark.parametrize("p", [3, 5, 7, 13, 10009, 1000003])
def test_order_two_indices_read_the_bitmap(p, monkeypatch):
    # d = 2: index 0 where the bit of squares is set, 1 where it is clear,
    # -1 at 0, with no index table ever built
    monkeypatch.setattr(ffield, "char_index_table", lambda chi: pytest.fail("index table built"))
    character.cache_clear()
    chi = character(FieldSpec.from_prime(p), 2)
    assert chi.d == 2
    xs = np.arange(p, dtype=np.int64)
    got = char_indices(chi, xs)
    assert got.dtype == np.int8
    assert np.array_equal(got, ffield._char_indices_pow(chi, xs))
    assert np.count_nonzero(got == 0) == np.count_nonzero(got == 1) == (p - 1) // 2
    # the int64 extremes, narrow dtypes, a grid and 0-d inputs, whose
    # shapes are kept
    grid = np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * (p // 3 + 1)
    for xs in [*_int_edges(p), grid, *(np.array(x) for x in (0, 1, p - 1))]:
        got = char_indices(chi, xs)
        want = ffield._char_indices_pow(chi, xs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for x in (0, 1, p - 1):
        want = char_index(chi, x)
        assert char_indices(chi, np.array(x)).tolist() == (-1 if want is None else want)
    assert "table" not in vars(chi) and chi.power_bits is not None


@pytest.mark.parametrize("p,ell", [(61, 3), (61, 4), (61, 5), (10141, 3), (10141, 4), (10141, 5)])
def test_higher_orders_keep_the_index_table(p, ell, monkeypatch):
    # d >= 3 reads the index table, built once, and never builds the bitmap
    builds = []
    build = ffield.char_index_table

    def counted(chi):
        builds.append(chi.d)
        return build(chi)

    monkeypatch.setattr(ffield, "char_index_table", counted)
    monkeypatch.setattr(ffield, "power_bitmap", lambda chi: pytest.fail("bitmap built"))
    character.cache_clear()
    chi = character(FieldSpec.from_prime(p), ell)
    assert chi.d == ell
    xs = np.arange(-p, 2 * p, dtype=np.int64)
    assert np.array_equal(char_indices(chi, xs), ffield._char_indices_pow(chi, xs))
    for xs in _int_edges(p):
        assert np.array_equal(char_indices(chi, xs), ffield._char_indices_pow(chi, xs))
    assert builds == [ell] and "power_bits" not in vars(chi)


@pytest.mark.parametrize("p,dtype", [(16777259, np.int64), (10009, object)])
def test_char_indices_without_table(p, dtype, monkeypatch):
    # any call above 2^24 and object input use the power map and build no
    # table; above 2^24 the character has no tables at all
    calls = []
    pow_path = ffield._char_indices_pow

    def counted(chi, xs):
        calls.append(len(xs))
        return pow_path(chi, xs)

    for name in ("char_index_table", "power_bitmap"):
        monkeypatch.setattr(ffield, name, lambda chi: pytest.fail("table built"))
    monkeypatch.setattr(ffield, "_char_indices_pow", counted)
    character.cache_clear()
    chi = character(FieldSpec.from_prime(p), 2)
    n = 1000
    xs = np.arange(p - n, p, dtype=np.int64).astype(dtype)
    got = char_indices(chi, xs)
    assert calls == [n]
    for i in np.linspace(0, n - 1, 10).astype(np.int64):
        assert got[i] == char_index(chi, int(xs[i]))
    if p > 1 << 24:
        assert chi.table is None and chi.power_bits is None
    else:
        assert "table" not in vars(chi)


@pytest.mark.parametrize("p", [13, 1000003, 16777259])
def test_every_entry_point_reduces_the_same_way(p):
    # pow_mod_vec, char_indices on each of its paths (the bitmap at d = 2
    # and the index table at d = 3 up to 2^24, the power map above it),
    # the power map itself and eval_vec all take their input through one
    # reduction, so each agrees with Python ints on every integer dtype,
    # 0-d, empty, 2-d and (at small p) object input, and writes none of it
    fs = FieldSpec.from_prime(p)
    chis = [character(fs, ell) for ell in (2, 3)]
    P = poly([1, 1, 0, 1], p)
    e = (p - 1) // 2
    inputs = [
        *_int_edges(p),
        *(np.array(x, dtype=np.int64) for x in (0, 1, p - 1, p, -1, 2**63 - 1)),
        np.array(-1, dtype=np.int8),
        np.array(65535, dtype=np.uint16),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int16),
        np.arange(12, dtype=np.int64).reshape(3, 4) * (p // 12),  # in [0, p): read as is
        np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * (p // 3 + 1),
    ]
    if p < 100:
        inputs.append(np.array([2**70, -(2**70), -1, 0, p, 2 * p + 5], dtype=object))

    def check(got, shape, want, dtype):
        assert np.shape(got) == shape and np.asarray(got).dtype == dtype
        assert np.asarray(got).reshape(-1).tolist() == want

    for xs in inputs:
        before = xs.copy()
        ints = [int(x) for x in xs.reshape(-1)]
        check(pow_mod_vec(xs, e, p), xs.shape, [pow(x, e, p) for x in ints], np.int64)
        check(P.eval_vec(xs), xs.shape, [P(x) for x in ints], np.int64)
        for chi in chis:
            want = [-1 if (j := char_index(chi, x)) is None else j for x in ints]
            check(char_indices(chi, xs), xs.shape, want, np.int8)
            check(ffield._char_indices_pow(chi, xs), xs.shape, want, np.int8)
        assert xs.dtype == before.dtype and np.array_equal(xs, before)


@pytest.mark.parametrize("p", [101, 3037000507])
def test_every_entry_point_refuses_non_integers(p):
    # fractions were once truncated on the way into F_p (2.7 read as 2);
    # 3037000507 is the first prime past the int64 path, where the object
    # path reads each element by operator.index
    fs = FieldSpec.from_prime(p)
    chis = [character(fs, ell) for ell in (2, 4)]
    P = poly([1, 1], p)
    bad = {
        "float64": np.array([2.7]),
        "complex128": np.array([2 + 0j]),
        "bool": np.array([True, False]),
        "2.5": np.array([3, 2.5], dtype=object),
    }
    for name, xs in bad.items():
        runs = [lambda: pow_mod_vec(xs, 2, p), lambda: P.eval_vec(xs)]
        runs += [lambda chi=chi: char_indices(chi, xs) for chi in chis]
        for run in runs:
            with pytest.raises(TypeError, match=f"must be integers, not (dtype )?{name}"):
                run()
    ints = np.array([3, 2**70 + 1, np.int64(-1)], dtype=object)
    assert pow_mod_vec(ints, 2, p).tolist() == [pow(int(x), 2, p) for x in ints]
    assert P.eval_vec(ints).tolist() == [P(int(x)) for x in ints]


@pytest.mark.parametrize("p", [3, 10007, 10000019, 3037000493, ffield._INT64_MOD_LIMIT])
def test_floor_mod_matches_np_mod(p):
    top = 2**63 - 1
    a = np.array([0, p - 1, p, top, 1, p + 1, 2 * p - 1, -1, -p, -(2**63)], dtype=np.int64)
    want = np.mod(a, p)
    assert np.array_equal(floor_mod(a, p), want)
    # in place, with a caller's quotient buffer
    b, q = a.copy(), np.empty_like(a)
    assert floor_mod(b, p, out=b, q=q) is b
    assert np.array_equal(b, want)
    assert floor_mod(np.zeros(0, dtype=np.int64), p).shape == (0,)
    for v in (0, p - 1, p, top):
        x = np.array(v, dtype=np.int64)
        assert int(floor_mod(x, p)) == v % p
        out = np.empty((), dtype=np.int64)
        assert floor_mod(x, p, out=out, q=np.empty((), dtype=np.int64)) is out
        assert int(out) == v % p and int(x) == v


def test_char_index_table_rejects_large_p():
    p = (1 << 24) + 1
    while not is_prime(p):
        p += 2
    chi = character(FieldSpec.from_prime(p), 2)
    for build in (char_index_table, ffield.power_bitmap):
        with pytest.raises(ValueError):
            build(chi)

