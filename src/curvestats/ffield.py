"""Prime fields and multiplicative characters.

Arithmetic lives in F_p for an odd prime p.  A character of order d is
determined by a generator g of F_p^* and the table of d-th roots of unity
images g^(k(p-1)/d); evaluating the character at x means computing
x^((p-1)/d) and locating it in that table.  Everything here is exact
integer arithmetic, with numpy fast paths for bulk evaluation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "is_prime",
    "pow_mod_vec",
    "floor_mod",
    "factorize",
    "primitive_root",
    "FieldSpec",
    "Character",
    "character",
    "char_index",
    "char_indices",
    "char_index_table",
    "power_bitmap",
    "legendre",
]

# Largest modulus for which (p-1)^2 still fits in a signed 64-bit product.
_INT64_MOD_LIMIT = 3_037_000_499

# Largest modulus with per-character tables: the index table, which takes
# p bytes (int8, d < 128) or 4p bytes (int32), so at most 16 MB or 64 MB,
# and the bitmap of d-th powers, which takes p / 8 bytes (2 MB).  A
# character builds either only when it is first read.
_TABLE_LIMIT = 1 << 24

# Sufficient deterministic Miller-Rabin witness set for all n < 3.3 * 10^24,
# which covers every 64-bit input with a wide margin.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def floor_mod(
    a: np.ndarray, p: int, out: np.ndarray | None = None, q: np.ndarray | None = None
) -> np.ndarray:
    """a mod p as a - (a // p) * p, for integer a and 0 < p <= 3_037_000_499.

    Exact: the quotient is floored, so a - q*p lies in [0, p), and numpy
    divides by the scalar p through a precomputed reciprocal, which makes
    this faster than np.mod for int64 arrays.  q receives the quotients
    and out the result (out may be a); each is allocated when not given.
    """
    q = np.floor_divide(a, p, out=q)
    q *= p
    return np.subtract(a, q, out=out)


def _integers(xs: np.ndarray) -> np.ndarray:
    """xs as an array, refused with a TypeError unless its dtype is an
    integer one, or object with integer elements (operator.index)."""
    xs = np.asarray(xs)
    if xs.dtype.kind == "O":
        for x in xs.flat:
            try:
                operator.index(x)
            except TypeError:
                raise TypeError(f"field elements must be integers, not {x!r}") from None
    elif xs.dtype.kind not in "iu":
        raise TypeError(f"field elements must be integers, not dtype {xs.dtype}")
    return xs


def _residues(xs: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """xs mod p as int64 of xs's shape, and a bound on its entries: xs
    itself and its maximum when it is int64 in [0, p) (narrower integer
    dtypes are widened first), else floor_mod of it and p - 1.  xs is
    an integer array, as _integers passes it."""
    if xs.dtype.kind in "iu" and xs.dtype.itemsize < 8:
        # numpy >= 2 will not take a p above the dtype's range as a scalar
        xs = xs.astype(np.int64)
    if xs.dtype == np.int64:
        # one pass checks both ends: negative entries read as uint64 values above p
        top = int(xs.view(np.uint64).max(initial=0))
        if top < p:
            return xs, top
    return np.asarray(floor_mod(xs, p)).astype(np.int64, copy=False), p - 1


def pow_mod_vec(xs: np.ndarray, exp: int, p: int) -> np.ndarray:
    """Elementwise xs**exp mod p.

    Uses int64 square-and-multiply on _residues(xs, p) when products cannot
    overflow (p <= 3_037_000_499); larger moduli fall back to scalar pow.
    Either way, input that is not integer is refused (_integers).
    """
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    if p < 2:
        raise ValueError("modulus must be at least 2")
    xs = _integers(xs)
    if p > _INT64_MOD_LIMIT:
        flat = [pow(operator.index(x), exp, p) for x in xs.ravel()]
        return np.array(flat, dtype=object).reshape(xs.shape)
    base, _ = _residues(xs, p)
    if base is xs:
        base = base.copy()  # squared in place below
    result = np.ones_like(base)
    q = np.empty_like(base)
    e = exp
    while e:
        if e & 1:
            np.multiply(result, base, out=result)
            floor_mod(result, p, out=result, q=q)
        e >>= 1
        if e:
            np.multiply(base, base, out=base)
            floor_mod(base, p, out=base, q=q)
    return result


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...), primes ascending."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        for q in _SMALL_PRIMES:
            if m % q == 0:
                stack.extend([q, m // q])
                break
        else:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return tuple(sorted(counts.items()))


def primitive_root(p: int) -> int:
    """Smallest generator of F_p^* for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    primes = [q for q, _ in factorize(p - 1)]
    exponents = [(p - 1) // q for q in primes]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in exponents):
            return g
    raise ArithmeticError(f"no primitive root below {p}")  # unreachable for prime p


@dataclass(frozen=True)
class FieldSpec:
    """An odd prime field together with its fixed generator.

    p: the odd prime modulus.
    g: smallest primitive root of p.
    """

    p: int
    g: int

    @classmethod
    def from_prime(cls, p: int) -> "FieldSpec":
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        return cls(p=p, g=primitive_root(p))


@dataclass(frozen=True)
class Character:
    """Multiplicative character of F_p^* of order d = gcd(ell, p-1).

    match_table[k] = g^(k * (p-1)/d); the character maps g^n to index n mod d.
    The induced value at x is located by matching x^((p-1)/d) against
    match_table (index_of maps each entry back to k), and is zero when p
    divides x.  For p <= 2**24 the character also carries two lookups
    over [0, p), each built on first read and read-only after: table
    (char_index_table), one index per element, and power_bits
    (power_bitmap), one bit per element, set at the nonzero d-th powers;
    for larger p both are None.  An order-2 character reads its indices
    from power_bits too (char_indices), so it never builds a table.
    """

    field: FieldSpec
    ell: int
    d: int
    exponent: int
    match_table: tuple[int, ...]
    index_of: dict[int, int] = field(compare=False, repr=False)

    @functools.cached_property
    def table(self) -> np.ndarray | None:
        """char_index_table(self), built on first read; None for p > 2**24."""
        return _frozen(char_index_table(self)) if self.field.p <= _TABLE_LIMIT else None

    @functools.cached_property
    def power_bits(self) -> np.ndarray | None:
        """power_bitmap(self), built on first read; None for p > 2**24."""
        return _frozen(power_bitmap(self)) if self.field.p <= _TABLE_LIMIT else None


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# Each cached Character holds its tables, so the cache bounds them with
# no cache of its own: up to 64 MB for the index table and 2 MB for the
# bitmap (see _TABLE_LIMIT), 66 MB for a character both scanned and
# indexed, and 4 x 66 = 264 MB for the four entries in the worst case
# (d >= 128, p near 2**24).  An order-2 character holds at most its
# bitmap, 2 MB, since char_indices reads it in place of a table.  A CLI
# command uses one character; verify's criterion 5 cycles through three,
# and other criteria through many small ones that are cheap to rebuild.
@functools.lru_cache(maxsize=4)
def character(fs: FieldSpec, ell: int) -> Character:
    """The order-gcd(ell, p-1) character sending the generator g to zeta_d.

    One Character per (field, ell) is shared by all callers, so each of
    its tables, built on the first read for p <= 2**24, serves every
    curve and call on that field and is only read afterwards.  A caller
    that reads a table from several threads reads it once before they
    start.
    """
    if ell < 2:
        raise ValueError("character order parameter must be at least 2")
    d = math.gcd(ell, fs.p - 1)
    exponent = (fs.p - 1) // d
    roots = tuple(pow(fs.g, k * exponent, fs.p) for k in range(d))
    index_of = {v: k for k, v in enumerate(roots)}
    if len(index_of) != d:
        raise ArithmeticError("match table entries collide; field spec is invalid")
    return Character(
        field=fs, ell=ell, d=d, exponent=exponent, match_table=roots, index_of=index_of
    )


def char_index(chi: Character, x: int) -> int | None:
    """Root-of-unity index of chi(x), or None when p divides x."""
    p = chi.field.p
    if x % p == 0:
        return None
    t = pow(x % p, chi.exponent, p)
    j = chi.index_of.get(t)
    if j is None:
        raise ArithmeticError(f"x^((p-1)/d) = {t} not a d-th root of unity mod {p}")
    return j


def _index_dtype(d: int) -> type:
    return np.int8 if d < 128 else np.int32


def char_indices(chi: Character, xs: np.ndarray) -> np.ndarray:
    """Vectorized char_index; zero values are encoded as -1.

    Integer input is reduced by _residues and read from a lookup over
    [0, p) when the character has one (p <= 2**24), which the first such
    call builds: for d = 2, the bitmap of squares (power_bits), whose bit
    gives index 0 where set and 1 where clear; for other d, the index
    table.  Otherwise the indices come from the power map.  Every path
    returns the table's dtype.
    """
    xs = np.asarray(xs)
    lookup = None
    if xs.dtype.kind in "iu":
        lookup = chi.power_bits if chi.d == 2 else chi.table
    if lookup is None:
        return _char_indices_pow(chi, xs)
    xs, _ = _residues(xs, chi.field.p)
    if chi.d != 2:
        return lookup[xs]
    values = xs.reshape(-1)  # a 0-d take would give a scalar
    idx = _power_bit(lookup, values).view(np.int8)
    idx ^= 1
    if values.min(initial=1) == 0:
        idx[values == 0] = -1
    return idx.reshape(xs.shape)


def _char_indices_pow(chi: Character, xs: np.ndarray) -> np.ndarray:
    """char_indices by the power map x -> x^((p-1)/d); oracle for both lookups.
    pow_mod_vec reduces xs, and p divides x exactly when the power is 0."""
    dtype = _index_dtype(chi.d)
    shape = np.shape(xs)
    t = pow_mod_vec(xs, chi.exponent, chi.field.p).reshape(-1)
    if t.dtype == object:
        flat = np.array([-1 if v == 0 else chi.index_of[v] for v in t], dtype=dtype)
        return flat.reshape(shape)
    table = np.array(chi.match_table, dtype=np.int64)
    order = np.argsort(table)
    svals = table[order]
    pos = np.searchsorted(svals, t)
    pos[pos == chi.d] = 0
    out = np.where(svals[pos] == t, order[pos], -1)
    if ((out == -1) & (t != 0)).any():
        raise ArithmeticError("power map left the root-of-unity table")
    return out.astype(dtype).reshape(shape)


def _power_blocks(base: int, n: int, p: int, block: int):
    """Yield base^e mod p for e = 0, 1, ..., n - 1 in blocks of block
    consecutive exponents (the last may be shorter).  Each block is the
    first times base^start, reduced into one int64 buffer that the next
    overwrites; the first is built by doubling, pows[k:2k] = pows[:k] * base^k."""
    pows = np.ones(block, dtype=np.int64)
    k = 1
    while k < block:
        m = min(k, block - k)
        np.multiply(pows[:m], pow(base, k, p), out=pows[k : k + m])
        np.mod(pows[k : k + m], p, out=pows[k : k + m])
        k += m
    vals = np.empty_like(pows)
    q = np.empty_like(pows)
    step = pow(base, block, p)
    scale = 1
    for start in range(0, n, block):
        cnt = min(block, n - start)
        np.multiply(pows[:cnt], scale, out=vals[:cnt])
        floor_mod(vals[:cnt], p, out=vals[:cnt], q=q[:cnt])
        yield vals[:cnt]
        scale = scale * step % p


def char_index_table(chi: Character) -> np.ndarray:
    """Full lookup table of char indices for x in [0, p), -1 at x = 0.

    Index c holds on the coset g^c H, H the powers of g^d.  H is walked in
    blocks (_power_blocks) as in power_bitmap, each writing 0 at its powers
    and c at g^c times them for c = 1, ..., d - 2.  The table starts filled
    with d - 1, so that coset (all of F_p^* at d = 1) is never walked.
    Refused for p > 2**24 to bound memory.
    """
    p = chi.field.p
    if p > _TABLE_LIMIT:
        raise ValueError("index table only supported for p <= 2**24")
    d, g = chi.d, chi.field.g
    table = np.full(p, d - 1, dtype=_index_dtype(d))
    table[0] = -1
    if d == 1:
        return table
    n = (p - 1) // d
    block = min(16384, n)
    # cosets c = 1..d-2 go in columns, many per pass when H is small (d near
    # p); np.put cycles their indices, as fast as one scalar index scatters
    cols = max(1, min(16384 // block, d - 2))
    first = next(_power_blocks(g, cols, p, cols)) * g % p  # g^1, ..., g^cols
    out, q = np.empty((2, block, cols), dtype=np.int64)
    for vals in _power_blocks(pow(g, d, p), n, p, block):
        table[vals] = 0
        for c in range(0, d - 2, cols):
            gs = first[: d - 2 - c] * pow(g, c, p) % p  # g^(c + 1), ..., at most cols
            o, qs = out[: vals.size, : gs.size], q[: vals.size, : gs.size]
            np.multiply.outer(vals, gs, out=o)
            np.put(table, floor_mod(o, p, out=o, q=qs), np.arange(c + 1, c + 1 + gs.size))
    return table


def power_bitmap(chi: Character) -> np.ndarray:
    """The nonzero d-th powers in [0, p) as a packed bitmap: (p + 7) // 8
    uint8 bytes, in which bit x & 7 of byte x >> 3 is set exactly when x
    is a nonzero d-th power.  The fiber size #{y : y^ell = x} is d times
    that bit, except at x = 0, where it is 1.

    The nonzero d-th powers are the (p-1)/d powers of g^d, walked in
    blocks (_power_blocks) as in char_index_table; each occurs once in
    the walk, so adding its bit into its byte sets it.  Refused for
    p > 2**24 like the index table.
    """
    p = chi.field.p
    if p > _TABLE_LIMIT:
        raise ValueError("power bitmap only supported for p <= 2**24")
    n = (p - 1) // chi.d
    bits = np.zeros((p + 7) // 8, dtype=np.uint8)
    for vals in _power_blocks(pow(chi.field.g, chi.d, p), n, p, min(16384, n)):
        np.add.at(bits, vals >> 3, np.left_shift(1, vals & 7).astype(np.uint8))
    return bits


def _power_bit(bits: np.ndarray, values: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Bit v & 7 of byte v >> 3 of bits for each integer v in values, all
    in [0, p), as a fresh uint8 array of 0s and 1s; q, an int64 array of
    values' shape, receives the byte offsets when given."""
    found = bits.take(np.right_shift(values, 3, out=q))
    shifts = np.bitwise_and(values, 7, out=np.empty(values.shape, np.uint8), casting="unsafe")
    np.right_shift(found, shifts, out=found)
    found &= 1
    return found


def _root_counts(chi: Character, values: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """#{y in F_p : y^ell = v} for int64 values v in [0, p): d at the
    nonzero d-th powers, 1 at v = 0 and 0 elsewhere, as a fresh array in
    the index table's dtype (int8 for d < 128, else int32).  values are
    not reduced here; the caller passes residues, as eval_vec returns.

    For p <= 2**24 the counts are d times v's bit in chi.power_bits, which
    the first call builds, with v = 0 patched to 1; q, an int64 array of
    values' shape, receives the byte offsets v >> 3 when given.  Larger p
    use the character indices by the power map.
    """
    bits = chi.power_bits
    if bits is None:
        idx = char_indices(chi, values)
        # index 0 (a nonzero d-th power) has d roots, -1 (v = 0) one, others none
        counts = np.zeros(chi.d + 1, dtype=idx.dtype)
        counts[0], counts[-1] = chi.d, 1
        return counts.take(idx)
    found = _power_bit(bits, values, q)
    # the 0/1 bytes as int8 counts in place, or widened to int32 for d >= 128
    counts = found.view(np.int8).astype(_index_dtype(chi.d), copy=False)
    counts *= chi.d
    if values.min(initial=1) == 0:
        counts[values == 0] = 1
    return counts


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} by Euler's criterion; p an odd prime."""
    if p < 3 or p % 2 == 0:
        raise ValueError("legendre requires an odd prime modulus")
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    raise ValueError(f"{p} is not prime (Euler criterion gave {t})")
