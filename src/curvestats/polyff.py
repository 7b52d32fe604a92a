"""Dense univariate polynomial arithmetic over prime fields F_p.

Coefficients are stored constant term first.  No polynomial is ever
fully factored.  The squarefree decomposition P = c * w_1 w_2^2 w_3^3 ...
(repeated gcds with the derivative, in the finite-field form of the
algorithms Yun surveys, SYMSAC 1976: a p-th root takes the part whose
derivative vanishes) gives the unit c and the factor multiplicities,
which is all the complete-power and admissibility predicates read.  The
rational-rank test for multiplicative independence of a family refines
the squarefree parts of all its members into a pairwise coprime base by
gcds (factor refinement: Bach, Driscoll and Shallit, J. Algorithms 15,
1993); its exponent matrix has the kernel of the matrix over irreducible
factors, whose columns it only merges.  Shifted products
P(ax+b_1)^{e_1} ... P(ax+b_r)^{e_r} round out the hypotheses of the
paper's theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import _INT64_MOD_LIMIT, _residues, factorize, floor_mod, is_prime

__all__ = [
    "Poly",
    "poly",
    "x_poly",
    "constant",
    "squarefree_decomposition",
    "is_complete_power",
    "admissible",
    "shift_combination",
    "IndependenceResult",
    "multiplicatively_independent",
]


@dataclass(frozen=True)
class Poly:
    """Polynomial over F_p, coefficients constant term first, no trailing zeros."""

    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        if self.coeffs and self.coeffs[-1] % self.p == 0:
            raise ValueError("leading coefficient must be nonzero; use poly() to normalize")
        if any(not (0 <= c < self.p) for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p; use poly() to normalize")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def eval_vec(
        self, xs: np.ndarray, out: np.ndarray | None = None, q: np.ndarray | None = None
    ) -> np.ndarray:
        """Horner evaluation over an array, int64 fast path for safe moduli.

        xs enters through ffield._residues, which reads int64 input
        already in [0, p) as is and bounds it.  The accumulator is
        reduced only when a bound on its entries says the next acc*x + c
        could reach 2^63, and once at the end; the bound grows by the
        largest x, so input far below p (as from compose_linear) needs
        fewer reductions.  On the int64 path, out (the accumulator and
        result) and q (the quotients of the reductions) are int64 arrays
        of xs's shape that a caller may reuse across calls; each is
        allocated when not given.  xs is never written.
        """
        xs = np.asarray(xs)
        p = self.p
        if p > _INT64_MOD_LIMIT:
            flat = [self(int(x)) for x in xs.ravel()]
            return np.array(flat, dtype=object).reshape(xs.shape)
        x, top = _residues(xs, p)
        acc = np.empty_like(x) if out is None else out
        if len(self.coeffs) < 2:
            acc[...] = self.coeffs[0] if self.coeffs else 0
            return acc
        lead, c, *rest = reversed(self.coeffs)
        if lead == 1:
            np.add(x, c, out=acc)
        else:
            np.multiply(x, lead, out=acc)
            acc += c
        bound = lead * top + c
        for c in rest:
            if bound * top + c >= 1 << 63:
                if q is None:
                    q = np.empty_like(acc)
                floor_mod(acc, p, out=acc, q=q)
                bound = p - 1
            np.multiply(acc, x, out=acc)
            if c:
                acc += c
            bound = bound * top + c
        if bound >= p:
            floor_mod(acc, p, out=acc, q=q)
        return acc

    def compose_linear(self, a: int, b: int) -> "Poly":
        """P(a*x + b): a Taylor shift to P(x + b), then coefficient i
        scaled by a^i."""
        p = self.p
        cs = list(self.coeffs)
        # repeated synthetic division by x - b, in place
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] = (cs[j] + b * cs[j + 1]) % p
        scale = 1
        for i in range(len(cs)):
            cs[i] = cs[i] * scale % p
            scale = scale * a % p
        return poly(cs, p)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % self.p
        return poly(a, self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] - c) % self.p
        return poly(a, self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return poly((), self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return poly(out, self.p)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = constant(1, self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c: int) -> "Poly":
        c %= self.p
        return poly([a * c % self.p for a in self.coeffs], self.p)

    def derivative(self) -> "Poly":
        return poly([i * c % self.p for i, c in enumerate(self.coeffs)][1:], self.p)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        inv = pow(self.lead, -1, self.p)
        return self.scale(inv)

    def _check(self, other: "Poly"):
        if self.p != other.p:
            raise ValueError("mixed moduli in polynomial arithmetic")

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(parts)


def poly(coeffs, p: int) -> Poly:
    """Normalizing constructor: reduces mod p and strips trailing zeros."""
    cs = [int(c) % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(coeffs=tuple(cs), p=p)


def x_poly(p: int) -> Poly:
    return poly((0, 1), p)


def constant(c: int, p: int) -> Poly:
    return poly((c,), p)


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    p = a.p
    inv = pow(b.lead, -1, p)
    rem = list(a.coeffs)
    qdeg = a.degree - b.degree
    if qdeg < 0:
        return poly((), p), a
    quot = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        c = rem[i + b.degree] * inv % p
        quot[i] = c
        if c:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] = (rem[i + j] - c * bc) % p
    return poly(quot, p), poly(rem, p)


def _gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, _divmod(a, b)[1]
    return a.monic() if not a.is_zero else a


def _pth_root(f: Poly) -> Poly:
    # In F_p[x], f with zero derivative is g(x^p) and coefficients are fixed
    # by Frobenius, so the root just keeps every p-th coefficient.
    p = f.p
    if any(c != 0 and i % p != 0 for i, c in enumerate(f.coeffs)):
        raise ArithmeticError("polynomial is not a p-th power")
    return poly(f.coeffs[::p], p)


def squarefree_decomposition(P: Poly) -> tuple[int, dict[int, Poly]]:
    """P = unit * product(part^i for i, part in parts.items()), p an odd prime.

    The parts are monic, squarefree, nonconstant and pairwise coprime, so
    the keys are exactly the multiplicities of P's irreducible factors; a
    constant P has no parts.
    """
    if P.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if not is_prime(P.p) or P.p == 2:
        raise ValueError("squarefree decomposition requires an odd prime modulus")
    parts: dict[int, Poly] = {}
    _squarefree_monic(P.monic(), 1, parts)
    acc = constant(P.lead, P.p)
    for i, part in parts.items():
        acc = acc * part**i
    if acc != P:
        raise ArithmeticError("squarefree decomposition failed reconstruction check")
    return P.lead, parts


def _squarefree_monic(f: Poly, scale: int, parts: dict[int, Poly]):
    # f = w_1 w_2^2 w_3^3 ... with gcd(f, f') keeping every factor whose
    # multiplicity is divisible by p whole; peel w_i off one multiplicity at
    # a time, then take the p-th root of what the derivative cannot see
    if f.degree < 1:
        return
    c = _gcd(f, f.derivative())
    w = _divmod(f, c)[0]
    i = 1
    while w.degree > 0:
        y = _gcd(w, c)
        if w.degree > y.degree:
            parts[i * scale] = _divmod(w, y)[0]
        c = _divmod(c, y)[0]
        w = y
        i += 1
    if c.degree > 0:
        _squarefree_monic(_pth_root(c), scale * f.p, parts)


def _is_power_residue(c: int, e: int, p: int) -> bool:
    d = math.gcd(e, p - 1)
    return pow(c % p, (p - 1) // d, p) == 1


def is_complete_power(P: Poly, e: int) -> bool:
    """True iff P = R^e for some polynomial R over F_p."""
    if P.is_zero:
        raise ValueError("zero polynomial is excluded")
    if e < 2:
        raise ValueError("power exponent must be at least 2")
    unit, parts = squarefree_decomposition(P)
    return math.gcd(*parts) % e == 0 and _is_power_residue(unit, e, P.p)


def admissible(P: Poly, ell: int) -> bool:
    """No prime q coprime to ell has P as a complete q-th power."""
    if P.degree < 1:
        raise ValueError("admissibility is defined for nonconstant polynomials")
    unit, parts = squarefree_decomposition(P)
    for q, _ in factorize(math.gcd(*parts)):
        if math.gcd(q, ell) == 1 and _is_power_residue(unit, q, P.p):
            return False
    return True


def shift_combination(P: Poly, a: int, bs, es) -> Poly:
    """The product P(a*x + b_1)^{e_1} * ... * P(a*x + b_r)^{e_r}."""
    p = P.p
    bs = [b % p for b in bs]
    es = [int(e) for e in es]
    if len(bs) != len(es) or not bs:
        raise ValueError("offset and exponent lists must be nonempty and equal length")
    if a % p == 0:
        raise ValueError("shift scale a must be nonzero")
    if len(set(bs)) != len(bs):
        raise ValueError("shift offsets must be pairwise distinct")
    if any(e < 0 for e in es):
        raise ValueError("exponents must be nonnegative")
    if not any(es):
        raise ValueError("exponent vector must be nonzero")
    acc = constant(1, p)
    for b, e in zip(bs, es):
        if e == 0:
            continue
        acc = acc * P.compose_linear(a, b) ** e
    return acc


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.independent


def multiplicatively_independent(Ps) -> IndependenceResult:
    """Decide whether no nonzero integer vector e makes prod P_i^{e_i} constant.

    Works on the exponent matrix over a pairwise coprime base of the
    squarefree parts: a rational kernel vector scales to an integer one,
    and raising the resulting constant to the power p-1 turns it into
    exactly 1, so rational rank decides the question.  The witness is
    primitive with positive first nonzero entry.
    """
    Ps = list(Ps)
    if not Ps:
        raise ValueError("need at least one polynomial")
    for P in Ps:
        if P.is_zero:
            raise ValueError("zero polynomials are excluded")
        if P.degree < 1:
            raise ValueError("constant polynomials are excluded from the independence test")
        Ps[0]._check(P)
    # each base element carries its exponent in every P_i: that of all the
    # irreducible factors it holds, since the parts of one P_i are coprime
    k = len(Ps)
    base: list[tuple[Poly, tuple[int, ...]]] = []
    for i, P in enumerate(Ps):
        for m, s in squarefree_decomposition(P)[1].items():
            refined = []
            for b, exps in base:
                g = _gcd(b, s)
                if g.degree > 0:
                    s = _divmod(s, g)[0]
                    b = _divmod(b, g)[0]
                    refined.append((g, exps[:i] + (m,) + exps[i + 1 :]))
                if b.degree > 0:
                    refined.append((b, exps))
            if s.degree > 0:
                refined.append((s, (0,) * i + (m,) + (0,) * (k - i - 1)))
            base = refined
    rows = [[Fraction(exps[i]) for _, exps in base] for i in range(k)]
    trans = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    pivots: list[tuple[int, int]] = []
    for i in range(k):
        for pr, pc in pivots:
            if rows[i][pc]:
                f = rows[i][pc] / rows[pr][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
                trans[i] = [x - f * y for x, y in zip(trans[i], trans[pr])]
        lead = next((j for j, x in enumerate(rows[i]) if x), None)
        if lead is None:
            return IndependenceResult(False, _primitive(trans[i]))
        pivots.append((i, lead))
    return IndependenceResult(True, None)


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    denom = math.lcm(*[f.denominator for f in vec])
    ints = [int(f * denom) for f in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
