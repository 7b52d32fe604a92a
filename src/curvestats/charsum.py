"""Multiplicative character sums, square-root cancellation checks, and
stride censuses.

A sum S = sum over x of chi(P(x)) is held as an exact tally: how many
arguments hit each unity index of the order-d character, plus how many
hit zero.  Complex magnitudes (optionally of the twisted sums chi^j) are
formed only at the boundary.  On top of the tallies sit the
square-root-cancellation checks (incomplete bound 2(deg+1) sqrt(p) ln p,
complete bound (deg+1) sqrt(p)), the stride census counting i in [0, N]
with prescribed character indices at r shifted probes, its joint version
over several multiplicatively independent polynomials, and the
rectangle-restricted shifted census with its |I|/L * (|J|/p)^r main
term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError
from .curvewin import Curve, Rect, _star_fibers
from .ffield import Character, char_indices
from .polyff import Poly, admissible, multiplicatively_independent, squarefree_decomposition

__all__ = [
    "CharSumTally",
    "WeilReport",
    "TwistCheck",
    "CensusResult",
    "ShiftedCensusResult",
    "incomplete_sum",
    "weil_check",
    "census_m",
    "joint_census",
    "shifted_census",
]

_CHUNK = 1 << 19


@dataclass(frozen=True)
class CharSumTally:
    """Exact tally of character-argument indices over a sum's terms."""

    d: int
    counts: tuple[int, ...]
    zero_count: int

    def __post_init__(self):
        if self.d < 1 or len(self.counts) != self.d:
            raise ValueError("counts must have one entry per unity index")
        if any(c < 0 for c in self.counts) or self.zero_count < 0:
            raise ValueError("tallies must be nonnegative")

    @property
    def total_terms(self) -> int:
        return sum(self.counts) + self.zero_count

    def merge(self, other: "CharSumTally") -> "CharSumTally":
        if self.d != other.d:
            raise ValueError("cannot merge tallies of different orders")
        return CharSumTally(
            self.d,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.zero_count + other.zero_count,
        )

    def sum_value(self, twist: int = 1) -> complex:
        """The complex sum of chi^twist over the tallied terms."""
        return sum(
            c * cmath.exp(2j * cmath.pi * ((twist * k) % self.d) / self.d)
            for k, c in enumerate(self.counts)
        )

    def magnitude(self, twist: int = 1) -> float:
        return abs(self.sum_value(twist))


def incomplete_sum(P: Poly, chi: Character, lo: int, hi: int) -> CharSumTally:
    """Tally chi(P(x)) for integer x in [lo, hi]; empty when hi < lo."""
    p = chi.field.p
    if P.p != p:
        raise ValueError("polynomial modulus does not match the character field")
    if hi >= lo and not (0 <= lo and hi <= p - 1):
        raise ValueError("interval must lie inside [0, p-1]")
    counts = np.zeros(chi.d, dtype=np.int64)
    zeros = 0
    x = lo
    while x <= hi:
        stop = min(hi, x + _CHUNK - 1)
        xs = np.arange(x, stop + 1, dtype=np.int64)
        idx = char_indices(chi, P.eval_vec(xs))
        zeros += int((idx < 0).sum())
        counts += np.bincount(idx[idx >= 0], minlength=chi.d)
        x = stop + 1
    return CharSumTally(chi.d, tuple(int(c) for c in counts), zeros)


@dataclass(frozen=True)
class TwistCheck:
    """Complete-interval check of one twisted sum chi^twist."""

    twist: int
    order: int
    magnitude: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class WeilReport:
    tally: CharSumTally
    magnitude: float
    bound: float
    passed: bool
    complete_twists: tuple[TwistCheck, ...]
    skipped_twists: tuple[int, ...]

    @property
    def complete_pass(self) -> bool:
        return all(t.passed for t in self.complete_twists)


def weil_check(P: Poly, chi: Character, lo: int, hi: int) -> WeilReport:
    """Square-root cancellation: |sum chi(P)| over [lo, hi] against
    2(deg P + 1) sqrt(p) ln p.

    Over the full interval [0, p-1] every nontrivial twisted sum chi^j
    is additionally checked against the complete bound (deg P + 1)
    sqrt(p); twists whose effective order e has P = c * R^e are skipped
    (the sum degenerates to a constant for them).
    """
    p = chi.field.p
    if chi.d < 2:
        raise ValueError("square-root cancellation needs a nontrivial character")
    if P.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    # P = c * R(x)^e for some constant c (the sum of a character of order
    # e degenerates) iff e divides every factor multiplicity of P
    mult_gcd = math.gcd(*squarefree_decomposition(P)[1])
    if mult_gcd % chi.d == 0:
        raise HypothesisError(
            "P_not_complete_power",
            f"all factor multiplicities of {P} are divisible by d = {chi.d}",
        )
    tally = incomplete_sum(P, chi, lo, hi)
    mag = tally.magnitude()
    bound = 2 * (P.degree + 1) * math.sqrt(p) * math.log(p)
    twists: list[TwistCheck] = []
    skipped: list[int] = []
    if lo == 0 and hi == p - 1:
        cbound = (P.degree + 1) * math.sqrt(p)
        for j in range(1, chi.d):
            order = chi.d // math.gcd(j, chi.d)
            if order < 2 or mult_gcd % order == 0:
                skipped.append(j)
                continue
            mj = tally.magnitude(twist=j)
            twists.append(TwistCheck(j, order, mj, cbound, mj <= cbound + 1e-9))
    return WeilReport(
        tally=tally,
        magnitude=mag,
        bound=bound,
        passed=mag <= bound + 1e-9,
        complete_twists=tuple(twists),
        skipped_twists=tuple(skipped),
    )


# ---------------------------------------------------------------- censuses


@dataclass(frozen=True)
class CensusResult:
    """Census count against its equidistribution main term.

    bound_ok uses the main bound plus the concrete slack term; a run
    with main_bound_ok False but bound_ok True passed only on slack.
    """

    count: int
    prediction: Fraction
    residual: float
    main_bound: float
    slack: float
    main_bound_ok: bool
    bound_ok: bool
    regime_ok: bool
    regime_detail: str


def _probe_offsets(offsets, p: int) -> list[int]:
    """The probe offsets reduced mod p: nonempty and pairwise distinct."""
    offs = [int(h) % p for h in offsets]
    if not offs:
        raise ValueError("need at least one probe offset")
    if len(set(offs)) != len(offs):
        raise ValueError("probe offsets must be pairwise distinct")
    return offs


def _census_validate(chi: Character, stride: int, offsets, N: int):
    if stride < 1:
        raise ValueError("stride must be positive")
    if N < 0:
        raise ValueError("range bound must be nonnegative")
    return _probe_offsets(offsets, chi.field.p)


def _census_regime(p: int, r: int, max_deg: int, theorem_mode: bool):
    limit = math.log(p) / math.log(4 * max_deg)
    ok = r < limit
    detail = f"r = {r}, log p / log(4 deg) = {limit:.3f}"
    if theorem_mode and not ok:
        raise HypothesisError("census_r_regime", detail)
    return ok, detail


def _match_counts(chi: Character, polys, stride: int, offs, N: int, target_rows) -> int:
    """#{i in [0, N] : char index of P_l(i*stride + h_j) = v_{l,j} for all l, j}."""
    p = chi.field.p
    count = 0
    i = 0
    while i <= N:
        stop = min(N, i + _CHUNK - 1)
        base = np.arange(i, stop + 1, dtype=np.int64) * stride
        match = np.ones(stop - i + 1, dtype=bool)
        for P, row in zip(polys, target_rows):
            for h, v in zip(offs, row):
                xs = (base + h) % p
                idx = char_indices(chi, P.eval_vec(xs))
                match &= idx == v
                if not match.any():
                    break
            if not match.any():
                break
        count += int(match.sum())
        i = stop + 1
    return count


def census_m(
    P: Poly,
    chi: Character,
    stride: int,
    offsets,
    N: int,
    v,
    theorem_mode: bool = False,
) -> CensusResult:
    """Count i in [0, N] whose r shifted probes i*stride + h_j all land on
    the prescribed character indices v_j, against the main term N / d^r."""
    return _census([P], chi, stride, offsets, N, [v], theorem_mode)


def joint_census(
    polys,
    chi: Character,
    stride: int,
    offsets,
    N: int,
    targets,
    theorem_mode: bool = False,
) -> CensusResult:
    """Joint census over k polynomials, main term N / d^(k r)."""
    return _census(list(polys), chi, stride, offsets, N, targets, theorem_mode)


def _census(polys, chi: Character, stride: int, offsets, N: int, targets, theorem_mode: bool):
    """The census over k >= 1 polynomials, one target row each."""
    if not polys:
        raise ValueError("need at least one polynomial")
    p = chi.field.p
    if any(P.p != p for P in polys):
        raise ValueError("polynomial modulus does not match the character field")
    offs = _census_validate(chi, stride, offsets, N)
    rows = [tuple(int(t) for t in row) for row in targets]
    if len(rows) != len(polys) or any(len(row) != len(offs) for row in rows):
        raise ValueError("need one target row per polynomial, each matching the probe count")
    if any(t < 0 for row in rows for t in row):
        raise ValueError("target indices must be nonnegative")
    if any(P.degree < 1 for P in polys):
        raise ValueError("census polynomials must be nonconstant")
    if len(polys) > 1:
        indep = multiplicatively_independent(polys)
        if not indep.independent:
            raise HypothesisError(
                "multiplicative_independence", f"witness {indep.witness}"
            )
    for P in polys:
        if not admissible(P, chi.ell):
            raise HypothesisError("P_admissible", str(P))
    k, r, d = len(polys), len(offs), chi.d
    regime_ok, detail = _census_regime(
        p, r, max(P.degree for P in polys), theorem_mode
    )
    count = _match_counts(chi, polys, stride, offs, N, rows)
    prediction = Fraction(N, d ** (k * r))
    residual = abs(count - prediction)
    sum_deg = sum(P.degree for P in polys)
    main_bound = (
        (2 * (sum_deg * r * (d - 1) + 1) / d ** (k * r)) * math.sqrt(p) * math.log(p)
    )
    slack = sum_deg * r
    return CensusResult(
        count=count,
        prediction=prediction,
        residual=float(residual),
        main_bound=main_bound,
        slack=float(slack),
        main_bound_ok=residual <= main_bound + 1e-9,
        bound_ok=residual <= main_bound + slack + 1e-9,
        regime_ok=regime_ok,
        regime_detail=detail,
    )


@dataclass(frozen=True)
class ShiftedCensusResult:
    count: int
    prediction: Fraction
    positions: int
    boundary_miss: int


def shifted_census(C: Curve, rect: Rect, offsets, stride: int) -> ShiftedCensusResult:
    """Count stride positions x in the rectangle's x-interval whose every
    shifted probe x + h (mod p) lands on a rectangle point of the curve.

    Probes leaving the x-interval contribute delta = 0; positions with
    at least one such probe are tallied in boundary_miss rather than
    bounded a priori.
    """
    p = C.p
    rect.validate(p)
    if stride < 1:
        raise ValueError("stride must be positive")
    offs = _probe_offsets(offsets, p)
    fibers = _star_fibers(C, rect)
    start = ((rect.x_lo + stride - 1) // stride) * stride
    xs = np.arange(start, rect.x_hi + 1, stride, dtype=np.int64)
    if xs.size == 0:
        return ShiftedCensusResult(
            count=0,
            prediction=Fraction(rect.x_size, stride)
            * Fraction(rect.y_size, p) ** len(offs),
            positions=0,
            boundary_miss=0,
        )
    prod = np.ones(xs.size, dtype=bool)
    miss = np.zeros(xs.size, dtype=bool)
    for h in offs:
        pos = (xs + h) % p
        inside = (pos >= rect.x_lo) & (pos <= rect.x_hi)
        miss |= ~inside
        safe = np.clip(pos - rect.x_lo, 0, fibers.size - 1)
        prod &= inside & (fibers[safe] >= 1)
    prediction = Fraction(rect.x_size, stride) * Fraction(rect.y_size, p) ** len(offs)
    return ShiftedCensusResult(
        count=int(prod.sum()),
        prediction=prediction,
        positions=int(xs.size),
        boundary_miss=int(miss.sum()),
    )
