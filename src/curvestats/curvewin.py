"""Sliding-window point statistics on curves y^ell = P(x) over F_p.

The fiber over x has size 1 when P(x) = 0, size d = gcd(ell, p-1) when
P(x) is a nonzero d-th power residue, and 0 otherwise.  N(x0, I) counts
curve points with x in the window (x0, x0+I]; scanning x0 over an
interval and reducing the counts mod m gives the occupation histogram
Phi whose squared deviation from uniform is the central statistic.
Windows never wrap around mod p.

Restricted variants count points inside a rectangle, where the
at-most-one-y condition makes the count a 0/1 sum over x; the module
also covers beta-quadratic residue scans, the Gauss lemma parity check,
the short-interval exceptional-window count, and experiment drivers that
check every hypothesis by name, evaluate the explicit variance bounds,
and calibrate against the random walk block model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, InfeasibleModelError
from .ffield import (
    Character,
    FieldSpec,
    _root_counts,
    char_index,
    char_indices,
    character,
    legendre,
    pow_mod_vec,
)
from .parallel import run_blocks
from .polyff import Poly, admissible, multiplicatively_independent, x_poly
from .rwalk import (
    ModelSummary,
    model_reference,
    model_reference_bernoulli,
    model_reference_joint,
)

__all__ = [
    "Curve",
    "curve",
    "ScanSpec",
    "Rect",
    "Histogram",
    "JointHistogram",
    "HypothesisCheck",
    "ExperimentReport",
    "fiber_count",
    "fiber_array",
    "window_counts",
    "window_counts_direct",
    "residue_histogram",
    "discrepancy",
    "joint_histogram",
    "condition_star",
    "condition_star_witness",
    "delta_array",
    "restricted_window_counts",
    "BetaScan",
    "beta_residue_scan",
    "gauss_lemma_check",
    "cor4_exceptional",
    "experiment_thm1",
    "experiment_thm2",
    "experiment_thm3",
]

_JOINT_CELL_LIMIT = 1 << 20

# longest tile of points evaluated at once: a window scan's tiles (in
# windows), and through _tiles those of character sums, censuses and
# rectangle memberships.  Each scan worker evaluates its tiles in one set
# of int64 buffers (_TileBuffers), so at 2^16 a tile's offsets,
# accumulator and quotients (512 KB apiece) stay in a 2 MB L2 across the
# passes over them.  The buffers are reused because 512 KB is
# above glibc's mmap threshold: fresh temporaries of that size are mapped
# and page-faulted in again on every tile (35k minor faults per
# 10^7-window scan at 2^16 without reuse, against 10k at 2^20 and 2k with
# reuse, and no faster than 2^20).  Sweep of that scan (p = 10000019,
# one thread, reused buffers; median job time of 8 runs on a 2-vCPU Xeon
# VM): 2^14 0.384 s, 2^15 0.373 s, 2^16 0.346 s, 2^17 0.353 s, 2^18
# 0.384 s.
_SCAN_CHUNK = 1 << 16

# largest window-sum bound for which a one-sum chunk is tallied by value
# and folded mod m, rather than reduced mod m first
_FOLD_LIMIT = 1 << 16


@dataclass(frozen=True)
class Curve:
    """The curve y^ell = P(x), with the order-ell character of its field."""

    ell: int
    P: Poly
    chi: Character

    @property
    def p(self) -> int:
        return self.chi.field.p


def curve(fs: FieldSpec, ell: int, P: Poly) -> Curve:
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if P.p != fs.p:
        raise ValueError("polynomial modulus does not match the field")
    if P.degree < 1:
        raise ValueError("curve polynomial must be nonconstant")
    return Curve(ell=ell, P=P, chi=character(fs, ell))


@dataclass(frozen=True)
class ScanSpec:
    """Scan geometry: x0 runs over [x_start, x_start + scan_len).

    window_len is the window length I (window (x0, x0+I]); block_len is
    the block length L used by theorem experiments and the walk model.
    """

    x_start: int
    scan_len: int
    window_len: int
    block_len: int | None = None

    def validate(self, p: int):
        if self.x_start < 0 or self.scan_len < 1 or self.window_len < 0:
            raise ValueError("scan start, length, and window length must be nonnegative (scan_len >= 1)")
        if self.x_start + self.scan_len + self.window_len > p:
            raise HypothesisError(
                "no_wraparound",
                f"x_start + scan_len + window_len = "
                f"{self.x_start + self.scan_len + self.window_len} exceeds p = {p}",
            )

    @classmethod
    def full(cls, p: int, window_len: int, block_len: int | None = None) -> "ScanSpec":
        """The widest admissible scan from 0, leaving window and block headroom."""
        margin = window_len + (block_len or 0)
        return cls(x_start=0, scan_len=p - margin, window_len=window_len, block_len=block_len)


@dataclass(frozen=True)
class Rect:
    """Rectangle [x_lo, x_hi] x [y_lo, y_hi], all bounds inclusive."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def validate(self, p: int):
        if not (0 <= self.x_lo <= self.x_hi <= p - 1):
            raise ValueError("x interval must be nonempty inside [0, p-1]")
        if not (0 <= self.y_lo <= self.y_hi <= p - 1):
            raise ValueError("y interval must be nonempty inside [0, p-1]")

    @property
    def x_size(self) -> int:
        return self.x_hi - self.x_lo + 1

    @property
    def y_size(self) -> int:
        return self.y_hi - self.y_lo + 1


@dataclass(frozen=True)
class Histogram:
    """Exact tallies over residue vectors in (Z/mZ)^k, dense by cell code
    sum a_i m^i; k = 1 is the plain residue histogram mod m."""

    m: int
    counts: tuple[int, ...]
    k: int = 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def cell(self, a) -> int:
        """Tally of residue a (k = 1) or of residue vector a."""
        avec = (a,) if isinstance(a, numbers.Integral) else tuple(a)
        if len(avec) != self.k:
            raise ValueError("residue vector length must equal k")
        code = 0
        for x in reversed(avec):
            code = code * self.m + x % self.m
        return self.counts[code]

    def phi(self, a) -> Fraction:
        if self.total == 0:
            raise ValueError("empty histogram has no proportions")
        return Fraction(self.cell(a), self.total)

    def discrepancy(self) -> Fraction:
        """Exact squared deviation from uniform, sum over cells of (phi - 1/m^k)^2."""
        if self.total == 0:
            raise ValueError("discrepancy of an empty histogram is undefined")
        unif = Fraction(1, self.m**self.k)
        return sum(((Fraction(c, self.total) - unif) ** 2 for c in self.counts), Fraction(0))

    def as_dict(self) -> dict[tuple[int, ...], int]:
        out = {}
        for code, c in enumerate(self.counts):
            vec = []
            q = code
            for _ in range(self.k):
                vec.append(q % self.m)
                q //= self.m
            out[tuple(vec)] = c
        return out


# the joint and plain histograms are one type; both names stay importable
JointHistogram = Histogram
discrepancy = Histogram.discrepancy


def residue_histogram(counts: np.ndarray, m: int) -> Histogram:
    """Histogram of the values mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    values = np.asarray(counts)
    tall = np.zeros(m, dtype=np.int64)
    for s in range(0, values.size, _SCAN_CHUNK):
        tall += np.bincount(np.mod(values[s : s + _SCAN_CHUNK], m), minlength=m)
    return Histogram(m, tuple(int(c) for c in tall))


# ---------------------------------------------------------------- fibers and windows


def fiber_count(C: Curve, x: int) -> int:
    """#{y in F_p : y^ell = P(x)}: 1 at roots of P, d at residues, else 0."""
    val = C.P(x)
    if val == 0:
        return 1
    return C.chi.d if char_index(C.chi, val) == 0 else 0


class _TileBuffers:
    """int64 work arrays for polynomial values over tiles of at most
    width = iota.size points: the Horner accumulator and the quotients of
    its reductions.  A scan worker, or a _tiles walk, allocates one and
    reuses it for each of its tiles, and drops it when it returns.
    iota = 0, 1, ..., width - 1 is read only and may be shared."""

    def __init__(self, iota: np.ndarray):
        self.iota = iota
        self.acc, self.q = np.empty((2, iota.size), dtype=np.int64)

    def values(self, P: Poly, lo: int, n: int, step: int = 1) -> np.ndarray:
        """P(lo + step * t) for t = 0, ..., n - 1 (n <= width): a view of
        acc, which the next call overwrites.  They are evaluated as
        Q(t) = P(step * t + lo), so Horner's accumulator grows by factors
        below the width rather than below p."""
        return P.compose_linear(step, lo).eval_vec(self.iota[:n], out=self.acc[:n], q=self.q[:n])


def _tiles(n: int):
    """Yield (s, size, buffers) for tiles [s, s + size) of at most
    _SCAN_CHUNK points covering [0, n), all sharing one _TileBuffers."""
    buffers = _TileBuffers(np.arange(min(n, _SCAN_CHUNK), dtype=np.int64))
    for s in range(0, n, _SCAN_CHUNK):
        yield s, min(_SCAN_CHUNK, n - s), buffers


def fiber_array(C: Curve, lo: int, hi: int, buffers: _TileBuffers | None = None) -> np.ndarray:
    """Fiber sizes for x in [lo, hi] inclusive (empty when hi < lo), in the
    character's index dtype: int8 for d < 128, else int32.  P(x) is
    evaluated in buffers when given; the result is always a fresh array.

    The sizes are _root_counts of the values P(x), which eval_vec leaves
    in [0, p): for p <= 2**24, d times the bit of P(x) in the character's
    bitmap of d-th powers (built by the first call), and 1 where P(x) = 0;
    above that, from the character indices of P(x) by the power map."""
    if buffers is None:
        return _root_counts(C.chi, C.P.eval_vec(np.arange(lo, hi + 1, dtype=np.int64)))
    n = max(0, hi - lo + 1)
    return _root_counts(C.chi, buffers.values(C.P, lo, n), q=buffers.q[:n])


def _fiber_values(C: Curve):
    """The scan value function of C's fiber sizes.  It reads C's bitmap
    of d-th powers here, so that the bitmap is built before a scan
    starts its workers, which then only read it."""
    C.chi.power_bits
    return lambda lo, hi, buffers: fiber_array(C, lo, hi, buffers)


def _window_sums(values: np.ndarray, I: int, n: int) -> tuple[np.ndarray, int]:
    """The n window sums N(s) = values[s] + ... + values[s + I - 1], and
    their bound max(values) * I.

    values[j] holds the summand at x = x_start + 1 + j, for
    j in [0, n - 1 + I).  Values are nonnegative, so the sums lie in
    [0, bound]; they are returned in the narrowest signed dtype that
    holds it, and every add below is exact in that dtype.

    Every window contains the core values[w:I] for any w in [n - 1, I];
    w is I itself when I < n, and otherwise the power of two at or above
    n - 1 when I reaches it, so that it has one set bit.  The core is
    summed once; the rest of window s is the width-w window at s over
    the n - 1 + w values outside the core.  Those are summed by doubling:
    sums of widths 1, 2, 4, ... are built in place by vectorized adds,
    and each set bit of w adds its width's sums, shifted past the lower
    bits', into the result.  So a tile costs at most about 2 log2(w)
    passes over n - 1 + w < 3n values, however wide the window is.
    """
    bound = int(values.max(initial=0)) * I
    dtype = np.min_scalar_type(-bound - 1)
    w = I if I < n else min(I, 1 << (n - 2).bit_length())
    out = np.full(n, values[w:I].sum(), dtype=dtype)
    sums = np.empty(n - 1 + w, dtype=dtype)  # sums[j] = v[j] + ... + v[j + width - 1]
    sums[:w], sums[w:] = values[:w], values[I:]
    width, shift, size = 1, 0, len(sums)
    while width <= w:
        if w & width:
            np.add(out, sums[shift : shift + n], out=out, dtype=dtype)
            shift += width
        if 2 * width <= w:
            size -= width
            np.add(sums[:size], sums[width : width + size], out=sums[:size], dtype=dtype)
        width *= 2
    return out, bound


def _scan_tiles(tile, spec: ScanSpec, threads: int) -> list:
    """[tile(s0, s1, lo, hi, buffers) for each tile [s0, s1) of the scan's
    windows], where windows s0..s1-1 need values at x in [lo, hi].

    The tiles are cut as _tiles cuts [0, scan_len), at any thread count;
    whole tiles run in one contiguous block per worker, and each worker
    evaluates all of its tiles in one _TileBuffers."""
    I = spec.window_len
    chunks = [(s, min(s + _SCAN_CHUNK, spec.scan_len)) for s in range(0, spec.scan_len, _SCAN_CHUNK)]
    iota = np.arange(chunks[0][1] + max(I - 1, 0), dtype=np.int64)

    def block(first: int, last: int) -> list:
        buffers = _TileBuffers(iota)
        return [
            tile(s0, s1, spec.x_start + s0 + 1, spec.x_start + s1 - 1 + I, buffers)
            for s0, s1 in chunks[first:last]
        ]

    return run_blocks(block, len(chunks), threads)


def _chunked_scan(values_for, spec: ScanSpec, threads: int) -> np.ndarray:
    """Run a window scan in _scan_tiles; each tile sums its windows from
    its own values, so the result is tile-count independent."""
    out = np.empty(spec.scan_len, dtype=np.int64)

    def tile(s0: int, s1: int, lo: int, hi: int, buffers: _TileBuffers):
        out[s0:s1] = _window_sums(values_for(lo, hi, buffers), spec.window_len, s1 - s0)[0]

    _scan_tiles(tile, spec, threads)
    return out


def _tally_scan(values_fors, spec: ScanSpec, m: int, threads: int) -> Histogram:
    """Histogram of the window-sum vectors (N_0, ..., N_{k-1}) mod m, one
    sum N_i per value function, by cell code sum (N_i mod m) m^i.

    Each tile of _scan_tiles is reduced to its m^k tallies, which are
    summed in index order, so no full-length count array is ever held.
    """
    I = spec.window_len
    k = len(values_fors)

    def tile(s0: int, s1: int, lo: int, hi: int, buffers: _TileBuffers) -> np.ndarray:
        code = None
        # Horner over the value functions, last first
        for values_for in reversed(values_fors):
            counts, bound = _window_sums(values_for(lo, hi, buffers), I, s1 - s0)
            if k == 1 and bound < _FOLD_LIMIT:
                # tally the sums themselves, then fold the bins mod m
                bins = np.bincount(counts, minlength=-(-(bound + 1) // m) * m)
                return bins.reshape(-1, m).sum(axis=0)
            residues = np.mod(counts, m, dtype=np.int64)
            if code is None:
                code = residues
            else:
                code *= m
                code += residues
        return np.bincount(code, minlength=m**k)

    tall = np.zeros(m**k, dtype=np.int64)
    for t in _scan_tiles(tile, spec, threads):
        tall += t
    return Histogram(m, tuple(int(c) for c in tall), k)


def window_counts(C: Curve, spec: ScanSpec, threads: int = 1) -> np.ndarray:
    """N(x0, I) for x0 in [x_start, x_start + scan_len)."""
    spec.validate(C.p)
    return _chunked_scan(_fiber_values(C), spec, threads)


def window_counts_direct(C: Curve, spec: ScanSpec) -> np.ndarray:
    """Independent per-window summation; oracle for _window_sums."""
    spec.validate(C.p)
    I = spec.window_len
    fib = fiber_array(C, spec.x_start + 1, spec.x_start + spec.scan_len - 1 + I)
    return np.array(
        [int(fib[s : s + I].sum()) for s in range(spec.scan_len)], dtype=np.int64
    )


def joint_histogram(Cs, spec: ScanSpec, m: int, threads: int = 1) -> Histogram:
    """Joint residue tallies of the per-curve window counts at a common x0."""
    Cs = list(Cs)
    if not Cs:
        raise ValueError("need at least one curve")
    if m < 1:
        raise ValueError("modulus must be positive")
    k = len(Cs)
    if len({C.p for C in Cs}) != 1 or len({C.ell for C in Cs}) != 1:
        raise ValueError("curves must share one field and one ell")
    if m**k > _JOINT_CELL_LIMIT:
        raise ValueError("joint cell space m^k is too large")
    spec.validate(Cs[0].p)
    return _tally_scan([_fiber_values(C) for C in Cs], spec, m, threads)


# ---------------------------------------------------------------- restricted rectangles


def _rect_delta(C: Curve, rect: Rect) -> tuple[np.ndarray, int | None]:
    """The rectangle's membership delta over x in [0, p) (read-only int8:
    1 where some y in [y_lo, y_hi] has (x, y) on the curve, 0 elsewhere
    and outside [x_lo, x_hi]), and the smallest x with two or more such y
    (None when the at-most-one-y condition holds).  The counts of y with
    y^ell = v, at most d, go per y-tile into p entries of np.min_scalar_type(d),
    one byte while d < 256, which one tile pass over the x-interval reads."""
    p = C.p
    if p > (1 << 27):
        raise ValueError("restricted scans limited to p <= 2^27 (two tables of p entries)")
    mult = np.zeros(p, dtype=np.min_scalar_type(C.chi.d))
    one = mult.dtype.type(1)  # a Python-int 1 leaves np.add.at's fast path
    for s, n, buffers in _tiles(rect.y_size):
        np.add.at(mult, pow_mod_vec(buffers.values(x_poly(p), rect.y_lo + s, n), C.ell, p), one)
    delta = np.zeros(p, dtype=np.int8)
    witness = None
    for s, n, buffers in _tiles(rect.x_size):
        lo = rect.x_lo + s
        fibers = mult.take(buffers.values(C.P, lo, n))
        np.minimum(fibers, 1, out=delta[lo : lo + n], casting="unsafe")
        if witness is None:
            bad = np.flatnonzero(fibers >= 2)
            witness = lo + int(bad[0]) if bad.size else None
    delta.flags.writeable = False
    return delta, witness


def _star_check(witness: int | None) -> HypothesisCheck:
    """The condition_star hypothesis of a rectangle with this witness."""
    detail = "" if witness is None else f"x = {witness} has more than one y in the rectangle"
    return HypothesisCheck("condition_star", witness is None, detail)


def condition_star_witness(C: Curve, rect: Rect) -> int | None:
    """Smallest x in the rectangle's x-interval with two or more curve
    points (x, y), y in the y-interval; None when the condition holds."""
    rect.validate(C.p)
    return _rect_delta(C, rect)[1]


def condition_star(C: Curve, rect: Rect) -> bool:
    """True iff every x in the x-interval has at most one y in the
    y-interval with (x, y) on the curve."""
    return condition_star_witness(C, rect) is None


def delta_array(C: Curve, rect: Rect) -> np.ndarray:
    """The 0/1 membership indicator over the rectangle's x-interval."""
    rect.validate(C.p)
    return _rect_delta(C, rect)[0][rect.x_lo : rect.x_hi + 1].astype(np.int64)


def restricted_window_counts(C: Curve, rect: Rect, spec: ScanSpec, threads: int = 1) -> np.ndarray:
    """Rectangle-restricted window counts; requires the at-most-one-y condition."""
    spec.validate(C.p)
    rect.validate(C.p)
    delta, witness = _rect_delta(C, rect)
    _enforce([_star_check(witness)])
    return _chunked_scan(lambda lo, hi, _: delta[lo : hi + 1], spec, threads)


@dataclass
class BetaScan:
    """Residue histograms of the beta-quadratic residue scan: R and
    N = I - R mod m over its positions windows (None without a modulus)."""

    beta: Fraction
    y_max: int
    positions: int
    r_hist: Histogram | None
    n_hist: Histogram | None


def beta_residue_scan(
    fs: FieldSpec, beta, spec: ScanSpec, m: int | None = None, threads: int = 1
) -> BetaScan:
    """Histograms mod m of the beta-quadratic residues R and nonresidues
    N = I - R per window; without m, no scan runs.

    x is a beta-quadratic residue when x = y^2 mod p for some
    y in [1, floor(beta p)]; R is realized as a rectangle-restricted scan
    on y^2 = x, where beta <= 1/2 makes the at-most-one-y condition
    automatic.  N = a (mod m) exactly when R = I - a, so N's histogram is
    R's read backwards from I.
    """
    beta = Fraction(beta)
    if not 0 < beta <= Fraction(1, 2):
        raise ValueError("beta must lie in (0, 1/2]")
    y_max = (beta.numerator * fs.p) // beta.denominator
    if y_max < 1:
        raise ValueError("beta * p must be at least 1")
    spec.validate(fs.p)
    r_hist = n_hist = None
    if m is not None:
        if m < 1:
            raise ValueError("modulus must be positive")
        delta, witness = _rect_delta(curve(fs, 2, x_poly(fs.p)), Rect(0, fs.p - 1, 1, y_max))
        _enforce([_star_check(witness)])
        r_hist = _tally_scan([lambda lo, hi, _: delta[lo : hi + 1]], spec, m, threads)
        I = spec.window_len
        n_hist = Histogram(m, tuple(r_hist.counts[(I - a) % m] for a in range(m)))
    return BetaScan(beta=beta, y_max=y_max, positions=spec.scan_len, r_hist=r_hist, n_hist=n_hist)


# ---------------------------------------------------------------- parity and gaps


def gauss_lemma_check(a: int, p: int) -> tuple[int, bool]:
    """Gauss lemma: r = #{x <= (p-1)/2 : ax mod p > p/2}; (-1)^r = (a|p)."""
    if math.gcd(a, p) != 1:
        raise ValueError("a must be coprime to p")
    xs = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    vals = (a % p) * xs % p
    r = int((vals > p // 2).sum())
    ok = (-1) ** r == legendre(a, p)
    return r, ok


def cor4_exceptional(fs: FieldSpec, ell: int, lengths, mu: int) -> list[int]:
    """#{x0 in [0, p-1-L] : no x in [x0, x0+L) has character index mu}, for
    each window length L in lengths, from one tiled pass over the field.

    No such window reaches p - 1.  A run of g consecutive x in [0, p-2]
    without index mu, bounded by hits or by the ends -1 and p - 1, holds
    max(0, g - L + 1) of them, so the counts are sums over those runs."""
    p = fs.p
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if (p - 1) % ell != 0:
        raise HypothesisError("p_equiv_1_mod_ell", f"p = {p}, ell = {ell}")
    lengths = list(lengths)
    if not all(1 <= L <= p for L in lengths):
        raise ValueError("window length must lie in [1, p]")
    chi = character(fs, ell)
    if not 0 <= mu < chi.d:
        raise ValueError("mu must be a unity index in [0, d)")
    counts = [0] * len(lengths)
    shortest = min(lengths, default=1)
    last = -1  # the latest hit, carried across tiles

    def add_runs(gaps: np.ndarray):
        gaps = gaps[gaps >= shortest]  # shorter runs hold no window
        for i, L in enumerate(lengths):
            counts[i] += int(np.maximum(gaps - (L - 1), 0).sum())

    for s, n, buffers in _tiles(p - 1):
        x = np.add(buffers.iota[:n], s, out=buffers.acc[:n])
        hits = np.flatnonzero(char_indices(chi, x) == mu) + s
        if hits.size:
            add_runs(np.diff(hits, prepend=last) - 1)
            last = int(hits[-1])
    add_runs(np.array([p - 2 - last], dtype=np.int64))
    return counts


# ---------------------------------------------------------------- experiments


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""
    fatal: bool = True


@dataclass
class ExperimentReport:
    kind: str
    params: dict
    hypotheses: list[HypothesisCheck]
    histogram: Histogram
    discrepancy: Fraction
    bound: float
    bound_pass: bool
    model: ModelSummary | None
    model_pass: bool | None


def _geometry_checks(p: int, spec: ScanSpec) -> tuple[int, list[HypothesisCheck]]:
    if spec.block_len is None:
        raise ValueError("theorem experiments need a block length in the scan spec")
    L = spec.block_len
    I = spec.window_len
    size = spec.scan_len
    eps = math.log(size) / math.log(p) - 0.5 if size > 1 else -0.5
    checks = [
        HypothesisCheck(
            "window_len_range",
            p - L > I > L,
            f"need p - L > I > L, have p = {p}, I = {I}, L = {L}",
        ),
        HypothesisCheck(
            "no_wraparound",
            spec.x_start + spec.scan_len + I <= p,
            f"scan reaches x = {spec.x_start + spec.scan_len + I - 1}, p = {p}",
        ),
        HypothesisCheck(
            "scan_interval_size",
            size > math.isqrt(p),
            f"size = {size}, p^0.5 = {math.isqrt(p)}, epsilon = {eps:.4f}",
        ),
    ]
    if L < 1:
        raise ValueError("block length must be positive")
    return L, checks


def _curve_checks(C: Curve) -> list[HypothesisCheck]:
    return [
        HypothesisCheck("p_equiv_1_mod_ell", C.p % C.ell == 1, f"p = {C.p}, ell = {C.ell}"),
        HypothesisCheck("P_nonconstant", C.P.degree >= 1, f"deg = {C.P.degree}"),
        HypothesisCheck("P_admissible", admissible(C.P, C.ell), str(C.P)),
    ]


def _regime_check(L: int, p: int, d: int) -> HypothesisCheck:
    # asymptotic block-length regime; informative, never aborts a desk-scale run
    limit = math.log(p) / (2 * math.log(4 * d))
    return HypothesisCheck(
        "block_len_regime", L < limit, f"L = {L}, log p / (2 log 4d) = {limit:.3f}", fatal=False
    )


def _enforce(checks):
    """Raise HypothesisError for the first failed fatal check."""
    for c in checks:
        if c.fatal and not c.passed:
            raise HypothesisError(c.name, c.detail)


def _experiment(kind, spec, trials, seed, blocks, checks, params, count, bound, model):
    """The pipeline every theorem experiment shares.

    Enforces the fatal hypotheses, histograms the counts (count() returns
    the Histogram), compares the discrepancy with the bound (both Fractions) and
    calibrates it against model(nblocks).  A model past the exact DP's
    feasibility guards is skipped and recorded as a failed, non-fatal
    model_feasible hypothesis; any other error propagates.
    """
    _enforce(checks)
    nblocks = blocks if blocks is not None else max(1, spec.scan_len // spec.block_len - 1)
    if trials < 1 or nblocks < 1:
        raise ValueError("model trials and blocks must be positive")
    hist = count()
    disc = hist.discrepancy()
    try:
        summary = model(nblocks)
    except InfeasibleModelError as e:
        summary = None
        checks = [*checks, HypothesisCheck("model_feasible", False, str(e), fatal=False)]
    return ExperimentReport(
        kind=kind,
        params={
            **params,
            **asdict(spec),
            "blocks": nblocks, "trials": trials, "seed": seed,
        },
        hypotheses=checks,
        histogram=hist,
        discrepancy=disc,
        bound=float(bound),
        bound_pass=disc <= bound,
        model=summary,
        model_pass=None if summary is None else float(disc) <= summary.q99,
    )


def experiment_thm1(
    C: Curve,
    spec: ScanSpec,
    m: int,
    trials: int,
    seed: int,
    blocks: int | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Full-height window scan: discrepancy vs 7 m^3 ell^2 / L and the block model."""
    if m < 1:
        raise ValueError("modulus must be positive")
    p, ell = C.p, C.ell
    L, geom = _geometry_checks(p, spec)
    checks = [
        *_curve_checks(C),
        HypothesisCheck("gcd_m_ell", math.gcd(m, ell) == 1, f"gcd({m}, {ell}) != 1"),
        *geom,
        _regime_check(L, p, C.P.degree),
    ]

    def count() -> Histogram:
        spec.validate(p)
        return _tally_scan([_fiber_values(C)], spec, m, threads)

    return _experiment(
        "thm1", spec, trials, seed, blocks, checks,
        {"p": p, "ell": ell, "m": m, "poly": list(C.P.coeffs)},
        count,
        Fraction(7 * m**3 * ell**2, L),
        lambda nb: model_reference(ell, m, L, nb, trials, seed, threads=threads),
    )


def experiment_thm2(
    Cs,
    spec: ScanSpec,
    m: int,
    trials: int,
    seed: int,
    blocks: int | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Joint scan over several curves: discrepancy vs 7 m^(k+2) ell^2 / L."""
    Cs = list(Cs)
    if len(Cs) < 2:
        raise ValueError("joint experiment needs at least two curves")
    if m < 1:
        raise ValueError("modulus must be positive")
    p = Cs[0].p
    ell = Cs[0].ell
    k = len(Cs)
    L, geom = _geometry_checks(p, spec)
    indep = None
    common = len({C.p for C in Cs}) == 1 and len({C.ell for C in Cs}) == 1
    if common:
        indep = multiplicatively_independent([C.P for C in Cs])
    checks = [
        HypothesisCheck("curves_common_field_ell", common, "curves must share p and ell"),
        HypothesisCheck("p_equiv_1_mod_ell", p % ell == 1, f"p = {p}, ell = {ell}"),
        HypothesisCheck(
            "multiplicative_independence",
            bool(indep) if indep is not None else False,
            f"witness {indep.witness}" if indep is not None and not indep.independent else "",
        ),
        HypothesisCheck(
            "P_admissible",
            all(admissible(C.P, ell) for C in Cs),
            ", ".join(str(C.P) for C in Cs),
        ),
        HypothesisCheck("gcd_m_ell", math.gcd(m, ell) == 1, f"gcd({m}, {ell}) != 1"),
        *geom,
        _regime_check(L, p, max(C.P.degree for C in Cs)),
    ]
    return _experiment(
        "thm2", spec, trials, seed, blocks, checks,
        {"p": p, "ell": ell, "m": m, "k": k, "polys": [list(C.P.coeffs) for C in Cs]},
        lambda: joint_histogram(Cs, spec, m, threads=threads),
        Fraction(7 * m ** (k + 2) * ell**2, L),
        lambda nb: model_reference_joint(ell, m, L, k, nb, trials, seed, threads=threads),
    )


def experiment_thm3(
    C: Curve,
    rect: Rect,
    spec: ScanSpec,
    m: int,
    trials: int,
    seed: int,
    blocks: int | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Rectangle-restricted scan: discrepancy vs 4 m^4 / L, Bernoulli model."""
    if m < 1:
        raise ValueError("modulus must be positive")
    p = C.p
    rect.validate(p)
    L, geom = _geometry_checks(p, spec)
    # one membership pass serves the condition_star hypothesis and the scan
    delta, witness = _rect_delta(C, rect)
    alpha = Fraction(rect.y_size, p)
    limit = math.log(p) / (2 * math.log(math.log(p))) if p > 15 else float("inf")
    checks = [
        *_curve_checks(C),
        _star_check(witness),
        *geom,
        HypothesisCheck("y_interval_alpha", True, f"alpha = {float(alpha):.6f}", fatal=False),
        HypothesisCheck(
            "block_len_regime_thm3",
            L <= limit,
            f"L = {L}, log p / (2 log log p) = {limit:.3f}",
            fatal=False,
        ),
    ]

    def count() -> Histogram:
        spec.validate(p)
        return _tally_scan([lambda lo, hi, _: delta[lo : hi + 1]], spec, m, threads)

    return _experiment(
        "thm3", spec, trials, seed, blocks, checks,
        {
            "p": p, "ell": C.ell, "m": m, "poly": list(C.P.coeffs),
            "x_lo": rect.x_lo, "x_hi": rect.x_hi,
            "y_lo": rect.y_lo, "y_hi": rect.y_hi,
            "alpha": float(alpha),
        },
        count,
        Fraction(4 * m**4, L),
        lambda nb: model_reference_bernoulli(alpha, m, L, nb, trials, seed, threads=threads),
    )
