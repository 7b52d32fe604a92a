"""Random walk reference model on Z/mZ and exact small-parameter enumerations.

The walk takes steps F(v) - F(v') where v, v' are independent uniform
draws from the ell-th roots of unity and F(v) = 1 + v + ... + v^(ell-1),
so F equals ell at v = 1 and 0 elsewhere.  Z_x is the partial sum after
x steps and Phi(L; m, a) the fraction of x <= L with Z_x = a (mod m).

Besides Monte Carlo simulation of Phi, the module evaluates three
variance-style double sums over all pairs of step sequences (for parameters
small enough to enumerate) and checks them against explicit bounds.  By
orthogonality each sum is an exact integer count of pairs of prefix
differences that agree mod m, so no exponential is ever summed.  It also
builds the block model that calibrates curve scans: a discrepancy sample
sums the visit histograms of N length-L walks from uniform starts, drawn
from their exact law (a DP over walker-centred counts).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, InfeasibleModelError
from .parallel import run_blocks

__all__ = [
    "WalkConfig",
    "SimulationResult",
    "EnumResult",
    "ModelSummary",
    "trial_rng",
    "walk_draws",
    "walk_steps",
    "simulate_phi",
    "exact_prop21a",
    "exact_prop21b",
    "exact_prop21c",
    "model_reference",
    "model_reference_bernoulli",
    "model_reference_joint",
]

_MASK64 = (1 << 64) - 1

# enumeration guard: pair spaces larger than this are refused
FEASIBLE_LIMIT = 1 << 20

# block-model DP guard on the number of re-centred visit-vector states
_STATE_LIMIT = 1 << 18

# block-model rotation works on at most this many counts at once
_ROTATE_ELEMENTS = 1 << 22

# block-model sampling sums the visits of at most this many drawn counts
# (trials times block types) in one float64 product
_VISIT_BATCH = 1 << 15


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of a simulated walk: step order ell, modulus m, length L."""

    ell: int
    m: int
    L: int
    trials: int
    seed: int

    def validate(self):
        if self.ell < 2:
            raise ValueError("ell must be at least 2")
        if self.m < 1:
            raise ValueError("modulus must be positive")
        if self.L < 1:
            raise ValueError("walk length must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream: Philox keyed by (seed, trial).

    Philox is a keyed counter-mode bijection, so streams for distinct
    trials never overlap and results cannot depend on which thread runs
    which trial.
    """
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_thread_gen = threading.local()


def _trial_gen(seed: int, trial: int) -> np.random.Generator:
    """This thread's one generator, set to the exact state of a fresh
    trial_rng(seed, trial): key (seed, trial), counter 0, empty buffers.

    Building a generator costs more than a small trial's draws; re-keying
    costs a quarter of that.  Valid until this thread's next call.
    """
    try:
        gen, state = _thread_gen.pair
    except AttributeError:
        gen = trial_rng(seed, trial)
        # a fresh generator's state; the setter copies it, so draws never
        # change it and only its key needs rewriting.  Its counter, key and
        # buffer are held as lists of Python ints, which the setter reads
        # in less than half the time it takes for uint64 arrays
        state = gen.bit_generator.state
        state["state"] = {name: words.tolist() for name, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        _thread_gen.pair = gen, state
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    key[1] = trial & _MASK64
    gen.bit_generator.state = state
    return gen


def walk_draws(cfg: WalkConfig, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw root-of-unity indices (v, v') for one trial, each length L."""
    rng = _trial_gen(cfg.seed, trial)
    v = rng.integers(0, cfg.ell, size=cfg.L)
    w = rng.integers(0, cfg.ell, size=cfg.L)
    return v, w


def walk_steps(cfg: WalkConfig, trial: int) -> np.ndarray:
    """Step values F(v) - F(v') for one trial; F = ell at index 0, else 0."""
    v, w = walk_draws(cfg, trial)
    return cfg.ell * ((v == 0).astype(np.int64) - (w == 0).astype(np.int64))


@dataclass
class SimulationResult:
    """Per-trial occupation frequencies Phi(L; m, a) and their trial statistics."""

    phis: np.ndarray  # (trials, m)
    mean: np.ndarray  # (m,)
    stderr: np.ndarray  # (m,) standard error of the mean over trials


def simulate_phi(cfg: WalkConfig, threads: int = 1) -> SimulationResult:
    cfg.validate()

    def one(t: int) -> np.ndarray:
        z = np.cumsum(walk_steps(cfg, t)) % cfg.m
        return np.bincount(z, minlength=cfg.m) / cfg.L

    rows = run_blocks(lambda lo, hi: [one(t) for t in range(lo, hi)], cfg.trials, threads)
    phis = np.array(rows, dtype=np.float64)
    mean = phis.mean(axis=0)
    if cfg.trials > 1:
        stderr = phis.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    else:
        stderr = np.zeros(cfg.m)
    return SimulationResult(phis=phis, mean=mean, stderr=stderr)


# ---------------------------------------------------------------- enumerations


@dataclass(frozen=True)
class EnumResult:
    lhs: float
    bound: float
    passed: bool

    @classmethod
    def compare(cls, lhs: int, bound: int) -> "EnumResult":
        """lhs <= bound decided on the exact integers; the report reads
        both as floats."""
        return cls(lhs=float(lhs), bound=float(bound), passed=lhs <= bound)


def _prefix_sums(digits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Map digit matrix (V, L) through a value table and prefix-sum rows."""
    return values[digits].cumsum(axis=1)


def _digit_matrix(base: int, L: int) -> np.ndarray:
    V = base**L
    seq = np.arange(V)
    return (seq[:, None] // base ** np.arange(L)[None, :]) % base


def _pair_sum(cum: np.ndarray, m: int, k: int = 1) -> int:
    """Sum over k-tuples of ordered row pairs and all a in (Z/mZ)^k of
    |sum_x sum_{t != 0} e_m(t . (D_x - a))|^2, in integers.

    The inner sum over t is m^k [D_x = a] - 1, so the whole sum is
    m^(2k) sum_{x,y} S(x,y)^k - V^(2k) m^k L^2 with S(x,y) = sum_r n_r^2,
    where n_r counts the rows i with cum_i[x] - cum_i[y] = r (mod m).
    """
    V, L = cum.shape
    # row x * L + y holds the residues cum_i[x] - cum_i[y] sorted over i,
    # so the n_r are its runs of equal values
    d = np.sort(((cum[:, :, None] - cum[:, None, :]) % m).reshape(V, L * L).T, axis=1)
    starts = np.flatnonzero(np.diff(d, axis=1, prepend=-1))
    n = np.diff(starts, append=d.size)
    S = np.add.reduceat(n * n, np.flatnonzero(starts % V == 0))
    # S^k <= V^(2k), which the feasibility guards keep within 2^20
    return m ** (2 * k) * int((S**k).sum()) - V ** (2 * k) * m**k * L**2


def _power_cum(ell: int, L: int) -> np.ndarray:
    """Prefix sums of F over every length-L root sequence (F = ell at the root 1)."""
    fvals = np.zeros(ell, dtype=np.int64)
    fvals[0] = ell
    return _prefix_sums(_digit_matrix(ell, L), fvals)


def exact_prop21a(ell: int, m: int, L: int) -> EnumResult:
    """Variance sum over all pairs of length-L root sequences, power-sum
    steps: the one-walk case of exact_prop21b."""
    return exact_prop21b(ell, m, L, 1)


def exact_prop21c(m: int, L: int) -> EnumResult:
    """Same variance sum with 0/1 step sequences and the bits themselves as steps."""
    if m < 1 or L < 1:
        raise ValueError("need m >= 1, L >= 1")
    if 2 ** (2 * L) > FEASIBLE_LIMIT:
        raise ValueError(f"enumeration of 2^(2*{L}) pairs exceeds the feasibility guard")
    lhs = _pair_sum(_digit_matrix(2, L).cumsum(axis=1), m)
    return EnumResult.compare(lhs, 2 ** (2 * L + 2) * m**4 * L)


def exact_prop21b(ell: int, m: int, L: int, k: int) -> EnumResult:
    """k-walk version: pairs per walk, phases summed over nonzero t vectors."""
    if ell < 2 or m < 1 or L < 1 or k < 1:
        raise ValueError("need ell >= 2, m >= 1, L >= 1, k >= 1")
    if math.gcd(ell, m) != 1:
        raise HypothesisError("gcd_m_ell", f"gcd({ell}, {m}) != 1")
    if ell ** (2 * L * k) > FEASIBLE_LIMIT:
        raise ValueError(f"enumeration of {ell}^(2*{L}*{k}) pair tuples exceeds the feasibility guard")
    lhs = _pair_sum(_power_cum(ell, L), m, k)
    return EnumResult.compare(lhs, 7 * m ** (2 * k + 2) * L * ell ** (2 * L * k + 2))


# ---------------------------------------------------------------- block model


@dataclass
class ModelSummary:
    """Empirical discrepancy distribution of the block model."""

    q50: float
    q95: float
    q99: float
    discrepancies: np.ndarray
    blocks: int
    trials: int


def _merge_rows(rows: np.ndarray, weights: np.ndarray):
    """Distinct rows (in no particular order) and the summed weight of each.

    Rows compare as raw bytes through a void view, so any row width works.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    return rows[order[starts]], np.add.reduceat(weights[order], starts)


def _block_type_distribution(steps, m: int, k: int, L: int):
    """Exact distribution of a block's visit histogram over (Z/mZ)^k.

    A block walks L steps from a uniformly random start in (Z/mZ)^k.  The
    DP's states are visit counts re-centred on the walker at z (entry b
    counts cell z + b): a step s moves entry b + s to b and adds a visit
    at 0.  The histogram is the state rotated by z, and z is uniform when
    the start is, so the last states are averaged over a uniform rotation.
    Weights are integers in units of 1/(D^L m^k), D the lcm of the step
    denominators, so the arithmetic is exact; they are int64 when the
    total fits and Python ints otherwise.  Returns a type matrix (T, m^k),
    rows in lexicographic order, and exact-turned-float probabilities (T,).
    """
    mk = m**k
    if mk > 4096:
        raise InfeasibleModelError("joint cell space too large for the block model")
    radix = m ** np.arange(k)
    digits = (np.arange(mk)[:, None] // radix) % m  # cell code -> (z_0, ..., z_{k-1})
    shift = ((digits[None, :, :] - digits[:, None, :]) % m) @ radix  # [u, b] -> cell b - u
    ahead = shift[(-np.array([sv for sv, _ in steps]) % m) @ radix]  # [step, b] -> cell b + step
    D = math.lcm(*(sp.denominator for _, sp in steps))
    step_w = [int(sp * D) for _, sp in steps]
    # every weight is at most the grand total sum(step_w)^L * m^k
    wtype = np.int64 if sum(step_w) ** L * mk < 2**63 else object
    step_w = np.array(step_w, dtype=wtype)

    # row i * len(steps) + j of the candidates is state i moved by step j
    rows = np.zeros((1, mk), dtype=np.min_scalar_type(L))
    weights = np.ones(1, dtype=wtype)
    for _ in range(L):
        nxt = rows[:, ahead].reshape(-1, mk)
        nxt[:, 0] += 1
        rows, weights = _merge_rows(nxt, np.outer(weights, step_w).ravel())
        if len(rows) > _STATE_LIMIT:
            raise InfeasibleModelError("block model state space exceeds the feasibility guard")

    # rotate by a uniform start u (rows[:, shift[u]] moves a visit at b to b + u),
    # a bounded number of rows at a time so that no (S, mk, mk) array is built
    chunk = max(1, _ROTATE_ELEMENTS // (mk * mk))
    parts = [
        _merge_rows(rows[i : i + chunk][:, shift].reshape(-1, mk), np.repeat(weights[i : i + chunk], mk))
        for i in range(0, len(rows), chunk)
    ]
    types, weights = _merge_rows(np.concatenate([t for t, _ in parts]), np.concatenate([w for _, w in parts]))

    types = types.astype(np.int64)
    order = np.lexsort(types.T[::-1])
    # int / int rounds correctly, so each probability equals float(Fraction(w, total))
    total = D**L * mk
    probs = np.array([int(w) / total for w in weights[order]], dtype=np.float64)
    return types[order], probs


def _visit_sums(cells, probs, blocks: int, seed: int, trials: int, threads: int) -> np.ndarray:
    """(trials, m^k) float64 visit histograms from the float64 (m^k, T)
    transposed type matrix: row t is trial t's draw of block-type counts,
    multinomial(blocks, probs) from trial_rng(seed, t), times the types.

    Trials are cut into batches of max(1, _VISIT_BATCH // T), batch b
    holding trials [b * batch, (b + 1) * batch) at any thread count; a
    worker writes the rows of its batches into one C-ordered array, each
    batch's by one float64 product of cells and the transposed batch.
    Every sum is an integer at most blocks * L < 2^53 (_model_core
    refuses larger), so the product is exact in any summation order.
    """
    T = cells.shape[1]
    batch = max(1, _VISIT_BATCH // T)

    def block(first: int, last: int) -> np.ndarray:
        lo, hi = first * batch, min(last * batch, trials)
        out = np.empty((hi - lo, cells.shape[0]))
        draws = np.empty((min(batch, hi - lo), T))
        for s in range(lo, hi, batch):
            e = min(s + batch, hi)
            for t in range(s, e):
                draws[t - s] = _trial_gen(seed, t).multinomial(blocks, probs)
            out[s - lo : e - lo] = (cells @ draws[: e - s].T).T
        return out

    return np.array(run_blocks(block, -(-trials // batch), threads))


def _quantile(ordered: np.ndarray, q: float) -> float:
    """np.quantile(ordered, q) with its default 'linear' method, bit for
    bit, on values already sorted.  It is replicated rather than called
    because np.quantile imports numpy.ma (through np.unique) on first use.
    numpy puts the index at (n - 1) q, reads the last value at or past
    n - 1 (index -1, with the weight measured from -1), and interpolates
    from whichever end is nearer."""
    n = len(ordered)
    at = (n - 1) * q
    lo = -1 if at >= n - 1 else math.floor(at)
    t = at - lo
    a, b = float(ordered[lo]), float(ordered[lo + 1 if lo >= 0 else -1])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@functools.lru_cache(maxsize=1)
def _sampling_law(steps: tuple, m: int, k: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """What the block model samples for one shape: the float64 (m^k, T)
    transposed type matrix and the normalised probabilities (T,), both
    read-only.  One entry serves a run of calls on one shape (criterion
    9 makes 100) with a single DP; it holds only the float64 copy of the
    types, whose int64 matrix is freed on return."""
    types, probs = _block_type_distribution(steps, m, k, L)
    cells = types.T.astype(np.float64)
    probs = probs / probs.sum()
    cells.flags.writeable = probs.flags.writeable = False
    return cells, probs


def _model_core(steps, m, k, L, blocks, trials, seed, threads=1) -> ModelSummary:
    if blocks < 1 or trials < 1 or L < 1 or m < 1:
        raise ValueError("blocks, trials, L, m must all be positive")
    if blocks * L >= 1 << 53:
        raise InfeasibleModelError("blocks * L reaches 2^53, past exact float64 visit sums")
    cells, probs = _sampling_law(steps, m, k, L)
    denom = float(blocks * L)
    target = 1.0 / m**k

    # the float tail runs once on the stack, and each row sum equals that
    # of the row on its own
    V = _visit_sums(cells, probs, blocks, seed, trials, threads)
    discs = ((V / denom - target) ** 2).sum(axis=1)
    ordered = np.sort(discs)
    q50, q95, q99 = (_quantile(ordered, q) for q in (0.5, 0.95, 0.99))
    return ModelSummary(
        q50=q50, q95=q95, q99=q99,
        discrepancies=discs, blocks=blocks, trials=trials,
    )


def _steps(a: int, q, m: int, k: int):
    """Steps v - v' reduced mod m in each of k independent coordinates, where
    v and v' are independently a with probability q and 0 otherwise."""
    q = Fraction(q)
    pq = q * (1 - q)
    single = {}
    for value, pr in ((a % m, pq), ((-a) % m, pq), (0, 1 - 2 * pq)):
        single[value] = single.get(value, Fraction(0)) + pr
    return tuple(
        (tuple(v for v, _ in combo), math.prod([pr for _, pr in combo], start=Fraction(1)))
        for combo in itertools.product(sorted(single.items()), repeat=k)
    )


def model_reference(ell, m, L, blocks, trials, seed, threads: int = 1) -> ModelSummary:
    """Discrepancy distribution of N-block walks matching a curve scan:
    the one-walk case of model_reference_joint."""
    return model_reference_joint(ell, m, L, 1, blocks, trials, seed, threads)


def model_reference_joint(ell, m, L, k, blocks, trials, seed, threads: int = 1) -> ModelSummary:
    """Joint k-walk variant: independent coordinates, cells in (Z/mZ)^k."""
    if ell < 2 or k < 1:
        raise ValueError("need ell >= 2 and k >= 1")
    return _model_core(_steps(ell, Fraction(1, ell), m, k), m, k, L, blocks, trials, seed, threads)


def model_reference_bernoulli(alpha, m, L, blocks, trials, seed, threads: int = 1) -> ModelSummary:
    """Restricted-domain variant: steps v - v' with v, v' Bernoulli(alpha)."""
    if not 0 <= Fraction(alpha) <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return _model_core(_steps(1, alpha, m, 1), m, 1, L, blocks, trials, seed, threads)
