"""Command-line front end.

Subcommands map one-to-one onto the library drivers: window-scan
experiments (phi, joint, restricted), beta-residue scans, the walk
simulator and its exact enumerations, character-sum checks, the stride
censuses, the Gauss-lemma sweep, the empty-window scan, and the full
verification suite.  Reports serialize to canonical JSON (one stable
object; wall-clock duration lives in a separate meta block) or to CSV
histograms with the fixed header ``a,count,phi_num,phi_den,phi_dec``.

Exit codes: 0 success, 1 hypothesis or validation failure, 2 usage
error.  Randomized subcommands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .charsum import joint_census, shifted_census, weil_check
from .curvewin import (
    Histogram,
    Rect,
    ScanSpec,
    beta_residue_scan,
    cor4_exceptional,
    curve,
    experiment_thm1,
    experiment_thm2,
    experiment_thm3,
    gauss_lemma_check,
)
from .errors import HypothesisError
from .ffield import FieldSpec, character
from .polyff import poly
from .rwalk import (
    WalkConfig,
    exact_prop21a,
    exact_prop21b,
    exact_prop21c,
    simulate_phi,
)

CSV_HEADER = "a,count,phi_num,phi_den,phi_dec"

# display labels for hypothesis names, used in error messages and reports
HYPOTHESIS_LABELS = {
    "gcd_m_ell": "GCD(m,ℓ)=1",
    "p_equiv_1_mod_ell": "p ≡ 1 (mod ℓ)",
    "P_admissible": "P admissible",
    "P_nonconstant": "P nonconstant",
    "multiplicative_independence": "multiplicative independence",
    "curves_common_field_ell": "common field and ℓ",
    "condition_star": "at most one y per x in the rectangle",
    "no_wraparound": "windows stay inside [0, p-1]",
    "window_len_range": "p - L > I > L",
    "scan_interval_size": "scan interval exceeds sqrt(p)",
    "block_len_regime": "L below log p / (2 log 4d)",
    "block_len_regime_thm3": "L below log p / (2 log log p)",
    "y_interval_alpha": "y-interval proportion recorded",
    "P_not_complete_power": "P is not a complete power",
    "census_r_regime": "r below log p / log(4 deg)",
    "model_feasible": "block model within its feasibility guards",
}


class UsageError(Exception):
    """Malformed configuration; maps to exit code 2."""


# ---------------------------------------------------------------- serialization


def _frac_json(fr) -> dict:
    fr = Fraction(fr)
    return {
        "num": fr.numerator,
        "den": fr.denominator,
        "dec": f"{float(fr):.6f}",
    }


def _hist_json(h: Histogram) -> dict:
    phi = []
    if h.total > 0:
        phi = [{"a": a, **_frac_json(h.phi(a))} for a in range(h.m)]
    return {"m": h.m, "total": h.total, "counts": list(h.counts), "phi": phi}


def _joint_json(jh: Histogram) -> dict:
    cells = []
    if jh.total > 0:
        for vec, c in sorted(jh.as_dict().items()):
            cells.append({"a": list(vec), "count": c, **_frac_json(Fraction(c, jh.total))})
    return {"m": jh.m, "k": jh.k, "total": jh.total, "cells": cells}


def _model_json(model) -> dict | None:
    if model is None:
        return None
    return {
        "q50": model.q50,
        "q95": model.q95,
        "q99": model.q99,
        "blocks": model.blocks,
        "trials": model.trials,
    }


def _checks_json(checks) -> list[dict]:
    return [{**asdict(c), "label": HYPOTHESIS_LABELS.get(c.name, c.name)} for c in checks]


def _csv_rows(labels, counts, total) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for label, c in zip(labels, counts):
        fr = Fraction(c, total) if total else Fraction(0)
        out.write(f"{label},{c},{fr.numerator},{fr.denominator},{float(fr):.6f}\n")
    return out.getvalue()


def _report_csv(report: dict) -> str:
    """The CSV rendering of a report's primary histogram."""
    res = report["results"]
    h = res.get("histogram") or res.get("r_histogram")
    if h is not None:
        return _csv_rows(range(h["m"]), h["counts"], h["total"])
    if "joint_histogram" in res:
        jh = res["joint_histogram"]
        labels = ["|".join(str(a) for a in cell["a"]) for cell in jh["cells"]]
        counts = [cell["count"] for cell in jh["cells"]]
        return _csv_rows(labels, counts, jh["total"])
    counts = res["class_counts"]
    return _csv_rows(range(len(counts)), counts, res["total_steps"])


def canonical_json(report: dict) -> str:
    """Stable serialization of the deterministic report section."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def emit(report: dict, fmt: str, path: str | None, duration: float) -> None:
    if fmt == "csv":
        text = _report_csv(report)
    else:
        text = json.dumps(
            {"report": report, "meta": {"duration_s": round(duration, 6)}},
            sort_keys=True,
            indent=2,
        )
        text += "\n"
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as e:
            raise UsageError(f"cannot write output file: {e}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- config plumbing


def _parse_int_list(value: str, field: str) -> list[int]:
    try:
        return [int(t) for t in value.split(",")]
    except ValueError:
        raise UsageError(f"field '{field}' is not an integer list")


def _parse_coefficients(value: str) -> list[int]:
    """A polynomial given as '1,0,2', constant first."""
    try:
        return [int(tok) for tok in value.split(",")]
    except ValueError:
        raise UsageError(f"polynomial '{value}' is not a comma-separated integer list")


def _parse_one_poly(values: list[str]) -> list[int]:
    polys = [_parse_coefficients(v) for v in values]
    if len(polys) != 1:
        raise UsageError("this command takes exactly one 'poly'")
    return polys[0]


def _parse_beta(value) -> Fraction:
    try:
        if isinstance(value, str) and "/" in value:
            num, den = value.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"beta '{value}' is not a rational number")


def _require(cfg: dict, fields) -> None:
    for f in fields:
        if cfg.get(f) is None:
            if f == "seed":
                raise UsageError("randomized command requires an explicit 'seed'")
            raise UsageError(f"missing required field '{f}'")


def _field(cfg) -> FieldSpec:
    return FieldSpec.from_prime(cfg["p"])


def _scan_spec(cfg: dict, p: int) -> ScanSpec:
    I = cfg["window"]
    L = cfg.get("block")
    x_start = cfg.get("x_start") if cfg.get("x_start") is not None else 0
    scan_len = cfg.get("scan_len")
    if scan_len is None:
        scan_len = p - x_start - I - (L or 0)
    return ScanSpec(x_start=x_start, scan_len=scan_len, window_len=I, block_len=L)


def _rect(cfg: dict, p: int) -> Rect:
    x_lo = cfg.get("x_lo") if cfg.get("x_lo") is not None else 0
    x_hi = cfg.get("x_hi") if cfg.get("x_hi") is not None else p - 1
    return Rect(x_lo=x_lo, x_hi=x_hi, y_lo=cfg["y_lo"], y_hi=cfg["y_hi"])


def _experiment_json(rep) -> dict:
    res = {
        "kind": rep.kind,
        "params": rep.params,
        "discrepancy": _frac_json(rep.discrepancy),
        "bound": rep.bound,
        "bound_pass": rep.bound_pass,
        "model": _model_json(rep.model),
        "model_pass": rep.model_pass,
    }
    if rep.histogram.k == 1:
        res["histogram"] = _hist_json(rep.histogram)
    else:
        res["joint_histogram"] = _joint_json(rep.histogram)
    return res


# ---------------------------------------------------------------- subcommands


def _cmd_experiment(command: str, cfg: dict) -> tuple[dict, list]:
    """phi, joint and restricted: the thm1, thm2 and thm3 experiments."""
    fs = _field(cfg)
    polys = [poly(c, fs.p) for c in (cfg["poly"] if command == "joint" else [cfg["poly"]])]
    spec = _scan_spec(cfg, fs.p)
    rect = _rect(cfg, fs.p) if command == "restricted" else None
    Cs = [curve(fs, cfg["ell"], P) for P in polys]
    opts = {
        "m": cfg["m"],
        "trials": cfg["trials"],
        "seed": cfg["seed"],
        "blocks": cfg.get("blocks"),
        "threads": cfg["threads"],
    }
    if command == "phi":
        rep = experiment_thm1(Cs[0], spec, **opts)
    elif command == "joint":
        rep = experiment_thm2(Cs, spec, **opts)
    else:
        rep = experiment_thm3(Cs[0], rect, spec, **opts)
    return _experiment_json(rep), rep.hypotheses


def _cmd_beta(cfg: dict) -> tuple[dict, list]:
    fs = _field(cfg)
    spec = _scan_spec(cfg, fs.p)
    scan = beta_residue_scan(fs, cfg["beta"], spec, m=cfg.get("m"), threads=cfg["threads"])
    res = {
        "beta": _frac_json(scan.beta),
        "y_max": scan.y_max,
        "window_len": spec.window_len,
        "positions": scan.positions,
        # N is I - R by definition; acceptance criterion 10 checks both
        # histograms against brute force
        "partition_ok": True,
        "r_histogram": _hist_json(scan.r_hist) if scan.r_hist else None,
        "n_histogram": _hist_json(scan.n_hist) if scan.n_hist else None,
    }
    return res, []


def _cmd_walk(cfg: dict) -> tuple[dict, list]:
    wc = WalkConfig(
        ell=cfg["ell"],
        m=cfg["m"],
        L=cfg["block"],
        trials=cfg["trials"],
        seed=cfg["seed"],
    )
    sim = simulate_phi(wc, threads=cfg["threads"])
    L, trials = wc.L, wc.trials
    counts = [int(round(float(s) * L)) for s in sim.phis.sum(axis=0)]
    res = {
        "ell": wc.ell,
        "m": wc.m,
        "L": L,
        "trials": trials,
        "class_counts": counts,
        "total_steps": L * trials,
        "mean": [float(v) for v in sim.mean],
        "stderr": [float(v) for v in sim.stderr],
    }
    return res, []


def _cmd_prop21(cfg: dict) -> tuple[dict, list]:
    part = cfg["part"]
    _require(cfg, {"a": ["ell"], "b": ["ell", "k"], "c": []}[part])
    if part == "a":
        enum = exact_prop21a(cfg["ell"], cfg["m"], cfg["block"])
    elif part == "b":
        enum = exact_prop21b(cfg["ell"], cfg["m"], cfg["block"], cfg["k"])
    else:
        enum = exact_prop21c(cfg["m"], cfg["block"])
    return {"part": part, **asdict(enum)}, []


def _cmd_charsum(cfg: dict) -> tuple[dict, list]:
    fs = _field(cfg)
    P = poly(cfg["poly"], fs.p)
    chi = character(fs, cfg["ell"])
    lo = cfg.get("lo") if cfg.get("lo") is not None else 0
    hi = cfg.get("hi") if cfg.get("hi") is not None else fs.p - 1
    return {"interval": [lo, hi], **asdict(weil_check(P, chi, lo, hi))}, []


def _census_json(res) -> dict:
    """A CensusResult or ShiftedCensusResult, its prediction as a fraction."""
    return {**asdict(res), "prediction": _frac_json(res.prediction)}


def _cmd_census(cfg: dict) -> tuple[dict, list]:
    fs = _field(cfg)
    polys = [poly(c, fs.p) for c in cfg["poly"]]
    chi = character(fs, cfg["ell"])
    stride = cfg.get("stride") if cfg.get("stride") is not None else 1
    theorem_mode = bool(cfg.get("theorem_mode"))
    res = joint_census(
        polys, chi, stride, cfg["offsets"], cfg["count_range"], cfg["v"], theorem_mode=theorem_mode
    )
    return _census_json(res), []


def _cmd_shifted(cfg: dict) -> tuple[dict, list]:
    fs = _field(cfg)
    P = poly(cfg["poly"], fs.p)
    C = curve(fs, cfg["ell"], P)
    rect = _rect(cfg, fs.p)
    stride = cfg.get("stride") if cfg.get("stride") is not None else 1
    return _census_json(shifted_census(C, rect, cfg["offsets"], stride)), []


def _cmd_gauss(cfg: dict) -> tuple[dict, list]:
    p = cfg["p"]
    FieldSpec.from_prime(p)
    a_values = [cfg["a"]] if cfg.get("a") is not None else list(range(1, p))
    entries = []
    for a in a_values:
        r, ok = gauss_lemma_check(a, p)
        entries.append({"a": a, "r": r, "ok": ok})
    return {"entries": entries, "all_ok": all(e["ok"] for e in entries)}, []


def _cmd_gaps(cfg: dict) -> tuple[dict, list]:
    fs = _field(cfg)
    lengths = cfg["window"]
    values = cor4_exceptional(fs, cfg["ell"], lengths, cfg["mu"])
    counts = [{"L": L, "count": c} for L, c in zip(lengths, values)]
    return {"counts": counts, "monotone": values == sorted(values, reverse=True)}, []


def _cmd_verify(cfg: dict) -> tuple[dict, list]:
    from . import acceptance

    only = set(cfg["only"]) if cfg.get("only") is not None else None
    results = acceptance.run_all(threads=cfg["threads"], only=only)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.cid:2d} [{status}] {r.name}: {r.detail}", file=sys.stderr)
    return {
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }, []


# ---------------------------------------------------------------- argument parsing

# Every field, declared once: its flags and its argparse keywords.  A field's
# name is its dest unless the keywords name another; _PARSERS holds the
# fields whose string values a handler reads parsed.  In a config file a
# field holds what its flag would: an integer for type=int, a list of strings
# for action="append", true or false for action="store_true", and a string
# otherwise.
_POLY_HELP = "coefficients, constant first: 1,0,1 is x^2+1"
_FIELDS = {
    "p": (("--p",), dict(type=int)),
    "ell": (("--ell",), dict(type=int)),
    "m": (("--m",), dict(type=int)),
    "window": (("--window", "-I"), dict(type=int, help="window length I")),
    "block": (("--block", "-L"), dict(type=int, help="block or walk length L")),
    "x_start": (("--x-start",), dict(type=int)),
    "scan_len": (("--scan-len",), dict(type=int)),
    # one curve's polynomial; a repeated flag is refused when parsed
    "poly": (("--poly",), dict(action="append", help=_POLY_HELP)),
    # one polynomial per curve, under the same dest
    "polys": (
        ("--poly",),
        dict(dest="poly", action="append", help=f"{_POLY_HELP}; repeat once per curve"),
    ),
    "blocks": (("--blocks",), dict(type=int, help="model blocks (default scan_len//L - 1)")),
    "trials": (("--trials",), dict(type=int, help="model trials (default 500)")),
    "seed": (("--seed",), dict(type=int, help="required for randomized commands")),
    "x_lo": (("--x-lo",), dict(type=int)),
    "x_hi": (("--x-hi",), dict(type=int)),
    "y_lo": (("--y-lo",), dict(type=int)),
    "y_hi": (("--y-hi",), dict(type=int)),
    "beta": (("--beta",), dict(help="rational in (0, 1/2], e.g. 1/2 or 0.3")),
    "part": (("--part",), dict(choices=["a", "b", "c"])),
    "k": (("--k",), dict(type=int, help="number of walks for part b")),
    "lo": (("--lo",), dict(type=int)),
    "hi": (("--hi",), dict(type=int)),
    "stride": (("--stride",), dict(type=int)),
    "offsets": (("--offsets",), dict(help="comma-separated probe offsets")),
    "count_range": (("--count-range",), dict(type=int, help="census range bound N")),
    "v": (("--v",), dict(action="append", help="target indices, one row per polynomial")),
    # an unset switch stays None, and so out of the report's config
    "theorem_mode": (("--theorem-mode",), dict(action="store_true", default=None)),
    "a": (("--a",), dict(type=int, help="single multiplier (default: sweep 1..p-1)")),
    "mu": (("--mu",), dict(type=int, help="unity index to look for")),
    # gaps: a comma list of window lengths, under the scans' dest
    "windows": (("--window", "-L"), dict(dest="window", help="window length(s), comma-separated")),
    "only": (("--only",), dict(help="comma-separated criterion ids")),
    "config": (("--config",), dict(help="JSON config file; explicit flags override it")),
    "threads": (("--threads",), dict(type=int, help="worker threads (default 1)")),
    "format": (("--format",), dict(choices=["json", "csv"])),
    "out": (("--out",), dict(help="output path (default stdout)")),
}

_SCAN = "p! ell! m! window! block! x_start scan_len"
_MODEL = "blocks trials seed!"
_RECT = "x_lo x_hi y_lo! y_hi!"
_COMMON = "config format out"

# Each subcommand: its handler, its help and its fields in flag order, where a
# trailing "!" marks a required one.  Every subcommand also takes _COMMON;
# only those that fan work out to threads take threads.
_SUBCOMMANDS = {
    "phi": (
        functools.partial(_cmd_experiment, "phi"),
        "window-count residue histogram of one curve",
        f"{_SCAN} poly! {_MODEL} threads",
    ),
    "joint": (
        functools.partial(_cmd_experiment, "joint"),
        "joint residue histogram over several curves",
        f"{_SCAN} polys! {_MODEL} threads",
    ),
    "restricted": (
        functools.partial(_cmd_experiment, "restricted"),
        "rectangle-restricted window histogram",
        f"{_SCAN} poly! {_RECT} {_MODEL} threads",
    ),
    "beta": (
        _cmd_beta,
        "beta-quadratic-residue window scan",
        "p! m window! x_start scan_len beta! threads",
    ),
    "walk": (
        _cmd_walk, "simulate the reference random walk", "ell! m! block! trials seed! threads"
    ),
    "prop21": (_cmd_prop21, "exact enumeration bounds for short walks", "part! ell m! block! k"),
    "charsum": (_cmd_charsum, "character-sum cancellation check", "p! ell! poly! lo hi"),
    "census": (
        _cmd_census,
        "stride census against N/d^r",
        "p! ell! polys! stride offsets! count_range! v! theorem_mode",
    ),
    "shifted": (_cmd_shifted, "shifted rectangle census", f"p! ell! poly! {_RECT} offsets! stride"),
    "gauss": (_cmd_gauss, "Gauss-lemma parity sweep", "p! a"),
    "gaps": (_cmd_gaps, "windows missing a character class", "p! ell! mu! windows!"),
    "verify": (_cmd_verify, "run the full verification suite", "only threads"),
}

# The fields parsed before the handler runs, each with its parser.  A parse
# error is a usage error, so it is refused before any field check that
# needs the work, p's primality included.
_PARSERS = {
    "poly": _parse_one_poly,
    "polys": lambda values: [_parse_coefficients(v) for v in values],
    "offsets": lambda value: _parse_int_list(value, "offsets"),
    "v": lambda rows: [_parse_int_list(row, "v") for row in rows],
    "windows": lambda value: _parse_int_list(value, "window"),
    "only": lambda value: _parse_int_list(value, "only"),
    "beta": _parse_beta,
}

# The subcommands that render CSV, each with the fields that rendering needs.
_CSV_NEEDS = {"phi": [], "joint": [], "restricted": [], "walk": [], "beta": ["m"]}


def _command_fields(command: str):
    """(name, dest, flags, keywords, required) of each field the command
    takes, in flag order."""
    for token in f"{_SUBCOMMANDS[command][2]} {_COMMON}".split():
        name = token.rstrip("!")
        flags, kw = _FIELDS[name]
        yield name, kw.get("dest", name), flags, kw, token != name


def _config_kind(kw: dict) -> type:
    """What a field with argparse keywords kw holds in a config file."""
    if kw.get("type") is int:
        return int
    return {"append": list, "store_true": bool}.get(kw.get("action"), str)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvestats",
        description="Window statistics of points on curves y^ell = P(x) over F_p.",
    )
    parser.add_argument("--version", action="version", version=f"curvestats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for _, dest, flags, kw, _ in _command_fields(command):
            sp.add_argument(*flags, **{**kw, "dest": dest})
    return parser


_NON_CONFIG_KEYS = {"command", "config"}


_KIND_NAMES = {int: "an integer", str: "a string", list: "a list of strings", bool: "true or false"}


def _merge_config(args: argparse.Namespace) -> dict:
    """The flags merged over the config file and the defaults, as the report
    echoes them.  Refuses every usage error but the parse errors, which
    _parsed refuses next, before the handler runs."""
    fields = {dest: (kw, required) for _, dest, _, kw, required in _command_fields(args.command)}
    cfg = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as f:
                file_cfg = json.load(f)
        except OSError as e:
            raise UsageError(f"cannot read config file: {e}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config file is not valid JSON: {e}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in cfg:
                raise UsageError(
                    f"unknown config field '{key}' for command '{args.command}'"
                )
            if value is None:
                continue
            kw = fields[key][0]
            kind = _config_kind(kw)
            if type(value) is not kind or (kind is list and any(type(v) is not str for v in value)):
                raise UsageError(
                    f"config field '{key}' must be {_KIND_NAMES[kind]}, not {json.dumps(value)}"
                )
            choices = kw.get("choices")
            if choices and value not in choices:
                raise UsageError(
                    f"config field '{key}' must be one of {json.dumps(choices)}, "
                    f"not {json.dumps(value)}"
                )
            if cfg[key] is None:
                cfg[key] = value
    if "threads" in cfg:
        if cfg["threads"] is None:
            cfg["threads"] = 1
        if cfg["threads"] < 1:
            raise UsageError(f"threads must be at least 1, not {cfg['threads']}")
    if "trials" in cfg and cfg["trials"] is None:
        cfg["trials"] = 500
    if cfg["format"] is None:
        cfg["format"] = "json"
    _require(cfg, [dest for dest, (_, required) in fields.items() if required])
    needs = _CSV_NEEDS.get(args.command)
    if cfg["format"] == "csv" and (needs is None or any(cfg[f] is None for f in needs)):
        raise UsageError("csv format is only available for histogram-producing commands")
    out = cfg["out"]
    # emit opens the file only after the work, so that a failed job never
    # truncates it; a target that cannot be a file is refused now
    if out:
        try:
            if os.path.isdir(out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
            os.stat(os.path.join(os.path.dirname(out), "."))  # its directory exists
        except OSError as e:
            raise UsageError(f"cannot write output file: {e}")
    return cfg


def _parsed(command: str, cfg: dict) -> dict:
    """cfg with each set field of _PARSERS parsed, in flag order: what the
    handler reads.  cfg itself keeps the strings that the report echoes."""
    values = dict(cfg)
    for name, dest, *_ in _command_fields(command):
        if name in _PARSERS and cfg[dest] is not None:
            values[dest] = _PARSERS[name](cfg[dest])
    return values


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        cfg = _merge_config(args)
        values = _parsed(args.command, cfg)
        handler = _SUBCOMMANDS[args.command][0]
        start = time.perf_counter()
        results, checks = handler(values)
        duration = time.perf_counter() - start
        report = {
            "command": args.command,
            "version": __version__,
            "config": {
                k: v
                for k, v in cfg.items()
                if k not in ("format", "out", "threads") and v is not None
            },
            "hypotheses": _checks_json(checks),
            "results": results,
        }
        emit(report, cfg["format"], cfg["out"], duration)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        label = HYPOTHESIS_LABELS.get(e.name, e.name)
        print(f"hypothesis violated: {label} [{e.name}]: {e.detail}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 1
    if args.command == "verify" and not results["all_passed"]:
        return 1
    if args.command == "prop21" and not results["passed"]:
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
