"""Run one curvestats CLI job in this fresh interpreter and report its cost.

Usage: python3 child.py SPEC

SPEC is a JSON object: ``t0`` (the parent's ``time.perf_counter()`` just
before it started this process; both read the same monotonic clock),
``src`` (the directory that holds the ``curvestats`` package), ``argv``
(the CLI arguments, or null to measure start-up only) and ``trace``.
The result is printed as one JSON line on standard output.
"""

import json
import sys
import time

SPEC = json.loads(sys.argv[1])
sys.path.insert(0, SPEC["src"])

import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy  # noqa: E402
from curvestats import cli  # noqa: E402

ARGV = None if SPEC["argv"] is None else [str(a) for a in SPEC["argv"]]
SETUP_S = time.perf_counter() - SPEC["t0"]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> dict:
    out = {"setup_s": SETUP_S, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(SPEC["src"]) + os.sep):
        out["error"] = f"curvestats imported from {cli.__file__}, not from the checkout"
        return out
    if ARGV is None:
        return out
    tracer = None
    if SPEC["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if tracer is None:
                code = cli.run(ARGV)
            else:
                code = tracer.call("cli", cli.run, (ARGV,))
    except Exception:
        out["error"] = traceback.format_exc(limit=-3)
        return out
    finally:
        out["job_s"] = time.perf_counter() - t1
        out["cpu_s"] = _cpu_s() - cpu0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["exit_code"] = code
    if code != 0:
        out["error"] = f"exit code {code}: {stderr.getvalue()[-500:]}"
        return out
    report = json.loads(stdout.getvalue())["report"]
    out["report"] = report
    out["sha256"] = hashlib.sha256(cli.canonical_json(report).encode()).hexdigest()
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["missing"] = tracer.missing
        out["max_threads"] = tracer.max_threads
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
