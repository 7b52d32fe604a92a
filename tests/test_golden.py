"""Golden reports: the canonical output of every subcommand at fixed inputs.

Each case runs one ``cli.run`` call and compares its output byte for byte
with a file under ``tests/golden/``: the canonical JSON of the report
section (``cli.canonical_json``, plus a newline) or, for ``--format csv``
cases, the CSV text.  Cases that differ only in ``--threads`` share one
file, so they also pin thread-count independence.

To regenerate the files after an intended output change, run

    PYTHONPATH=src python3 tests/test_golden.py

from the root of a checkout, and review the diff before committing it.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from curvestats import cli, curvewin, rwalk

GOLDEN = Path(__file__).resolve().parent / "golden"

P = ["--p", "10007"]
PHI = ["phi", *P, "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
       "--window", "100", "--block", "5", "--trials", "50", "--seed", "7"]
JOINT = ["joint", *P, "--ell", "2", "--m", "3", "--poly", "0,1", "--poly", "1,0,1",
         "--window", "100", "--block", "4", "--trials", "50", "--seed", "7"]
RESTRICTED = ["restricted", *P, "--ell", "2", "--m", "3", "--poly", "0,1",
              "--window", "100", "--block", "10", "--y-lo", "1", "--y-hi", "5003",
              "--trials", "50", "--seed", "7"]
BETA = ["beta", *P, "--beta", "1/3", "--m", "3", "--window", "100"]
WALK = ["walk", "--ell", "2", "--m", "3", "--block", "50", "--trials", "20", "--seed", "5"]

# case name -> (golden file, argv)
CASES = {
    "phi-t1": ("phi.json", PHI + ["--threads", "1"]),
    "phi-t2": ("phi.json", PHI + ["--threads", "2"]),
    "phi-csv": ("phi.csv", PHI + ["--format", "csv"]),
    "joint": ("joint.json", JOINT),
    "joint-csv": ("joint.csv", JOINT + ["--format", "csv"]),
    "restricted": ("restricted.json", RESTRICTED),
    "restricted-csv": ("restricted.csv", RESTRICTED + ["--format", "csv"]),
    "beta": ("beta.json", BETA),
    "beta-csv": ("beta.csv", BETA + ["--format", "csv"]),
    "walk-t1": ("walk.json", WALK + ["--threads", "1"]),
    "walk-t2": ("walk.json", WALK + ["--threads", "2"]),
    "prop21-a": ("prop21-a.json",
                 ["prop21", "--part", "a", "--ell", "2", "--m", "3", "--block", "2"]),
    "prop21-b": ("prop21-b.json",
                 ["prop21", "--part", "b", "--ell", "2", "--m", "3", "--block", "2", "--k", "2"]),
    "prop21-c": ("prop21-c.json",
                 ["prop21", "--part", "c", "--ell", "2", "--m", "3", "--block", "4"]),
    "charsum": ("charsum.json", [
        "charsum", *P, "--ell", "2", "--poly", "1,1,0,1", "--lo", "100", "--hi", "5000",
    ]),
    # the whole field, so both twist lists are filled: twists 1 and 3 checked, 2 skipped
    "charsum-full": ("charsum-full.json",
                     ["charsum", "--p", "10009", "--ell", "4", "--poly", "1,2,1"]),
    "census-one": ("census-one.json", [
        "census", *P, "--ell", "2", "--poly", "1,1,0,1", "--stride", "1",
        "--offsets", "0,1", "--count-range", "10005", "--v", "0,1",
    ]),
    "census-two": ("census-two.json", [
        "census", *P, "--ell", "2", "--poly", "0,1", "--poly", "1,0,1", "--stride", "1",
        "--offsets", "0,1", "--count-range", "10005", "--v", "0,1", "--v", "1,0",
    ]),
    "shifted": ("shifted.json", [
        "shifted", *P, "--ell", "2", "--poly", "0,1", "--y-lo", "1", "--y-hi", "5003",
        "--offsets", "0,1", "--stride", "1",
    ]),
    "gauss": ("gauss.json", ["gauss", *P, "--a", "5"]),
    "gaps": ("gaps.json", ["gaps", *P, "--ell", "2", "--mu", "1", "--window", "5,10,20"]),
    "verify": ("verify.json", ["verify", "--only", "3,8,10"]),
}


def render(argv) -> str:
    """The golden text of one CLI run; fails unless it exits 0."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    assert code == 0, f"exit code {code} for {argv}"
    if "csv" in argv:
        return buf.getvalue()
    return cli.canonical_json(json.loads(buf.getvalue())["report"]) + "\n"


@pytest.mark.parametrize("case", list(CASES))
def test_golden_report(case):
    name, argv = CASES[case]
    assert render(argv) == (GOLDEN / name).read_text()


# the scanning cases again, over many short chunks (97 windows, a prime, so
# chunk edges fall at no window or block boundary) and model batches of one
# trial; at 2 threads every scan and every model runs on two workers
SCANS = {
    "phi": ("phi.json", PHI),
    "joint": ("joint.json", JOINT),
    "restricted": CASES["restricted"],
    "beta": CASES["beta"],
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", list(SCANS))
def test_golden_report_in_short_chunks(case, threads, monkeypatch):
    monkeypatch.setattr(curvewin, "_SCAN_CHUNK", 97)
    monkeypatch.setattr(rwalk, "_VISIT_BATCH", 1)
    workers = []
    for module in (curvewin, rwalk):
        run_blocks = module.run_blocks

        def spied(fn, n, t, module=module, run_blocks=run_blocks):
            workers.append((module.__name__, min(n, t)))
            return run_blocks(fn, n, t)

        monkeypatch.setattr(module, "run_blocks", spied)
    name, argv = SCANS[case]
    assert render(argv + ["--threads", threads]) == (GOLDEN / name).read_text()
    fanned = {"curvestats.curvewin"} | ({"curvestats.rwalk"} if "--trials" in argv else set())
    assert {mod for mod, _ in workers} == fanned
    assert {w for _, w in workers} == {int(threads)}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.values():
        (GOLDEN / name).write_text(render(argv))
        print(f"wrote {name}")
