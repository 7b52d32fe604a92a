"""The package's one thread fan-out.

Items are fixed by the input; threads choose only which worker runs
each, and item i's result always lands at index i, so results never
depend on the thread count.  Scans hand out tiles of windows, model
sampling batches of trials and walk simulation single trials.
run_blocks hands each worker its whole block of items at once, so that
a worker sets up state, such as scan buffers, once for all of them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_blocks(fn, n: int, threads: int) -> list:
    """fn(lo, hi) returns the results of items lo..hi-1; run it over at
    most `threads` contiguous blocks of [0, n), one task per worker, and
    concatenate the results in item order."""
    workers = max(1, min(threads, n))
    bounds = [w * n // workers for w in range(workers + 1)]
    if workers == 1:
        return list(fn(0, n))
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = ex.map(lambda w: fn(bounds[w], bounds[w + 1]), range(workers))
        return [r for part in parts for r in part]

