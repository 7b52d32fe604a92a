"""The package's one thread fan-out.

Item i always runs as fn(i) and its result lands at index i, so results
never depend on the thread count or on which worker ran which item.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_indexed(fn, n: int, threads: int) -> list:
    """[fn(0), ..., fn(n - 1)], split into at most `threads` contiguous
    blocks of items, one task per worker, when threads > 1 and n > 1."""
    workers = min(threads, n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    bounds = [w * n // workers for w in range(workers + 1)]

    def block(w: int) -> list:
        return [fn(i) for i in range(bounds[w], bounds[w + 1])]

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return [r for part in ex.map(block, range(workers)) for r in part]
