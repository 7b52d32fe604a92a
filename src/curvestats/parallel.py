"""The package's one thread fan-out.

Item i always runs as fn(i) and its result lands at index i, so results
never depend on the thread count or on which worker ran which item.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_indexed(fn, n: int, threads: int) -> list:
    """[fn(0), ..., fn(n - 1)], on a pool of `threads` workers when threads > 1."""
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))
