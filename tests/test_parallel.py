"""The thread fan-out: results by index, at most one worker per block."""

import threading

import pytest

from curvestats.parallel import run_indexed


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
def test_run_indexed_lands_by_index(n, threads):
    idents = set()
    lock = threading.Lock()

    def fn(i):
        with lock:
            idents.add(threading.get_ident())
        return i * i - 3

    assert run_indexed(fn, n, threads) == [i * i - 3 for i in range(n)]
    assert len(idents) <= min(threads, n)
