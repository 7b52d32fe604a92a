"""The thread fan-out: results by index, at most one worker per block."""

import threading

import pytest

from curvestats.parallel import run_blocks


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
def test_run_indexed_lands_by_index(n, threads):
    # per-item (indexed) work, as walk simulation runs it: a comprehension
    # over each block, whose results land by item index
    idents = set()
    blocks = []
    lock = threading.Lock()

    def fn(i):
        with lock:
            idents.add(threading.get_ident())
        return i * i - 3

    def block(lo, hi):
        with lock:
            blocks.append((lo, hi))
        return [fn(i) for i in range(lo, hi)]

    assert run_blocks(block, n, threads) == [i * i - 3 for i in range(n)]
    assert len(idents) <= min(threads, n)
    # the blocks tile [0, n) contiguously, at most one per worker
    blocks.sort()
    assert len(blocks) == max(1, min(threads, n))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
