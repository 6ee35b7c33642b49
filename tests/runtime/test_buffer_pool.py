"""BufferPool best-fit choice against a linear-scan reference (hypothesis).

The pool keeps its free blocks sorted and bisects for the smallest adequate
one.  The reference below scans an arrival-ordered free list the way the
pool used to; on any interleaving of ``take`` / ``give`` both must hand out
the very same block object (smallest adequate, earliest returned among
equal sizes, refused when it would waste more than ``max_waste``) and end
with the same counters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.plan import BufferPool


class LinearScanPool:
    """Reference: best fit by a full scan of the arrival-ordered free list."""

    def __init__(self, max_waste=2.0):
        self.max_waste = float(max_waste)
        self._free = []
        self.hits = 0
        self.misses = 0
        self.bytes_pooled = 0
        self.bytes_fresh = 0

    def take(self, nbytes):
        nbytes = int(nbytes)
        best = None
        for index, block in enumerate(self._free):
            if block.nbytes < nbytes:
                continue
            if best is None or block.nbytes < self._free[best].nbytes:
                best = index
        if best is not None and self._free[best].nbytes <= max(
            int(nbytes * self.max_waste), nbytes + (1 << 16)
        ):
            block = self._free.pop(best)
            self.hits += 1
            self.bytes_pooled += block.nbytes
            return block
        self.misses += 1
        self.bytes_fresh += nbytes
        return np.empty(nbytes, dtype=np.uint8)

    def give(self, blocks):
        self._free.extend(blocks)

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_pooled": self.bytes_pooled,
            "bytes_fresh": self.bytes_fresh,
            "free_bytes": sum(block.nbytes for block in self._free),
        }


#: Few distinct sizes (so equal-sized ties are common), straddling the
#: 64 KiB slack and the ``max_waste`` ratio.
SIZES = st.sampled_from([0, 1, 96, 4096, 65_536, 70_000, 100_000, 140_000, 300_000])

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("take"), SIZES),
        st.tuples(st.just("give"), st.lists(SIZES, min_size=1, max_size=4)),
        st.tuples(st.just("regive"), st.integers(min_value=0, max_value=1000)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(max_waste=st.sampled_from([1.0, 1.5, 2.0, 4.0]), operations=OPERATIONS)
def test_same_block_as_linear_scan(max_waste, operations):
    pool = BufferPool(max_waste=max_waste)
    reference = LinearScanPool(max_waste=max_waste)
    given_ids = set()
    taken = []  # recycled blocks both pools handed out, available to regive
    for op, arg in operations:
        if op == "give":
            blocks = [np.empty(nbytes, dtype=np.uint8) for nbytes in arg]
            given_ids.update(id(block) for block in blocks)
            pool.give(blocks)
            reference.give(blocks)
        elif op == "regive":
            if taken:
                block = taken.pop(arg % len(taken))
                pool.give([block])
                reference.give([block])
        else:
            got, want = pool.take(arg), reference.take(arg)
            if id(want) in given_ids:
                assert got is want
                taken.append(got)
            else:  # both missed: fresh, unrelated blocks of the request size
                assert id(got) not in given_ids
                assert got.nbytes == want.nbytes == arg
        assert pool.stats() == reference.stats()
    assert pool.stats() == reference.stats()


def test_equal_sizes_come_back_in_arrival_order():
    pool = BufferPool()
    first, second, third = (np.empty(4096, dtype=np.uint8) for _ in range(3))
    pool.give([first, second])
    pool.give([third])
    assert pool.take(4000) is first
    assert pool.take(4096) is second
    pool.give([first])
    assert pool.take(1) is third
    assert pool.take(1) is first
    assert pool.stats()["hits"] == 4


def test_waste_bound_refuses_oversized_blocks():
    pool = BufferPool(max_waste=2.0)
    huge = np.empty(1 << 20, dtype=np.uint8)
    pool.give([huge])
    # 1 MiB for a 100 kB request wastes more than 2x and more than 64 KiB.
    assert pool.take(100_000) is not huge
    assert pool.stats()["misses"] == 1
    assert pool.take(600_000) is huge
