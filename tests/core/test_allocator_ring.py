"""The ring-buffer free queues against a ``deque`` oracle.

Which DSN an allocation is handed decides every simulated number
downstream, so the FIFO order of each rank's free queue is the
allocator's contract.  ``deque_allocator_reference.DequeAllocator`` keeps
that order the obvious way; the cases here walk the ring across its seam
and a hypothesis run throws random operation sequences, bad inputs
included, at both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import RankRole, SegmentAllocator
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, ReproError
from repro.units import MIB

from tests.core.deque_allocator_reference import DequeAllocator

GEOMETRY = DramGeometry(channels=2, ranks_per_channel=2,
                        rank_bytes=16 * MIB)  # 8 segments per rank
RANKS = [(channel, rank) for channel in range(2) for rank in range(2)]
PER_RANK = GEOMETRY.segments_per_rank


def state(allocator: SegmentAllocator) -> dict:
    return {rank_id: (allocator.free_dsns_in_rank(rank_id).tolist(),
                      allocator.allocated_in_rank(rank_id).tolist(),
                      allocator.role(rank_id))
            for rank_id in RANKS}


def outcome(action) -> tuple:
    """What ``action`` returned (arrays as lists), or its library error.
    A bulk call names an out-of-range DSN "in batch" where the scalar
    method prints it, so address errors compare by type."""
    try:
        result = action()
    except AddressError:
        return (AddressError, None)
    except (ReproError, ValueError) as error:
        return (type(error), str(error))
    return ("returned", None if result is None else list(map(int, result)))


def pair():
    return SegmentAllocator(GEOMETRY), DequeAllocator(GEOMETRY)


def both(ring, oracle, method: str, *args) -> tuple:
    """Call ``method`` on both; results, errors and books must agree."""
    got = outcome(lambda: getattr(ring, method)(*args))
    assert got == outcome(lambda: getattr(oracle, method)(*args)), method
    assert state(ring) == oracle.state(), method
    for rank_id in RANKS:
        usage = ring.usage(rank_id)
        assert (usage.free, usage.allocated) == (
            len(oracle.free_queues[rank_id]),
            len(oracle.allocated[rank_id]))
    return got


# -- the seam ------------------------------------------------------------------


def wrapped(rank_id=(0, 0), taken: int = 6):
    """A pair whose ``rank_id`` queue starts ``taken`` slots into its
    ring and runs across the end: take 6 of 8, hand 5 back."""
    ring, oracle = pair()
    _, dsns = both(ring, oracle, "allocate_in_rank", rank_id, taken)
    both(ring, oracle, "free", dsns[:5])
    return ring, oracle, dsns


def test_take_across_the_seam():
    ring, oracle, _ = wrapped()
    # Queue: the 2 never taken, then the 5 handed back; 4 straddle the end.
    _, dsns = both(ring, oracle, "allocate_in_rank", (0, 0), 4)
    assert len(dsns) == 4
    both(ring, oracle, "allocate_in_rank", (0, 0), 3)
    both(ring, oracle, "allocate_in_rank", (0, 0), 1)  # refused: empty


def test_free_across_the_seam():
    ring, oracle = pair()
    _, dsns = both(ring, oracle, "allocate_in_rank", (0, 0), 8)
    both(ring, oracle, "free", dsns[:3])
    both(ring, oracle, "allocate_in_rank", (0, 0), 3)  # head at slot 3
    # Seven go back from slot 3: five fit, two wrap to slots 0 and 1.
    both(ring, oracle, "free", dsns[3:] + dsns[1::-1])
    both(ring, oracle, "allocate_in_rank", (0, 0), 6)
    both(ring, oracle, "free", [dsns[2]])


def test_scalar_free_lands_on_the_seam():
    ring, oracle = pair()
    _, dsns = both(ring, oracle, "allocate_in_rank", (0, 0), 7)
    for dsn in dsns[:3]:  # the first lands in slot 0, behind slot 7
        both(ring, oracle, "free", [dsn])
    both(ring, oracle, "allocate_in_rank", (0, 0), 4)


@pytest.mark.parametrize("position", ["head", "tail", "middle",
                                      "middle past the seam"])
def test_reserve_specific_closes_the_gap(position):
    ring, oracle, _ = wrapped()
    queue = ring.free_dsns_in_rank((0, 0)).tolist()
    dsn = {"head": queue[0], "tail": queue[-1], "middle": queue[1],
           "middle past the seam": queue[4]}[position]
    both(ring, oracle, "reserve_specific", dsn)
    both(ring, oracle, "reserve_specific", dsn)  # refused: not free now
    both(ring, oracle, "free", [dsn])
    both(ring, oracle, "allocate_in_rank", (0, 0), 7)


def test_reserve_batch_is_the_scalar_method_in_order():
    ring, oracle, _ = wrapped()
    queue = ring.free_dsns_in_rank((0, 0)).tolist()
    other = ring.free_dsns_in_rank((1, 1)).tolist()
    both(ring, oracle, "reserve_batch", [queue[5], other[3], queue[0]])
    # The second is taken: the first is reserved, the third is not.
    both(ring, oracle, "reserve_batch", [queue[2], other[3], queue[1]])
    # Named twice: reserved once, then refused.
    both(ring, oracle, "reserve_batch", [queue[3], queue[3]])
    both(ring, oracle, "reserve_batch", [])


def test_a_rank_drained_to_empty_and_refilled():
    ring, oracle = pair()
    for _ in range(3):  # each round leaves the head somewhere new
        _, first = both(ring, oracle, "allocate_in_rank", (1, 0), 5)
        _, rest = both(ring, oracle, "allocate_in_rank", (1, 0), 3)
        assert ring.free_in_rank((1, 0)) == 0
        both(ring, oracle, "allocate_in_rank", (1, 0), 1)  # refused
        both(ring, oracle, "free", rest + first[::-1])
        assert ring.free_in_rank((1, 0)) == PER_RANK


def test_allocate_spans_ranks_and_the_seam():
    ring, oracle, _ = wrapped(rank_id=(0, 0))
    wrapped_1 = both(ring, oracle, "allocate_in_rank", (1, 0), 6)[1]
    both(ring, oracle, "free", wrapped_1[:5])
    # Both channels' fullest rank holds 7 free, 5 of them past the seam.
    both(ring, oracle, "allocate", 20)
    both(ring, oracle, "allocate", 16)  # refused: 6 left per channel


# -- random sequences -----------------------------------------------------------

DSNS = st.integers(-2, GEOMETRY.total_segments + 1)  # a few out of range
DSN_LISTS = st.lists(DSNS, max_size=12)
OPERATIONS = st.one_of(
    st.tuples(st.just("allocate"), st.integers(0, 12)),
    st.tuples(st.just("set_role"), st.sets(st.sampled_from(RANKS)),
              st.sampled_from(RankRole)),
    st.tuples(st.just("allocate_in_rank"), st.sampled_from(RANKS),
              st.integers(0, PER_RANK + 1)),
    st.tuples(st.just("free"), DSN_LISTS),
    st.tuples(st.just("free_some"), st.integers(0, 2 ** 16),
              st.integers(0, 12)),
    st.tuples(st.just("move_allocations"), DSN_LISTS, DSN_LISTS),
    st.tuples(st.just("move_some"), st.integers(0, 2 ** 16),
              st.integers(0, 6)),
    st.tuples(st.just("reserve_specific"), DSNS),
    st.tuples(st.just("reserve_batch"), DSN_LISTS),
)


def allocated_now(oracle: DequeAllocator) -> list[int]:
    return sorted(dsn for dsns in oracle.allocated.values() for dsn in dsns)


def pick(pool: list[int], seed: int, count: int) -> list[int]:
    """``count`` distinct members of ``pool`` in an order ``seed`` picks."""
    pool = list(pool)
    chosen = []
    while pool and len(chosen) < count:
        seed, index = divmod(seed, len(pool))
        chosen.append(pool.pop(index))
    return chosen


@settings(max_examples=300, deadline=None)
@given(operations=st.lists(OPERATIONS, max_size=40))
def test_random_sequences_match_the_deque_oracle(operations):
    ring, oracle = pair()
    for name, *args in operations:
        if name == "free_some":  # a clean bulk free of live segments
            both(ring, oracle, "free", pick(allocated_now(oracle), *args))
        elif name == "move_some":  # a clean drain: reserve, then move
            seed, count = args
            sources = pick(allocated_now(oracle), seed, count)
            targets = []
            for source in sources:
                queue = oracle.free_queues[oracle.rank_of_dsn(source)]
                spare = [dsn for dsn in queue if dsn not in targets]
                if not spare:
                    break
                targets.append(spare[seed % len(spare)])
            sources = sources[:len(targets)]
            both(ring, oracle, "reserve_batch", targets)
            both(ring, oracle, "move_allocations", sources, targets)
        else:
            both(ring, oracle, name, *args)
