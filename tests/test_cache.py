"""Tests for the L1/L2 cache models and overflow detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.cache import CacheConfig, SharedL2Filter, SpeculativeCache
from repro.chunks.chunk import TruncationReason
from repro.chunks.processor import ChunkProcessor
from repro.errors import ConfigurationError
from repro.machine.memory import MainMemory
from repro.machine.program import Op, OpKind
from repro.machine.timing import MachineConfig


class TestCacheConfig:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(sets=100)

    def test_single_way_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(ways=1)

    def test_set_mapping(self):
        config = CacheConfig(sets=8, ways=2)
        assert config.set_of(0) == 0
        assert config.set_of(8) == 0
        assert config.set_of(9) == 1

    def test_speculative_ways_use_full_associativity(self):
        assert CacheConfig(sets=8, ways=4).speculative_ways == 4


class TestL1Classification:
    def test_first_access_misses(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        assert cache.access(0) == "memory"

    def test_second_access_hits(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)
        assert cache.access(0) == "l1"

    def test_lru_eviction(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)      # set 0
        cache.access(4)      # set 0
        cache.access(8)      # set 0 -> evicts line 0
        assert cache.access(0) != "l1"

    def test_lru_refresh_on_touch(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)
        cache.access(4)
        cache.access(0)      # refresh 0; 4 is now LRU
        cache.access(8)      # evicts 4
        assert cache.access(0) == "l1"

    def test_l2_filter_serves_evicted_lines(self):
        shared = SharedL2Filter(capacity_lines=64)
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2), shared)
        cache.access(0)
        cache.access(4)
        cache.access(8)      # evicts 0 from L1; 0 still in L2
        assert cache.access(0) == "l2"

    def test_invalidate(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(3)
        cache.invalidate(3)
        assert cache.coherence_invalidations == 1
        assert cache.access(3) != "l1"

    def test_invalidate_absent_line_is_noop(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.invalidate(77)
        assert cache.coherence_invalidations == 0

    def test_stats_keys(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(1)
        cache.access(1)
        stats = cache.stats()
        assert stats["l1_hits"] == 1
        assert stats["memory_accesses"] == 1


class TestSharedL2:
    def test_capacity_bound(self):
        shared = SharedL2Filter(capacity_lines=2)
        shared.access(1)
        shared.access(2)
        shared.access(3)   # evicts 1
        assert not shared.access(1)

    def test_lru_refresh(self):
        shared = SharedL2Filter(capacity_lines=2)
        shared.access(1)
        shared.access(2)
        shared.access(1)
        shared.access(3)   # evicts 2, not 1
        assert shared.access(1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedL2Filter(capacity_lines=0)


class TestOverflowDetection:
    def test_no_overflow_below_capacity(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=4))
        written = {0, 4, 8}       # three lines in set 0 (4 ways usable)
        assert not cache.write_would_overflow(written, 12)

    def test_overflow_at_set_capacity(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=4))
        written = {0, 4, 8, 12}   # set 0 full of speculative lines
        assert cache.write_would_overflow(written, 16)

    def test_rewriting_existing_line_never_overflows(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=4))
        written = {0, 4, 8, 12}
        assert not cache.write_would_overflow(written, 4)

    def test_other_sets_unaffected(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=4))
        written = {0, 4, 8, 12}   # all in set 0
        assert not cache.write_would_overflow(written, 1)  # set 1

    def test_overflow_is_deterministic_in_footprint(self):
        cache = SpeculativeCache(CacheConfig(sets=8, ways=4))
        written = {0, 8, 16}
        assert (cache.write_would_overflow(written, 24)
                == cache.write_would_overflow(written, 24))


# ----------------------------------------------------------------------
# The interpreter's O(1) overflow test against the reference definition
# ----------------------------------------------------------------------

_LINE_WORDS = MachineConfig().line_words

#: Op shapes of a generated stream.  Every kind that writes a line is
#: here; "lock" expands to LOCK + UNLOCK of one word (acquire, then
#: release), "barrier" is a one-participant barrier (arrive, then pass).
_WRITE_SHAPES = ("store", "rmw", "unlock", "lock", "barrier")


def _stream_ops(stream):
    ops = []
    for shape, line in stream:
        base = line * _LINE_WORDS
        if shape == "load":
            ops.append(Op(OpKind.LOAD, address=base))
        elif shape == "store":
            ops.append(Op(OpKind.STORE, address=base, value=line))
        elif shape == "rmw":
            ops.append(Op(OpKind.RMW, address=base, value=3))
        elif shape == "unlock":
            ops.append(Op(OpKind.UNLOCK, address=base))
        elif shape == "lock":
            ops.append(Op(OpKind.LOCK, address=base + 1))
            ops.append(Op(OpKind.UNLOCK, address=base + 1))
        else:
            ops.append(Op(OpKind.BARRIER, address=base + 2, count=1))
    return ops


def _reference_stop(cache, stream):
    """Replay ``stream`` against :meth:`write_would_overflow`: the index
    of the first op that overflows (or None) and the write set then."""
    written: set[int] = set()
    ops_before = 0
    for shape, line in stream:
        if shape != "load":
            if cache.write_would_overflow(written, line):
                return ops_before, written
            written.add(line)
        ops_before += 2 if shape == "lock" else 1
    return None, written


@st.composite
def _geometry_and_stream(draw):
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    ways = draw(st.integers(min_value=2, max_value=4))
    # Few distinct lines relative to the capacity: repeats (lines
    # already written) and sets filled to exactly ``ways`` are common.
    lines = st.integers(min_value=0, max_value=sets * (ways + 1) - 1)
    shapes = st.sampled_from(("load",) + _WRITE_SHAPES)
    stream = draw(st.lists(st.tuples(shapes, lines),
                           min_size=1, max_size=60))
    return sets, ways, stream


@settings(max_examples=300, deadline=None)
@given(_geometry_and_stream())
def test_interpreter_overflow_matches_reference(case):
    """The chunk stops at exactly the op where ``write_would_overflow``
    says the write set overflows, with exactly that write set."""
    sets, ways, stream = case
    cache = SpeculativeCache(CacheConfig(sets=sets, ways=ways))
    processor = ChunkProcessor(0, _stream_ops(stream), MachineConfig(),
                               cache)
    chunk = processor.build_chunk(0.0, 10_000, memory=MainMemory())
    stop, written = _reference_stop(cache, stream)
    if stop is None:
        assert chunk.truncation is TruncationReason.PROGRAM_END
        assert processor.spec_state.op_index == len(processor.ops)
    else:
        assert chunk.truncation is TruncationReason.CACHE_OVERFLOW
        assert processor.spec_state.op_index == stop
    assert chunk.write_lines == written


def test_full_set_accepts_rewrites_and_stops_at_a_new_line():
    """A set holding exactly ``ways`` written lines still takes stores
    to those lines; the first new line in the set truncates."""
    sets, ways = 4, 2
    stream = [("store", 0), ("rmw", 4),             # set 0 at capacity
              ("store", 0), ("lock", 4), ("barrier", 0),  # rewrites
              ("store", 1),                          # another set
              ("store", 8)]                          # new line: overflow
    cache = SpeculativeCache(CacheConfig(sets=sets, ways=ways))
    processor = ChunkProcessor(0, _stream_ops(stream), MachineConfig(),
                               cache)
    chunk = processor.build_chunk(0.0, 10_000, memory=MainMemory())
    assert chunk.truncation is TruncationReason.CACHE_OVERFLOW
    assert chunk.write_lines == {0, 1, 4}
    assert processor.ops[processor.spec_state.op_index] == Op(
        OpKind.STORE, address=8 * _LINE_WORDS, value=8)
    assert _reference_stop(cache, stream) == (
        processor.spec_state.op_index, {0, 1, 4})


# ----------------------------------------------------------------------
# Batched coherence invalidation
# ----------------------------------------------------------------------

_CACHE_LINES = st.integers(min_value=0, max_value=63)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 4, 8]), st.integers(min_value=2, max_value=4),
       st.lists(_CACHE_LINES, max_size=80), st.sets(_CACHE_LINES))
def test_invalidate_lines_matches_per_line_invalidate(
        sets, ways, accesses, lines):
    """One batched call returns, counts and leaves behind exactly what
    one :meth:`invalidate` per line would."""
    per_line = SpeculativeCache(CacheConfig(sets=sets, ways=ways))
    batched = SpeculativeCache(CacheConfig(sets=sets, ways=ways))
    for line in accesses:
        per_line.access(line)
        batched.access(line)
    before = per_line.coherence_invalidations
    for line in lines:
        per_line.invalidate(line)
    expected = per_line.coherence_invalidations - before
    assert batched.invalidate_lines(lines) == expected
    assert batched.coherence_invalidations == \
        per_line.coherence_invalidations
    # Same residency and LRU order: every probe classifies alike.
    for line in range(64):
        assert batched.access(line) == per_line.access(line)
    assert batched.stats() == per_line.stats()
