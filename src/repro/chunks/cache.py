"""Set-associative L1 model with speculative-overflow detection.

Two jobs live here.  First, a timing classifier: every memory access is
looked up in a private LRU L1 and a shared L2 line filter, yielding the
level ("l1" / "l2" / "memory") whose latency the timing model charges.
Second -- the part DeLorean actually depends on -- detection of
*attempted overflow of speculatively updated lines*: a chunk that writes
more distinct lines mapping to one cache set than the cache has ways
must be truncated and committed early (Section 4.2.3).  This is the
dominant source of non-deterministic chunk truncation and therefore of
CS-log entries.

Modeling note (documented in DESIGN.md): we check a chunk's *own*
write-line footprint against the set's full associativity rather than
modeling cross-chunk interference inside the set.  This keeps the
overflow point a deterministic function of the chunk's address stream;
the genuinely non-deterministic component of the real hardware
(wrong-path speculative loads, multi-chunk interference) is modeled by
a separate stochastic early-truncation source in the machine, seeded
differently for record and replay so the CS-log machinery is exercised
both ways.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the private L1 (Table 5: 32KB / 4-way / 32B lines)."""

    sets: int = 128
    ways: int = 4

    def __post_init__(self) -> None:
        if self.sets <= 0 or self.sets & (self.sets - 1):
            raise ConfigurationError(
                f"cache sets must be a positive power of two, got "
                f"{self.sets}")
        if self.ways < 2:
            raise ConfigurationError(
                "a speculative cache needs at least 2 ways")

    def set_of(self, line: int) -> int:
        """Set index a line maps to."""
        return line & (self.sets - 1)

    @property
    def speculative_ways(self) -> int:
        """Distinct lines one chunk may speculatively write into a set
        before an overflow attempt is declared.

        The full associativity is usable: committed lines can always be
        written back to make room, so only a chunk whose *own* write
        footprint exceeds the set capacity must stop (the rare event of
        Section 4.2.3).
        """
        return self.ways


class SharedL2Filter:
    """A bounded LRU set of lines standing in for the shared 8MB L2.

    Only used for timing classification (L2 hit vs. memory); it holds no
    data.  Shared by all processors of one machine.
    """

    def __init__(self, capacity_lines: int = 65536) -> None:
        if capacity_lines < 1:
            raise ConfigurationError("L2 capacity must be positive")
        self.capacity = capacity_lines
        self._lines: OrderedDict[int, None] = OrderedDict()

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        hit = line in self._lines
        if hit:
            self._lines.move_to_end(line)
        else:
            self._lines[line] = None
            if len(self._lines) > self.capacity:
                self._lines.popitem(last=False)
        return hit

    def __len__(self) -> int:
        return len(self._lines)


class SpeculativeCache:
    """Private L1: LRU timing state plus speculative write tracking."""

    def __init__(
        self,
        config: CacheConfig | None = None,
        shared_l2: SharedL2Filter | None = None,
    ) -> None:
        self.config = config or CacheConfig()
        self.shared_l2 = shared_l2
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.config.sets)]
        self._set_mask = self.config.sets - 1
        self._ways = self.config.ways
        self.hits = 0
        self.l2_hits = 0
        self.memory_accesses = 0
        self.coherence_invalidations = 0

    def access(self, line: int) -> str:
        """Classify an access and update LRU state.

        Returns the serving level: ``"l1"``, ``"l2"`` or ``"memory"``.
        """
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return "l1"
        # Miss: consult (and fill) the shared L2 filter, then fill L1.
        level = "memory"
        if self.shared_l2 is not None and self.shared_l2.access(line):
            level = "l2"
        cache_set[line] = None
        if len(cache_set) > self._ways:
            cache_set.popitem(last=False)
        if level == "l2":
            self.l2_hits += 1
        else:
            self.memory_accesses += 1
        return level

    def invalidate(self, line: int) -> None:
        """Coherence invalidation caused by a remote chunk commit."""
        cache_set = self._sets[self.config.set_of(line)]
        if line in cache_set:
            del cache_set[line]
            self.coherence_invalidations += 1

    def invalidate_lines(self, lines) -> int:
        """Invalidate every resident line of ``lines`` (one remote
        commit's write set); returns how many were resident.

        Same effect and counters as one :meth:`invalidate` per line.
        """
        sets = self._sets
        set_mask = self._set_mask
        invalidated = 0
        for line in lines:
            cache_set = sets[line & set_mask]
            if line in cache_set:
                del cache_set[line]
                invalidated += 1
        self.coherence_invalidations += invalidated
        return invalidated

    def write_would_overflow(
        self,
        chunk_write_lines: set[int],
        new_line: int,
    ) -> bool:
        """Would adding ``new_line`` to a chunk's speculative write set
        overflow its set?

        True when the chunk already holds ``speculative_ways`` distinct
        written lines in the target set and ``new_line`` is not one of
        them -- the condition under which execution must stop and the
        chunk be truncated (Section 4.2.3).

        This is the reference definition.  The chunk interpreter
        (:meth:`ChunkProcessor._execute_into`) implements the same test
        in O(1) from per-set counts of the chunk's written lines; the
        property tests check the two agree.
        """
        if new_line in chunk_write_lines:
            return False
        target_set = self.config.set_of(new_line)
        resident = sum(
            1 for line in chunk_write_lines
            if self.config.set_of(line) == target_set)
        return resident >= self.config.speculative_ways

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the analysis layer."""
        return {
            "l1_hits": self.hits,
            "l2_hits": self.l2_hits,
            "memory_accesses": self.memory_accesses,
            "coherence_invalidations": self.coherence_invalidations,
        }
