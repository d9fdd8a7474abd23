"""Limb-granularity memory-access traces and the recorder that emits them.

The unit of simulation is one **limb of one ring element** —
``params.limb_bytes`` bytes, the same block the analytical model counts in
:mod:`repro.perf.primitives`.  A trace is a flat event sequence of three
event kinds:

* :class:`Access` — one block-granular read, write, or scratch write of a
  ``ct``-stream limb.  Reads allocate in the simulated cache unless
  marked ``allocate=False`` (a non-temporal streaming pass the schedule
  knows has no reuse); writes are write-through and only allocate when
  the schedule marks the block ``resident`` (compute-in-cache outputs
  whose residency the analytical thresholds assume); scratch writes
  allocate **without** any DRAM traffic (on-chip accumulators that the
  analytical model never counts — if they are evicted and re-read, the
  refill shows up as extra simulated DRAM reads, which is exactly the
  fit-threshold break the validator reports).
* :class:`BulkAccess` — an uncacheable streaming transfer (switching-key
  and plaintext reads).  The analytical model never lets caching touch
  key reads, so the simulator accounts them without cache interaction.
* :class:`PinEvent` — advisory pin/unpin of a block set (the working set
  a MAD optimization assumes resident).  Only the pin-aware policy
  honors pins; LRU and Belady ignore them.
* :class:`FlushEvent` — a last-use hint: the blocks are dead, drop them
  from the cache without traffic (write-through means nothing is dirty).
  Schedules flush data whose next consumer is *counted* as a DRAM read
  by the analytical model, so residue hits never mask real traffic.

**Recorder discipline** (enforced by the ``TraceDiscipline`` rule in
``tests/test_invariants.py``): schedules never construct events
directly — every event flows through a :class:`TraceRecorder`, which is
also where block identity is allocated (:meth:`TraceRecorder.alloc`).
That keeps block-id allocation collision free and gives one choke point
for the obs metrics around trace generation.

Determinism: traces are pure functions of their inputs — the recorder
holds no ambient state (no clocks, no RNG), so generating the same
schedule twice yields bit-identical event sequences.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Tuple, Union

from repro.obs import state as obs

__all__ = [
    "CT",
    "KEY",
    "PT",
    "READ",
    "STREAMS",
    "WRITE",
    "SCRATCH",
    "Access",
    "Buffer",
    "BulkAccess",
    "FlushEvent",
    "PinEvent",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
]

#: Access kinds.
READ = "r"
WRITE = "w"
SCRATCH = "s"

#: Traffic streams, matching :class:`repro.perf.events.MemTraffic` fields.
CT = "ct"
KEY = "key"
PT = "pt"
STREAMS = (CT, KEY, PT)


class Access(NamedTuple):
    """One block-granular access (``nbytes`` = the trace's block size)."""

    kind: str  # READ | WRITE | SCRATCH
    stream: str  # CT (block accesses are ciphertext working data)
    block: int
    resident: bool = False  # writes: allocate (compute-in-cache output)
    allocate: bool = True  # reads: insert on miss (False = streaming pass)


class BulkAccess(NamedTuple):
    """An uncacheable streaming transfer of ``nbytes`` bytes."""

    kind: str  # READ | WRITE
    stream: str  # KEY | PT | CT
    nbytes: int


class PinEvent(NamedTuple):
    """Pin (or unpin) a block set for pin-aware replacement policies."""

    blocks: Tuple[int, ...]
    pin: bool


class FlushEvent(NamedTuple):
    """Drop dead blocks from the cache (no traffic; nothing is dirty)."""

    blocks: Tuple[int, ...]


TraceEvent = Union[Access, BulkAccess, PinEvent, FlushEvent]


class Buffer:
    """A contiguous range of block ids standing for one logical buffer.

    ``buf[i]`` is the block id of limb ``i``; buffers are allocated by
    :meth:`TraceRecorder.alloc` so ids never collide within a trace.
    """

    __slots__ = ("label", "start", "limbs")

    def __init__(self, label: str, start: int, limbs: int):
        if limbs < 0:
            raise ValueError(f"buffer {label!r} needs limbs >= 0, got {limbs}")
        self.label = label
        self.start = start
        self.limbs = limbs

    def __len__(self) -> int:
        return self.limbs

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.limbs:
            raise IndexError(
                f"limb {index} outside buffer {self.label!r} [0, {self.limbs})"
            )
        return self.start + index

    def blocks(self) -> range:
        return range(self.start, self.start + self.limbs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Buffer({self.label!r}, start={self.start}, limbs={self.limbs})"


class Trace:
    """An immutable-by-convention event sequence plus its block geometry."""

    def __init__(
        self,
        events: List[TraceEvent],
        block_bytes: int,
        label: str = "",
        buffers: Union[Dict[str, int], None] = None,
    ):
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.events = events
        # Geometry, not a cost total: set once, never accumulated.
        self.block_bytes = block_bytes
        self.label = label
        #: buffer label -> limb count, for debugging/reporting only.
        self.buffers = dict(buffers or {})

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def accesses(self) -> Iterator[Access]:
        """Only the block-granular (cacheable) events."""
        return (e for e in self.events if isinstance(e, Access))

    def logical_bytes(self) -> int:
        """Bytes the trace touches before any caching (hit-rate 0 bound)."""
        total = 0
        for event in self.events:
            if isinstance(event, Access):
                total += self.block_bytes
            elif isinstance(event, BulkAccess):
                total += event.nbytes
        return total


class TraceRecorder:
    """The one sanctioned emitter of trace events (see module docstring)."""

    def __init__(self, block_bytes: int, label: str = ""):
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        # Geometry, not a cost total: set once, never accumulated.
        self.block_bytes = block_bytes
        self.label = label
        self._events: List[TraceEvent] = []
        self._next_block = 0
        self._buffers: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Block identity
    # ------------------------------------------------------------------
    def alloc(self, label: str, limbs: int) -> Buffer:
        """Allocate a fresh buffer of ``limbs`` blocks."""
        if label in self._buffers:
            # Disambiguate repeated sub-op buffers deterministically.
            occurrence = 2
            while f"{label}#{occurrence}" in self._buffers:
                occurrence += 1
            label = f"{label}#{occurrence}"
        buffer = Buffer(label, self._next_block, limbs)
        self._next_block += limbs
        self._buffers[label] = limbs
        return buffer

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def read(self, block: int, allocate: bool = True) -> None:
        """Block-granular ciphertext-stream read.

        ``allocate=False`` marks a non-temporal streaming read: a miss is
        counted but the block is not inserted.  Schedules use it for pass
        inputs the analytical model always counts from DRAM, so large
        caches cannot retain them and silently undercut the formulas.
        """
        self._events.append(Access(READ, CT, block, False, allocate))

    def write(self, block: int, resident: bool = False) -> None:
        """Write-through ciphertext-stream write.

        ``resident=True`` marks a compute-in-cache output that stays (and
        is pinned by schedules when a MAD threshold assumes residency).
        """
        self._events.append(Access(WRITE, CT, block, resident))

    def scratch(self, block: int) -> None:
        """On-chip-only write: allocates in cache, costs no DRAM traffic.

        Models accumulators the analytical model never counts (reorder's
        key-switch rows).  If capacity forces an eviction, the later
        re-read misses to DRAM — surfacing the broken fit assumption.
        """
        self._events.append(Access(SCRATCH, CT, block, True))

    def read_buffer(self, buffer: Buffer, allocate: bool = True) -> None:
        """Read every limb of ``buffer`` in ascending order (one pass)."""
        for block in buffer.blocks():
            self.read(block, allocate)

    def write_buffer(self, buffer: Buffer, resident: bool = False) -> None:
        """Write every limb of ``buffer`` in ascending order (one pass)."""
        for block in buffer.blocks():
            self.write(block, resident)

    def flush(self, *buffers: Buffer) -> None:
        """Hint that the buffers are dead: drop their blocks, no traffic."""
        blocks = tuple(b for buf in buffers for b in buf.blocks())
        if blocks:
            self._events.append(FlushEvent(blocks))

    def flush_blocks(self, blocks: Tuple[int, ...]) -> None:
        """Flush an explicit block tuple (for non-contiguous dead sets)."""
        if blocks:
            self._events.append(FlushEvent(blocks))

    def read_stream(self, stream: str, limbs: int) -> None:
        """Uncacheable streaming read of ``limbs`` limb-sized chunks."""
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}; choose from {STREAMS}")
        if limbs > 0:
            self._events.append(
                BulkAccess(READ, stream, limbs * self.block_bytes)
            )

    def pin(self, *buffers: Buffer) -> None:
        self.pin_blocks(tuple(b for buf in buffers for b in buf.blocks()))

    def unpin(self, *buffers: Buffer) -> None:
        self.unpin_blocks(tuple(b for buf in buffers for b in buf.blocks()))

    def pin_blocks(self, blocks: Tuple[int, ...]) -> None:
        """Pin an explicit block tuple (non-contiguous working sets)."""
        if blocks:
            self._events.append(PinEvent(tuple(blocks), True))

    def unpin_blocks(self, blocks: Tuple[int, ...]) -> None:
        if blocks:
            self._events.append(PinEvent(tuple(blocks), False))

    # ------------------------------------------------------------------
    def finish(self) -> Trace:
        """Seal the recorder into a :class:`Trace` (recorder stays usable)."""
        obs.count("memsim.trace.events", len(self._events))
        obs.count("memsim.trace.buffers", len(self._buffers))
        return Trace(
            list(self._events),
            self.block_bytes,
            label=self.label,
            buffers=self._buffers,
        )
