"""The Caesium memory model (§3).

A CompCert-style memory: a finite map from allocation ids to blocks of
representation bytes.  Supported operations check bounds, liveness, and
alignment; violations are undefined behaviour.

Caesium "provides both sequentially consistent and non-atomic memory
accesses, and assigns undefined behavior to data races following the
semantics of RustBelt".  We implement that with a FastTrack-style dynamic
race detector over vector clocks: sequentially consistent atomics act as
synchronisation points (join with a per-location clock), and two unordered
non-atomic accesses to the same byte, at least one of which is a write, are
a data race (= UB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .values import POISON, MByte, Pointer, UBClass, UndefinedBehavior


class AllocKind(enum.Enum):
    HEAP = "heap"
    LOCAL = "local"     # function-scoped variable slot
    GLOBAL = "global"


@dataclass
class Allocation:
    data: list[MByte]
    kind: AllocKind
    live: bool = True

    @property
    def size(self) -> int:
        return len(self.data)


class VectorClock:
    """A mutable vector clock over thread ids."""

    __slots__ = ("_c",)

    def __init__(self, init: Optional[dict[int, int]] = None) -> None:
        self._c: dict[int, int] = dict(init or {})

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def tick(self, tid: int) -> None:
        self._c[tid] = self.get(tid) + 1

    def join(self, other: "VectorClock") -> None:
        for t, c in other._c.items():
            if c > self.get(t):
                self._c[t] = c

    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def dominates_epoch(self, tid: int, clock: int) -> bool:
        return self.get(tid) >= clock


@dataclass
class _ByteState:
    """Per-byte access history for race detection (FastTrack-lite)."""

    write: Optional[tuple[int, int]] = None        # (tid, clock)
    reads: dict[int, int] = field(default_factory=dict)  # tid -> clock


class RaceDetector:
    """Detects data races between non-atomic accesses; SC atomics
    synchronise through per-location clocks."""

    def __init__(self) -> None:
        self.thread_clocks: dict[int, VectorClock] = {0: VectorClock({0: 1})}
        self.location_clocks: dict[tuple[int, int], VectorClock] = {}
        self.bytes: dict[tuple[int, int], _ByteState] = {}

    def _clock(self, tid: int) -> VectorClock:
        if tid not in self.thread_clocks:
            self.thread_clocks[tid] = VectorClock({tid: 1})
        return self.thread_clocks[tid]

    def spawn(self, parent: int, child: int) -> None:
        """Child inherits the parent's knowledge (fork happens-before)."""
        pc = self._clock(parent)
        pc.tick(parent)
        child_clock = pc.copy()
        child_clock.tick(child)
        self.thread_clocks[child] = child_clock

    def join_thread(self, parent: int, child: int) -> None:
        """Join: parent learns everything the child did."""
        self._clock(parent).join(self._clock(child))
        self._clock(parent).tick(parent)

    def non_atomic_read(self, tid: int, locs: Iterable[tuple[int, int]]) -> None:
        vc = self._clock(tid)
        for key in locs:
            st = self.bytes.setdefault(key, _ByteState())
            if st.write is not None and not vc.dominates_epoch(*st.write):
                raise UndefinedBehavior(
                    f"data race: non-atomic read of {key} races with write "
                    f"by thread {st.write[0]}", UBClass.DATA_RACE)
            st.reads[tid] = vc.get(tid)

    def non_atomic_write(self, tid: int, locs: Iterable[tuple[int, int]]) -> None:
        vc = self._clock(tid)
        for key in locs:
            st = self.bytes.setdefault(key, _ByteState())
            if st.write is not None and not vc.dominates_epoch(*st.write):
                raise UndefinedBehavior(
                    f"data race: write of {key} races with write by thread "
                    f"{st.write[0]}", UBClass.DATA_RACE)
            for rtid, rclock in st.reads.items():
                if not vc.dominates_epoch(rtid, rclock):
                    raise UndefinedBehavior(
                        f"data race: write of {key} races with read by "
                        f"thread {rtid}", UBClass.DATA_RACE)
            st.write = (tid, vc.get(tid))
            st.reads = {}

    def atomic_access(self, tid: int, locs: Sequence[tuple[int, int]]) -> None:
        """A sequentially consistent access: synchronise with the location
        clock (SC is at least as strong as acq/rel on the same location)."""
        vc = self._clock(tid)
        for key in locs:
            lc = self.location_clocks.setdefault(key, VectorClock())
            lc.join(vc)
            vc.join(lc)
            # An atomic access still conflicts with *unsynchronised*
            # non-atomic accesses (mixed-atomicity race).
            st = self.bytes.setdefault(key, _ByteState())
            if st.write is not None and not vc.dominates_epoch(*st.write):
                raise UndefinedBehavior(
                    f"data race: atomic access of {key} races with "
                    f"non-atomic write by thread {st.write[0]}",
                    UBClass.DATA_RACE)
            st.write = (tid, vc.get(tid))
            st.reads = {}
        vc.tick(tid)


class Memory:
    """The Caesium memory: allocations, loads/stores, and atomics."""

    def __init__(self, detect_races: bool = False) -> None:
        self._allocations: dict[int, Allocation] = {}
        self._next_id = 1
        self.races: Optional[RaceDetector] = RaceDetector() if detect_races else None

    # ------------------------------------------------------------
    def allocate(self, size: int, kind: AllocKind = AllocKind.HEAP,
                 init: Optional[Sequence[MByte]] = None) -> Pointer:
        if size < 0:
            raise UndefinedBehavior("negative allocation size",
                                    UBClass.OTHER)
        data: list[MByte] = list(init) if init is not None else [POISON] * size
        if len(data) != size:
            raise ValueError("init data has wrong length")
        aid = self._next_id
        self._next_id += 1
        self._allocations[aid] = Allocation(data, kind)
        return Pointer(aid, 0)

    def deallocate(self, ptr: Pointer) -> None:
        alloc = self._allocation(ptr)
        if ptr.offset != 0:
            raise UndefinedBehavior(
                "free of non-start-of-allocation pointer", UBClass.PTR_ARITH)
        alloc.live = False

    def is_live(self, ptr: Pointer) -> bool:
        alloc = self._allocations.get(ptr.alloc_id)
        return alloc is not None and alloc.live

    def _allocation(self, ptr: Pointer) -> Allocation:
        if ptr.is_null:
            raise UndefinedBehavior("access through NULL pointer",
                                    UBClass.NULL_DEREF)
        alloc = self._allocations.get(ptr.alloc_id)
        if alloc is None:
            raise UndefinedBehavior(f"access to unknown allocation {ptr!r}",
                                    UBClass.USE_AFTER_FREE)
        if not alloc.live:
            raise UndefinedBehavior(f"use after free: {ptr!r}",
                                    UBClass.USE_AFTER_FREE)
        return alloc

    def _check_range(self, ptr: Pointer, size: int) -> Allocation:
        alloc = self._allocation(ptr)
        if ptr.offset < 0 or ptr.offset + size > alloc.size:
            raise UndefinedBehavior(
                f"out-of-bounds access at {ptr!r} (+{size}, "
                f"allocation size {alloc.size})", UBClass.OUT_OF_BOUNDS)
        return alloc

    @staticmethod
    def _check_align(ptr: Pointer, align: int) -> None:
        if align > 1 and ptr.offset % align != 0:
            raise UndefinedBehavior(
                f"misaligned access at {ptr!r} (requires {align})",
                UBClass.MISALIGNED)

    # ------------------------------------------------------------
    def load(self, ptr: Pointer, size: int, align: int = 1,
             tid: int = 0, atomic: bool = False) -> list[MByte]:
        alloc = self._check_range(ptr, size)
        self._check_align(ptr, align)
        if self.races is not None:
            keys = [(ptr.alloc_id, ptr.offset + i) for i in range(size)]
            if atomic:
                self.races.atomic_access(tid, keys)
            else:
                self.races.non_atomic_read(tid, keys)
        return list(alloc.data[ptr.offset:ptr.offset + size])

    def store(self, ptr: Pointer, data: Sequence[MByte], align: int = 1,
              tid: int = 0, atomic: bool = False) -> None:
        alloc = self._check_range(ptr, len(data))
        self._check_align(ptr, align)
        if self.races is not None:
            keys = [(ptr.alloc_id, ptr.offset + i) for i in range(len(data))]
            if atomic:
                self.races.atomic_access(tid, keys)
            else:
                self.races.non_atomic_write(tid, keys)
        alloc.data[ptr.offset:ptr.offset + len(data)] = list(data)

    def compare_exchange(self, ptr: Pointer, expected: Sequence[MByte],
                         desired: Sequence[MByte], align: int = 1,
                         tid: int = 0) -> tuple[bool, list[MByte]]:
        """Sequentially consistent compare-and-swap over representation
        bytes.  Returns (success, old bytes)."""
        size = len(expected)
        if len(desired) != size:
            raise ValueError("CAS operand size mismatch")
        alloc = self._check_range(ptr, size)
        self._check_align(ptr, align)
        if self.races is not None:
            keys = [(ptr.alloc_id, ptr.offset + i) for i in range(size)]
            self.races.atomic_access(tid, keys)
        old = list(alloc.data[ptr.offset:ptr.offset + size])
        if any(not isinstance(b, int) for b in old):
            raise UndefinedBehavior("CAS on poison or pointer bytes",
                                    UBClass.POISON)
        success = old == list(expected)
        if success:
            alloc.data[ptr.offset:ptr.offset + size] = list(desired)
        return success, old
