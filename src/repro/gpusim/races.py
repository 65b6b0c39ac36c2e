"""Dynamic data-race detection for the GPU simulator.

Every memory access performed by a kernel is recorded with the thread that
performed it and the barrier *epoch* it happened in.  Two accesses to the
same element race when

* they come from different threads,
* at least one of them is a write, and
* nothing orders them: either the threads are in different blocks (blocks are
  never synchronised during a kernel), or they are in the same block and the
  accesses happen in the same barrier epoch.

This is the dynamic counterpart of Descend's static access-safety check: the
handwritten buggy CUDA kernel of Listing 1 races *dynamically* here, while
the Descend type checker rejects the equivalent program *statically*.

Accesses arrive one at a time (:meth:`RaceDetector.record`, the per-thread
reference interpreter and the oracle) or as whole numpy batches
(:meth:`RaceDetector.record_batch`, every batched engine).  At
:meth:`RaceDetector.check` the batches are analysed with one
:func:`lexicographic_order` sort and the :func:`run_starts` boundary flags
of that one permutation; only the few locations that actually race are
materialised into :class:`RecordedAccess` objects for reporting.  The same
two helpers group the cost model's divergent batches.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, List, Optional, Tuple

import numpy as np

#: Packed sort keys stay within int64 with the sign bit spare.
_MAX_PACKED_KEY = 1 << 62


def lexicographic_order(*columns: np.ndarray) -> np.ndarray:
    """Stable permutation sorting rows by ``columns``, first column most significant.

    The columns are packed into one int64 key (``key * width + value``,
    each column shifted to start at 0) and argsorted once.  When their
    combined range needs more than 62 bits, ``np.lexsort`` sorts them as
    separate keys instead; it is stable too, so both give the same
    permutation.
    """
    if len(columns[0]) == 0:
        return np.zeros(0, dtype=np.intp)
    key = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        radix *= width  # Python int: the bound check cannot overflow
        if radix > _MAX_PACKED_KEY:
            return np.lexsort(columns[::-1])
        key = key * np.int64(width) + (column - low)
    return np.argsort(key, kind="stable")


def run_starts(*columns: np.ndarray) -> List[np.ndarray]:
    """Run boundaries of rows already in lexicographic order.

    ``starts[k][i]`` is true where row ``i`` begins a new run of equal
    ``columns[: k + 1]``; ``np.cumsum(starts[k]) - 1`` is then a dense
    group id per row, numbered in sorted order.
    """
    flags = np.zeros(len(columns[0]), dtype=bool)
    flags[:1] = True
    starts = []
    for column in columns:
        flags = flags.copy()
        flags[1:] |= column[1:] != column[:-1]
        starts.append(flags)
    return starts


@dataclass(frozen=True)
class RecordedAccess:
    """A single dynamic access to one element of one buffer."""

    buffer_id: int
    offset: int
    block: int
    thread: int
    epoch: int
    is_write: bool
    buffer_label: str = ""


@dataclass(frozen=True)
class RaceReport:
    """Two dynamic accesses that form a data race."""

    first: RecordedAccess
    second: RecordedAccess

    def describe(self) -> str:
        buf = self.first.buffer_label or f"buffer {self.first.buffer_id}"
        return (
            f"data race on {buf}[{self.first.offset}]: "
            f"block {self.first.block} thread {self.first.thread} "
            f"({'write' if self.first.is_write else 'read'}, epoch {self.first.epoch}) vs "
            f"block {self.second.block} thread {self.second.thread} "
            f"({'write' if self.second.is_write else 'read'}, epoch {self.second.epoch})"
        )


@dataclass(frozen=True)
class _AccessBatch:
    """One vectorized operation: every array has one entry per active lane.

    ``offsets`` are the detector's grouping keys; ``report_offsets`` (when
    given) are the user-facing element offsets shown in race reports.  The
    vectorized engine rebases per-block shared memory to block-disjoint key
    offsets while reporting the true within-block offset.
    """

    buffer_id: int
    offsets: np.ndarray
    blocks: np.ndarray
    threads: np.ndarray
    epoch: int
    is_write: bool
    buffer_label: str = ""
    report_offsets: Optional[np.ndarray] = None


class RaceDetector:
    """Collects accesses of one kernel launch and reports data races.

    Accesses recorded one at a time (:meth:`record`) are reported per
    location in first-seen order.  Batched accesses (:meth:`record_batch`)
    are buffered until :meth:`check` and reported in sorted
    ``(buffer, offset)`` order; both paths flag exactly the same locations.
    """

    def __init__(self, max_reports: int = 16) -> None:
        self._by_location: DefaultDict[Tuple[int, int], List[RecordedAccess]] = defaultdict(list)
        self._batches: List[_AccessBatch] = []
        self.max_reports = max_reports

    def record(self, access: RecordedAccess) -> None:
        self._by_location[(access.buffer_id, access.offset)].append(access)

    def record_batch(
        self,
        buffer_id: int,
        offsets: np.ndarray,
        blocks: np.ndarray,
        threads: np.ndarray,
        epoch: int,
        is_write: bool,
        buffer_label: str = "",
        report_offsets: Optional[np.ndarray] = None,
    ) -> None:
        """Record one vectorized operation (all lanes share epoch/direction)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        self._batches.append(
            _AccessBatch(
                buffer_id=buffer_id,
                offsets=offsets,
                blocks=np.asarray(blocks, dtype=np.int64),
                threads=np.asarray(threads, dtype=np.int64),
                epoch=epoch,
                is_write=is_write,
                buffer_label=buffer_label,
                report_offsets=(
                    None if report_offsets is None else np.asarray(report_offsets, dtype=np.int64)
                ),
            )
        )

    @staticmethod
    def _conflict(a: RecordedAccess, b: RecordedAccess) -> bool:
        if not (a.is_write or b.is_write):
            return False
        if a.block == b.block and a.thread == b.thread:
            return False
        if a.block != b.block:
            return True
        return a.epoch == b.epoch

    @classmethod
    def _find_report(cls, accesses: List[RecordedAccess]) -> Optional[RaceReport]:
        """First conflicting (write, other) pair at one location, if any."""
        if len(accesses) < 2:
            return None
        writes = [a for a in accesses if a.is_write]
        # Compare writes against everything; this is O(w * n) per location,
        # which is fine for the element counts the interpreter handles.
        for write in writes:
            for other in accesses:
                if other is write:
                    continue
                if cls._conflict(write, other):
                    return RaceReport(write, other)
        return None

    def check(self) -> List[RaceReport]:
        """Return up to ``max_reports`` detected races."""
        reports: List[RaceReport] = []
        for accesses in self._by_location.values():
            if len(reports) >= self.max_reports:
                break
            report = self._find_report(accesses)
            if report is not None:
                reports.append(report)
        if self._batches and len(reports) < self.max_reports:
            reports.extend(self._check_batches(self.max_reports - len(reports)))
        return reports

    # -- batched analysis -------------------------------------------------------
    def _batch_columns(self):
        sizes = [len(batch.offsets) for batch in self._batches]
        bid = np.repeat(
            np.array([batch.buffer_id for batch in self._batches], dtype=np.int64), sizes
        )
        off = np.concatenate([batch.offsets for batch in self._batches])
        roff = np.concatenate(
            [
                batch.offsets if batch.report_offsets is None else batch.report_offsets
                for batch in self._batches
            ]
        )
        blk = np.concatenate([batch.blocks for batch in self._batches])
        thr = np.concatenate([batch.threads for batch in self._batches])
        epo = np.repeat(np.array([batch.epoch for batch in self._batches], dtype=np.int64), sizes)
        wrt = np.repeat(np.array([batch.is_write for batch in self._batches], dtype=bool), sizes)
        return bid, off, roff, blk, thr, epo, wrt

    def _check_batches(self, limit: int) -> List[RaceReport]:
        """Vectorized race detection over all batches.

        A location ``(buffer, offset)`` races iff

        * accesses from >= 2 distinct blocks include a write (cross-block
          accesses are never ordered), or
        * within one ``(block, epoch)`` group, >= 2 distinct threads access it
          and at least one writes (nothing orders threads between barriers).

        One lexicographic sort by ``(buffer, offset, block, epoch, thread)``
        yields every grouping the two rules need: each coarser group is a
        run of the sorted rows, found from boundary flags.
        """
        bid, off, roff, blk, thr, epo, wrt = self._batch_columns()
        order = lexicographic_order(bid, off, blk, epo, thr)
        loc_start, pair_start, group_start, member_start = run_starts(
            bid[order], off[order], blk[order], epo[order], thr[order]
        )[1:]

        loc_ids = np.cumsum(loc_start) - 1
        n_locs = int(loc_ids[-1]) + 1
        group_ids = np.cumsum(group_start) - 1
        n_groups = int(group_ids[-1]) + 1

        w_s = wrt[order]
        has_write = np.zeros(n_locs, dtype=bool)
        has_write[loc_ids[w_s]] = True

        # Cross-block rule: >= 2 distinct blocks at one location + a write.
        blocks_per_loc = np.bincount(loc_ids[pair_start], minlength=n_locs)
        racy_locs = (blocks_per_loc >= 2) & has_write

        # Same-(block, epoch) rule: >= 2 distinct threads + a write.
        threads_per_group = np.bincount(group_ids[member_start], minlength=n_groups)
        group_has_write = np.zeros(n_groups, dtype=bool)
        group_has_write[group_ids[w_s]] = True
        racy_groups = (threads_per_group >= 2) & group_has_write
        racy_locs[loc_ids[group_start][racy_groups]] = True

        if not racy_locs.any():
            return []

        labels = {batch.buffer_id: batch.buffer_label for batch in self._batches}

        def materialize(i: int) -> RecordedAccess:
            return RecordedAccess(
                buffer_id=int(bid[i]),
                offset=int(roff[i]),
                block=int(blk[i]),
                thread=int(thr[i]),
                epoch=int(epo[i]),
                is_write=bool(wrt[i]),
                buffer_label=labels.get(int(bid[i]), ""),
            )

        # Locations are visited in sorted (buffer, offset) order, each with
        # its lanes in ascending record order.
        reports: List[RaceReport] = []
        for loc in np.nonzero(racy_locs)[0]:
            lanes = np.sort(order[loc_ids == loc])
            pair = self._pair_for_location(lanes, blk, thr, epo, wrt)
            if pair is not None:
                reports.append(RaceReport(materialize(pair[0]), materialize(pair[1])))
            if len(reports) >= limit:
                break
        return reports

    @staticmethod
    def _pair_for_location(lanes, blk, thr, epo, wrt):
        """One conflicting (write, other) lane pair at a known-racy location.

        Mirrors the two rules of :meth:`_check_batches` exactly, so a pair is
        found whenever one of them flagged the location — no sampling.
        ``lanes`` must be in ascending record order.
        """
        write_lanes = lanes[wrt[lanes]]
        if write_lanes.size == 0:
            return None
        # Cross-block: any write conflicts with any access in another block.
        first_write = write_lanes[0]
        other_block = lanes[blk[lanes] != blk[first_write]]
        if other_block.size:
            return int(first_write), int(other_block[0])
        # Same block: a write and a different thread in the same epoch.
        for write in write_lanes:
            conflicting = lanes[(epo[lanes] == epo[write]) & (thr[lanes] != thr[write])]
            if conflicting.size:
                return int(write), int(conflicting[0])
        return None

    def access_count(self) -> int:
        scalar = sum(len(v) for v in self._by_location.values())
        batched = sum(len(batch.offsets) for batch in self._batches)
        return scalar + batched
