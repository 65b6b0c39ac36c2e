"""The analytic cost model of the GPU simulator.

The benchmark harness (Figure 8) compares *relative* kernel runtimes of
Descend-generated code against handwritten CUDA.  We therefore need a cost
model that rewards/punishes the same things real GPUs do, so that differences
in access patterns show up:

* **global memory**: accesses are grouped per warp and per static program
  position; each group costs one transaction per 128-byte segment touched
  (perfectly coalesced accesses of a 32-thread warp to consecutive 4/8-byte
  elements need 1–2 transactions, strided or transposed accesses up to 32),
* **shared memory**: per warp and program position, the cost is the maximum
  number of distinct addresses that map to the same of the 32 banks
  (bank-conflict serialisation),
* **arithmetic**: counted per thread and divided by the warp width,
* **barriers**: a fixed cost per barrier per block.

The absolute numbers are synthetic; the *ratios* between two kernels with the
same access patterns are ≈ 1, which is the property Figure 8 reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, Iterable, List, Tuple

import numpy as np

from repro.gpusim.races import lexicographic_order, run_starts


@dataclass(frozen=True)
class CostParameters:
    """Latency/throughput parameters of the synthetic device (in cycles)."""

    global_transaction_cost: float = 32.0
    global_segment_bytes: int = 128
    shared_access_cost: float = 2.0
    shared_banks: int = 32
    shared_bank_width: int = 4
    arithmetic_cost: float = 1.0
    barrier_cost: float = 16.0
    launch_overhead: float = 500.0
    warp_size: int = 32
    #: how many memory transactions the device can overlap (memory parallelism)
    memory_parallelism: float = 8.0
    #: how many warps execute concurrently (compute parallelism)
    compute_parallelism: float = 16.0


@dataclass
class MemoryAccess:
    """One recorded memory access (already reduced to what the model needs)."""

    block: int
    warp: int
    slot: int
    address: int
    is_write: bool
    space: str


@dataclass
class KernelCost:
    """Aggregated cost of one kernel launch."""

    global_transactions: int = 0
    global_accesses: int = 0
    shared_cycles: float = 0.0
    shared_accesses: int = 0
    arithmetic_ops: int = 0
    barriers: int = 0
    blocks: int = 0
    threads_per_block: int = 0
    cycles: float = 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "global_transactions": self.global_transactions,
            "global_accesses": self.global_accesses,
            "shared_accesses": self.shared_accesses,
            "shared_cycles": self.shared_cycles,
            "arithmetic_ops": self.arithmetic_ops,
            "barriers": self.barriers,
        }


class CostModel:
    """Accumulates memory accesses / arithmetic and converts them into cycles.

    Accesses arrive through one of two paths with bit-identical cycle counts:

    * :meth:`record_access` — one :class:`MemoryAccess` at a time (the
      per-thread reference interpreter; the oracle),
    * :meth:`record_access_batch` — numpy arrays covering one vector operation
      of a batched engine.

    Every lane's slot counter advances on each access the lane makes, so a
    ``(lane, slot)`` pair occurs in exactly one access.  A batch that covers
    the whole grid in canonical lane order (block-major, thread-minor; the
    caller says so with ``full_grid=True``) with every lane at the same slot
    ``s`` therefore owns its ``(block, warp, s)`` groups outright.  When the
    launch geometry says warps tile a block (``threads_per_block`` a
    multiple of ``warp_size``), each warp is one row of a reshape, and such
    a batch is folded into running totals as it is recorded.  Every other
    batch is buffered and grouped at :meth:`finalize` with one
    :func:`~repro.gpusim.races.lexicographic_order` sort and
    :func:`~repro.gpusim.races.run_starts` boundary flags.
    """

    def __init__(
        self,
        params: CostParameters = CostParameters(),
        threads_per_block: int = 0,
        warp_size: int = 32,
    ) -> None:
        self.params = params
        self._global: DefaultDict[Tuple[int, int, int], List[MemoryAccess]] = defaultdict(list)
        self._shared: DefaultDict[Tuple[int, int, int], List[MemoryAccess]] = defaultdict(list)
        self._global_batches: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._shared_batches: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._arithmetic = 0
        self._barriers = 0
        self._warp_size = warp_size
        self._fold_full_grid = (
            threads_per_block > 0 and warp_size > 0 and threads_per_block % warp_size == 0
        )
        self._batched_global_accesses = 0
        self._batched_shared_accesses = 0
        self._folded_global_transactions = 0
        self._folded_shared_conflicts = 0

    # -- recording -------------------------------------------------------------
    def record_access(self, access: MemoryAccess) -> None:
        key = (access.block, access.warp, access.slot)
        if access.space == "global":
            self._global[key].append(access)
        elif access.space == "shared":
            self._shared[key].append(access)
        # private/local accesses are register-like: folded into arithmetic cost
        else:
            self._arithmetic += 1

    def record_access_batch(
        self,
        blocks: np.ndarray,
        warps: np.ndarray,
        slots: np.ndarray,
        addresses: np.ndarray,
        is_write: bool,
        space: str,
        full_grid: bool = False,
    ) -> None:
        """Record one vectorized operation: parallel arrays of equal length.

        ``addresses`` are byte addresses (``offset * element_size``), matching
        what :meth:`record_access` receives via :class:`MemoryAccess`.
        ``full_grid`` promises one lane per thread of the launch, in
        canonical order.
        """
        count = len(addresses)
        if count == 0:
            return
        if space not in ("global", "shared"):
            self._arithmetic += count
            return
        addresses = np.asarray(addresses, dtype=np.int64)
        if space == "global":
            self._batched_global_accesses += count
        else:
            self._batched_shared_accesses += count
        if full_grid and self._fold_full_grid:
            slots = np.asarray(slots)
            if (slots == slots[0]).all():
                rows = addresses.reshape(-1, self._warp_size)
                if space == "global":
                    self._folded_global_transactions += self._row_transactions(rows)
                else:
                    self._folded_shared_conflicts += self._row_conflicts(rows)
                return
        batch = (
            np.asarray(blocks, dtype=np.int64),
            np.asarray(warps, dtype=np.int64),
            np.asarray(slots, dtype=np.int64),
            addresses,
        )
        if space == "global":
            self._global_batches.append(batch)
        else:
            self._shared_batches.append(batch)

    def record_arithmetic(self, count: int = 1) -> None:
        self._arithmetic += count

    def record_barrier(self, count: int = 1) -> None:
        self._barriers += count

    # -- evaluation --------------------------------------------------------------
    def _global_transactions(self) -> int:
        transactions = 0
        segment = self.params.global_segment_bytes
        for accesses in self._global.values():
            segments = {access.address // segment for access in accesses}
            transactions += len(segments)
        return transactions

    def _shared_cycles(self) -> float:
        cycles = 0.0
        banks = self.params.shared_banks
        width = self.params.shared_bank_width
        for accesses in self._shared.values():
            per_bank: DefaultDict[int, set] = defaultdict(set)
            for access in accesses:
                bank = (access.address // width) % banks
                per_bank[bank].add(access.address)
            conflict_factor = max((len(addresses) for addresses in per_bank.values()), default=0)
            cycles += self.params.shared_access_cost * max(conflict_factor, 1 if accesses else 0)
        return cycles

    def _row_transactions(self, rows: np.ndarray) -> int:
        """Distinct global segments per row (one warp at one slot), summed."""
        segments = np.sort(rows // self.params.global_segment_bytes, axis=1)
        distinct = 1 + np.count_nonzero(segments[:, 1:] != segments[:, :-1], axis=1)
        return int(distinct.sum())

    def _row_conflicts(self, rows: np.ndarray) -> int:
        """Worst-bank distinct-address count per row (one warp at one slot), summed."""
        params = self.params
        n_rows = rows.shape[0]
        addresses = np.sort(rows, axis=1)
        distinct = np.ones_like(addresses, dtype=bool)
        distinct[:, 1:] = addresses[:, 1:] != addresses[:, :-1]
        banks = (addresses // params.shared_bank_width) % params.shared_banks
        row_bank = np.arange(n_rows, dtype=np.int64)[:, None] * params.shared_banks + banks
        counts = np.bincount(row_bank[distinct], minlength=n_rows * params.shared_banks)
        return int(counts.reshape(n_rows, params.shared_banks).max(axis=1).sum())

    @staticmethod
    def _sorted_columns(batches, *derive) -> List[np.ndarray]:
        """The buffered ``(block, warp, slot, *derive(addresses))`` columns, sorted."""
        blocks, warps, slots, addresses = (
            np.concatenate([batch[i] for batch in batches]) for i in range(4)
        )
        columns = [blocks, warps, slots] + [fn(addresses) for fn in derive]
        order = lexicographic_order(*columns)
        return [column[order] for column in columns]

    def _buffered_global_transactions(self) -> int:
        """Distinct ``(block, warp, slot, segment)`` rows over the buffered batches.

        Summing per-group distinct segments (the dict-based path) equals
        counting globally distinct group+segment rows.
        """
        if not self._global_batches:
            return 0
        segment = self.params.global_segment_bytes
        columns = self._sorted_columns(self._global_batches, lambda a: a // segment)
        return int(np.count_nonzero(run_starts(*columns)[-1]))

    def _buffered_shared_conflicts(self) -> int:
        """Worst-bank distinct-address count per ``(block, warp, slot)``, summed."""
        if not self._shared_batches:
            return 0
        params = self.params
        columns = self._sorted_columns(
            self._shared_batches,
            lambda a: (a // params.shared_bank_width) % params.shared_banks,
            lambda a: a,
        )
        group_start, bank_start, address_start = run_starts(*columns)[2:]
        bank_ids = np.cumsum(bank_start) - 1
        per_bank = np.bincount(bank_ids[address_start], minlength=int(bank_ids[-1]) + 1)
        # A group's banks are consecutive bank ids; its worst bank serialises it.
        return int(np.maximum.reduceat(per_bank, bank_ids[group_start]).sum())

    def finalize(self, blocks: int, threads_per_block: int) -> KernelCost:
        """Convert the recorded events into a kernel cost estimate."""
        params = self.params
        global_transactions = (
            self._global_transactions()
            + self._folded_global_transactions
            + self._buffered_global_transactions()
        )
        # Every term is an integer multiple of shared_access_cost, so the
        # float sum is exact in any order.
        shared_cycles = self._shared_cycles() + float(
            params.shared_access_cost
            * (self._folded_shared_conflicts + self._buffered_shared_conflicts())
        )
        global_accesses = sum(len(v) for v in self._global.values()) + self._batched_global_accesses
        shared_accesses = sum(len(v) for v in self._shared.values()) + self._batched_shared_accesses

        global_cycles = global_transactions * params.global_transaction_cost / params.memory_parallelism
        arithmetic_cycles = (
            self._arithmetic * params.arithmetic_cost / (params.warp_size * params.compute_parallelism)
        )
        barrier_cycles = self._barriers * params.barrier_cost
        cycles = (
            params.launch_overhead
            + global_cycles
            + shared_cycles / params.compute_parallelism
            + arithmetic_cycles
            + barrier_cycles
        )
        return KernelCost(
            global_transactions=global_transactions,
            global_accesses=global_accesses,
            shared_cycles=shared_cycles,
            shared_accesses=shared_accesses,
            arithmetic_ops=self._arithmetic,
            barriers=self._barriers,
            blocks=blocks,
            threads_per_block=threads_per_block,
            cycles=cycles,
        )
