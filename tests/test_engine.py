"""Tests for the warp-vectorized execution engine and its batched recording.

The core property is *parity*: for every ported kernel the vectorized engine
must produce bit-identical results, exactly equal cycle counts, and the same
race verdicts as the per-thread reference interpreter.
"""

import numpy as np
import pytest

from repro.cudalite.kernels import buggy, matmul, reduce, scan, transpose, vector
from repro.errors import DeviceMemoryError, LaunchConfigurationError
from repro.gpusim import CostModel, GpuDevice, RaceDetector, vectorized_impl
from repro.gpusim.cost import MemoryAccess
from repro.gpusim.races import RaceReport, RecordedAccess, lexicographic_order
from repro.gpusim.engine import EXECUTION_MODES, get_engine, resolve_reference, resolve_vectorized


def run_both(run, data):
    """Run a scenario on both engines; returns {mode: (result, launches)}.

    The jit mode is excluded: it executes generated plan source, which only
    Descend programs have — these handwritten kernels are reference
    generators with registered vectorized ports (tests/test_plan.py holds
    the three-way differential for Descend programs).
    """
    out = {}
    for mode in ("reference", "vectorized"):
        assert mode in EXECUTION_MODES
        device = GpuDevice(execution_mode=mode)
        out[mode] = run(device, data)
    return out


def assert_parity(out, *, racy=False):
    ref_result, ref_launches = out["reference"]
    vec_result, vec_launches = out["vectorized"]
    if not racy:
        assert np.array_equal(ref_result, vec_result)
    assert len(ref_launches) == len(vec_launches)
    for ref, vec in zip(ref_launches, vec_launches):
        assert ref.cycles == vec.cycles, (ref.cost.summary(), vec.cost.summary())
        assert ref.cost.summary() == vec.cost.summary()
        assert ref.barriers == vec.barriers
        assert bool(ref.races) == bool(vec.races)
    return ref_launches, vec_launches


class TestKernelParity:
    def test_reduce(self, rng):
        data = rng.random(2048)

        def run(device, data):
            input_buf = device.to_device(data)
            output_buf = device.malloc((32,))
            launch = device.launch(
                reduce.block_reduce_kernel, grid_dim=(32,), block_dim=(64,),
                args=(input_buf, output_buf),
            )
            return device.to_host(output_buf), [launch]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], data.reshape(32, 64).sum(axis=1))

    def test_transpose(self, rng):
        n, tile, rows = 64, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                transpose.transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf).reshape(n, n), [launch]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], data.T)

    def test_naive_transpose(self, rng):
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                transpose.naive_transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf).reshape(n, n), [launch]

        out = run_both(run, data)
        assert_parity(out)

    def test_scan(self, rng):
        n, block_size, per_thread = 1024, 32, 4
        blocks = n // (block_size * per_thread)
        data = rng.random(n)

        def run(device, data):
            input_buf = device.to_device(data)
            output_buf = device.malloc((n,))
            sums_buf = device.malloc((blocks,))
            first = device.launch(
                scan.scan_block_kernel, grid_dim=(blocks,), block_dim=(block_size,),
                args=(input_buf, output_buf, sums_buf, per_thread),
            )
            offsets = scan.exclusive_scan_on_host(device.to_host(sums_buf))
            offsets_buf = device.to_device(offsets)
            second = device.launch(
                scan.add_offsets_kernel, grid_dim=(blocks,), block_dim=(block_size,),
                args=(output_buf, offsets_buf, per_thread),
            )
            return device.to_host(output_buf), [first, second]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], np.cumsum(data))

    def test_matmul(self, rng):
        m = k = n = 16
        tile = 8
        a, b = rng.random((m, k)), rng.random((k, n))

        def run(device, data):
            a_arr, b_arr = data
            a_buf = device.to_device(a_arr.reshape(-1))
            b_buf = device.to_device(b_arr.reshape(-1))
            c_buf = device.malloc((m * n,))
            launch = device.launch(
                matmul.matmul_kernel, grid_dim=(n // tile, m // tile),
                block_dim=(tile, tile), args=(a_buf, b_buf, c_buf, m, k, n, tile),
            )
            return device.to_host(c_buf).reshape(m, n), [launch]

        out = run_both(run, (a, b))
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], a @ b)

    @pytest.mark.parametrize(
        "kernel,extra", [
            (vector.scale_vec_kernel, (3.0,)),
            (vector.init_kernel, (7.0,)),
        ],
    )
    def test_vector_kernels(self, rng, kernel, extra):
        data = rng.random(128)

        def run(device, data):
            buf = device.to_device(data)
            launch = device.launch(kernel, grid_dim=(4,), block_dim=(32,), args=(buf, *extra))
            return device.to_host(buf), [launch]

        assert_parity(run_both(run, data))

    def test_saxpy_and_vec_add(self, rng):
        x, y = rng.random(64), rng.random(64)

        def run(device, data):
            x_arr, y_arr = data
            dx, dy = device.to_device(x_arr), device.to_device(y_arr)
            out = device.malloc((64,))
            l1 = device.launch(vector.saxpy_kernel, grid_dim=(2,), block_dim=(32,), args=(dy, dx, 0.5))
            l2 = device.launch(vector.vec_add_kernel, grid_dim=(2,), block_dim=(32,), args=(out, dx, dy))
            return device.to_host(out), [l1, l2]

        out = run_both(run, (x, y))
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], x + (0.5 * x + y))


class TestRaceInjection:
    def test_buggy_transpose_races_on_both_engines(self, rng):
        """The Listing 1 bug must be caught by the batched detector too."""
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                buggy.buggy_transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf), [launch]

        out = run_both(run, data)
        ref_launches, vec_launches = assert_parity(out, racy=True)
        assert len(ref_launches[0].races) == len(vec_launches[0].races) > 0
        assert "data race" in vec_launches[0].races[0].describe()

    def test_scatter_to_same_offset_races(self, device_vectorized):
        def ref(ctx, out):
            ctx.store(out, 0, float(ctx.threadIdx.x))
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, out):
            ctx.store(out, 0, ctx.threadIdx.x.astype(np.float64))

        buf = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(ref, grid_dim=(1,), block_dim=(8,), args=(buf,))
        assert launch.races

    def test_write_beyond_first_lanes_still_detected(self):
        """A single write hidden behind >256 reads at one location must be found."""

        def ref(ctx, out):
            sh = ctx.shared("s", (1,))
            ctx.load(sh, 0)
            if ctx.threadIdx.x == 300:
                ctx.store(sh, 0, 1.0)
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, out):
            sh = ctx.shared("s", (1,))
            ctx.load(sh, 0)
            ctx.store(sh, 0, 1.0, where=ctx.threadIdx.x == 300)

        counts = {}
        for mode in ("reference", "vectorized"):
            device = GpuDevice(execution_mode=mode)
            buf = device.malloc((1,))
            launch = device.launch(ref, grid_dim=(1,), block_dim=(1024,), args=(buf,))
            counts[mode] = len(launch.races)
        assert counts["reference"] == counts["vectorized"] == 1

    def test_shared_race_reports_within_block_offset(self, device_vectorized, rng):
        """Reports show the in-tile offset, not the block-stacked detector key."""
        n, tile, rows = 64, 16, 4
        data = rng.random((n, n))
        input_buf = device_vectorized.to_device(data.reshape(-1))
        output_buf = device_vectorized.malloc((n * n,))
        launch = device_vectorized.launch(
            buggy.buggy_transpose_kernel, grid_dim=(n // tile, n // tile),
            block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
        )
        assert launch.races
        assert all(report.first.offset < tile * tile for report in launch.races)

    def test_epoch_separation_suppresses_race(self, device_vectorized):
        """A write and a read separated by ctx.sync() must not race."""

        def ref(ctx, out):
            if ctx.threadIdx.x == 0:
                ctx.store(out, 0, 1.0)
            yield
            if ctx.threadIdx.x == 1:
                ctx.load(out, 0)

        @vectorized_impl(ref)
        def vec(ctx, out):
            ctx.store(out, 0, 1.0, where=ctx.threadIdx.x == 0)
            ctx.sync()
            ctx.load(out, 0, where=ctx.threadIdx.x == 1)

        buf = device_vectorized.malloc((1,), label="flag")
        launch = device_vectorized.launch(ref, grid_dim=(1,), block_dim=(4,), args=(buf,))
        assert not launch.races


def _random_launch(seed: int, wide: bool):
    """Seeded accesses of one launch, as batches in a batched engine's shape.

    Returns ``(threads_per_block, warp_size, num_blocks, batches)``; each
    batch is ``(space, is_write, epoch, buffer_id, full_grid, lanes)`` with
    ``lanes`` a dict of parallel per-lane arrays (block, warp, thread, slot,
    offset) in record order.  Batches are full-grid (every lane, canonical
    order), masked (divergent, or every lane active), or full-length but
    permuted (not canonical, so not flagged).  ``wide`` draws offsets whose
    range cannot pack into a 62-bit sort key.
    """
    r = np.random.default_rng(seed)
    warp = int(r.choice([4, 8, 32]))
    threads_per_block = int(r.choice([warp, 2 * warp, 2 * warp + 1]))
    num_blocks = int(r.integers(1, 4))
    n = num_blocks * threads_per_block
    thread = np.tile(np.arange(threads_per_block), num_blocks)
    block = np.repeat(np.arange(num_blocks), threads_per_block)
    slots = np.zeros(n, dtype=np.int64)
    hot = r.integers(0, 2 ** 55 if wide else 64, size=int(r.integers(2, 12)))
    epoch = 0
    batches = []
    for _ in range(int(r.integers(1, 9))):
        kind = r.choice(["full", "masked", "permuted"])
        if kind == "full":
            lanes = np.arange(n)
        elif kind == "masked":
            lanes = np.nonzero(r.random(n) < r.choice([0.2, 0.7, 1.0]))[0]
        else:
            lanes = r.permutation(n)
        if lanes.size == 0:
            continue
        pattern = r.choice(["hot", "linear", "strided"])
        if pattern == "hot":
            offsets = hot[r.integers(0, hot.size, size=n)]
        elif pattern == "linear":
            offsets = np.arange(n) + int(hot[0])
        else:
            offsets = (thread * int(r.choice([1, 2, 33]))) % 97 + int(hot[0])
        slot = slots[lanes].copy()
        slots[lanes] += 1
        batches.append((
            str(r.choice(["global", "global", "shared", "local"])),
            bool(r.random() < 0.5),
            epoch,
            int(r.integers(1, 3)),
            bool(kind != "permuted" and lanes.size == n),
            {
                "block": block[lanes], "warp": thread[lanes] // warp,
                "thread": thread[lanes], "slot": slot, "offset": offsets[lanes],
            },
        ))
        if r.random() < 0.3:
            epoch += 1
    return threads_per_block, warp, num_blocks, batches


def _location(report):
    return report.first.buffer_id, report.first.offset


def _batched_report_order(by_location, limit):
    """The reports the batched path gives for the per-access oracle's groups.

    Racy locations in sorted ``(buffer, offset)`` order; at each, the first
    write paired with the first access from another block if there is one,
    else the oracle's own choice (all accesses are then in one block).
    """
    reports = []
    for location in sorted(by_location):
        accesses = by_location[location]
        writes = [a for a in accesses if a.is_write]
        if not writes:
            continue
        cross = [a for a in accesses if a.block != writes[0].block]
        report = RaceReport(writes[0], cross[0]) if cross else RaceDetector._find_report(accesses)
        if report is not None:
            reports.append(report)
    return reports[:limit]


class TestBatchedRecorders:
    @pytest.mark.parametrize("wide", [False, True], ids=["packed-key", "lexsort"])
    def test_batched_accounting_equals_per_access(self, wide, monkeypatch):
        """record_access_batch / record_batch give exactly what the per-access
        oracle gives for the same accesses: cost summaries and race reports."""
        lexsorts = []
        real_lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: lexsorts.append(1) or real_lexsort(keys)
        )
        folded = buffered = racy = 0
        for seed in range(150):
            tpb, warp, num_blocks, batches = _random_launch(seed, wide)
            scalar_cost = CostModel()
            batched_cost = CostModel(threads_per_block=tpb, warp_size=warp)
            oracle = RaceDetector(max_reports=10 ** 6)
            batched = {limit: RaceDetector(max_reports=limit) for limit in (3, 16, 10 ** 6)}
            for space, is_write, epoch, buffer_id, full_grid, lanes in batches:
                batched_cost.record_access_batch(
                    blocks=lanes["block"], warps=lanes["warp"], slots=lanes["slot"],
                    addresses=lanes["offset"] * 8, is_write=is_write, space=space,
                    full_grid=full_grid,
                )
                if space != "local":
                    for detector in batched.values():
                        detector.record_batch(
                            buffer_id=buffer_id, offsets=lanes["offset"],
                            blocks=lanes["block"], threads=lanes["thread"],
                            epoch=epoch, is_write=is_write, buffer_label=f"b{buffer_id}",
                        )
                for i in range(len(lanes["offset"])):
                    block, thread = int(lanes["block"][i]), int(lanes["thread"][i])
                    offset = int(lanes["offset"][i])
                    scalar_cost.record_access(MemoryAccess(
                        block=block, warp=int(lanes["warp"][i]), slot=int(lanes["slot"][i]),
                        address=offset * 8, is_write=is_write, space=space,
                    ))
                    if space != "local":
                        oracle.record(RecordedAccess(
                            buffer_id=buffer_id, offset=offset, block=block, thread=thread,
                            epoch=epoch, is_write=is_write, buffer_label=f"b{buffer_id}",
                        ))
            folded += batched_cost._folded_global_transactions + batched_cost._folded_shared_conflicts
            buffered += len(batched_cost._global_batches) + len(batched_cost._shared_batches)
            assert (
                batched_cost.finalize(num_blocks, tpb).summary()
                == scalar_cost.finalize(num_blocks, tpb).summary()
            ), f"seed {seed}"

            oracle_reports = oracle.check()
            everything = batched[10 ** 6].check()
            assert [_location(r) for r in everything] == sorted(map(_location, oracle_reports))
            for limit, detector in batched.items():
                expected = _batched_report_order(oracle._by_location, limit)
                assert detector.check() == expected, f"seed {seed}, limit {limit}"
            racy += bool(everything)
        # Both cost paths and the race rules were exercised, and the wide
        # keys really took the multi-key sort.
        assert folded and buffered and racy
        assert bool(lexsorts) == wide

    def test_lexicographic_order_matches_lexsort(self, rng):
        narrow = [rng.integers(0, 5, size=300) for _ in range(4)]
        wide = narrow[:2] + [rng.integers(0, 2 ** 40, size=300), narrow[3] * 2 ** 30]
        for columns in (narrow, wide):
            order = lexicographic_order(*columns)
            assert np.array_equal(order, np.lexsort(columns[::-1]))

    def test_batched_local_space_counts_as_arithmetic(self):
        scalar = CostModel()
        batched = CostModel()
        for _ in range(10):
            scalar.record_access(
                MemoryAccess(block=0, warp=0, slot=0, address=0, is_write=False, space="local")
            )
        batched.record_access_batch(
            blocks=np.zeros(10, dtype=np.int64), warps=np.zeros(10, dtype=np.int64),
            slots=np.zeros(10, dtype=np.int64), addresses=np.zeros(10, dtype=np.int64),
            is_write=False, space="local",
        )
        assert scalar.finalize(1, 32).cycles == batched.finalize(1, 32).cycles

    def _batch(self, detector, offsets, blocks, threads, epoch, is_write):
        detector.record_batch(
            buffer_id=1,
            offsets=np.asarray(offsets), blocks=np.asarray(blocks),
            threads=np.asarray(threads), epoch=epoch, is_write=is_write,
            buffer_label="buf",
        )

    def test_batched_write_write_race(self):
        detector = RaceDetector()
        self._batch(detector, [0, 0], [0, 0], [0, 1], epoch=0, is_write=True)
        reports = detector.check()
        assert reports and "data race" in reports[0].describe()

    def test_batched_read_read_no_race(self):
        detector = RaceDetector()
        self._batch(detector, [0, 0], [0, 0], [0, 1], epoch=0, is_write=False)
        assert not detector.check()

    def test_batched_epoch_separation(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [0], [1], epoch=1, is_write=False)
        assert not detector.check()

    def test_batched_cross_block_race_despite_epochs(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [1], [0], epoch=1, is_write=False)
        assert detector.check()

    def test_batched_same_thread_no_race(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        assert not detector.check()

    def test_batched_access_count(self):
        detector = RaceDetector()
        self._batch(detector, [0, 1, 2], [0, 0, 0], [0, 1, 2], epoch=0, is_write=False)
        assert detector.access_count() == 3


class TestEngineSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(LaunchConfigurationError):
            GpuDevice(execution_mode="simd")
        with pytest.raises(LaunchConfigurationError):
            get_engine("simd")

    def test_unported_kernel_rejected_in_vectorized_mode(self, device_vectorized):
        def lonely_kernel(ctx, out):
            return
            yield

        buf = device_vectorized.malloc((4,))
        with pytest.raises(LaunchConfigurationError, match="no vectorized implementation"):
            device_vectorized.launch(lonely_kernel, grid_dim=(1,), block_dim=(4,), args=(buf,))

    def test_per_launch_override(self, device):
        data = np.arange(64, dtype=np.float64)
        buf = device.to_device(data)
        result = device.launch(
            vector.scale_vec_kernel, grid_dim=(2,), block_dim=(32,),
            args=(buf, 2.0), execution_mode="vectorized",
        )
        assert result.execution_mode == "vectorized"
        assert np.array_equal(device.to_host(buf), data * 2.0)
        assert device.launch_log[-1].execution_mode == "vectorized"

    def test_resolution_is_symmetric(self):
        vec = resolve_vectorized(vector.scale_vec_kernel)
        assert vec is vector.scale_vec_kernel_vec
        assert resolve_reference(vec) is vector.scale_vec_kernel
        assert resolve_vectorized(vec) is vec

    def test_vectorized_kernel_runs_under_reference_engine(self, device, rng):
        """Passing the vectorized function still works in reference mode."""
        data = rng.random(64)
        buf = device.to_device(data)
        device.launch(vector.scale_vec_kernel_vec, grid_dim=(2,), block_dim=(32,), args=(buf, 2.0))
        assert np.allclose(device.to_host(buf), data * 2.0)


class TestVecCtxSemantics:
    def test_masked_out_of_bounds_lanes_are_not_accesses(self, device_vectorized):
        """Inactive lanes may hold out-of-range offsets (like reduce's tid+stride)."""

        def ref(ctx, buf):
            if ctx.threadIdx.x < 2:
                ctx.load(buf, ctx.threadIdx.x)
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, buf):
            tid = ctx.threadIdx.x
            ctx.load(buf, tid * 1000, where=tid < 2)  # lanes >= 2 out of range

        buf = device_vectorized.malloc((2000,))
        device_vectorized.launch(ref, grid_dim=(1,), block_dim=(8,), args=(buf,))

    def test_unmasked_out_of_bounds_raises(self, device_vectorized):
        def ref(ctx, buf):
            ctx.load(buf, ctx.threadIdx.x)
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, buf):
            ctx.load(buf, ctx.threadIdx.x + 100)

        buf = device_vectorized.malloc((8,))
        with pytest.raises(DeviceMemoryError):
            device_vectorized.launch(ref, grid_dim=(1,), block_dim=(8,), args=(buf,))

    def test_generator_vectorized_kernel_rejected(self, device_vectorized):
        def ref(ctx):
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx):
            yield

        with pytest.raises(LaunchConfigurationError, match="plain functions"):
            device_vectorized.launch(ref, grid_dim=(1,), block_dim=(4,))

    def test_shared_memory_is_per_block(self, device_vectorized):
        """Each block sees its own copy of a shared buffer."""

        def ref(ctx, out):
            sh = ctx.shared("s", (1,))
            if ctx.threadIdx.x == 0:
                ctx.store(sh, 0, float(ctx.blockIdx.x))
            yield
            if ctx.threadIdx.x == 1:
                ctx.store(out, ctx.blockIdx.x, ctx.load(sh, 0))

        @vectorized_impl(ref)
        def vec(ctx, out):
            sh = ctx.shared("s", (1,))
            first = ctx.threadIdx.x == 0
            ctx.store(sh, 0, ctx.blockIdx.x.astype(np.float64), where=first)
            ctx.sync()
            second = ctx.threadIdx.x == 1
            ctx.store(out, ctx.blockIdx.x, ctx.load(sh, 0, where=second), where=second)

        out = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(ref, grid_dim=(4,), block_dim=(2,), args=(out,))
        assert np.array_equal(device_vectorized.to_host(out), np.arange(4, dtype=np.float64))
        assert not launch.races

    def test_local_memory_parity(self, rng):
        """ctx.local gives each thread a private row; cost folds into arithmetic."""

        def ref(ctx, out):
            scratch = ctx.local((2,))
            ctx.store(scratch, 0, float(ctx.threadIdx.x))
            ctx.store(out, ctx.global_thread_id, ctx.load(scratch, 0) * 2.0)
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, out):
            scratch = ctx.local((2,))
            ctx.store(scratch, 0, ctx.threadIdx.x.astype(np.float64))
            ctx.store(out, ctx.global_thread_id, ctx.load(scratch, 0) * 2.0)

        results = {}
        for mode in ("reference", "vectorized"):
            device = GpuDevice(execution_mode=mode)
            out = device.malloc((8,))
            launch = device.launch(ref, grid_dim=(2,), block_dim=(4,), args=(out,))
            results[mode] = (device.to_host(out), launch)
        ref_out, ref_launch = results["reference"]
        vec_out, vec_launch = results["vectorized"]
        assert np.array_equal(ref_out, vec_out)
        assert np.array_equal(vec_out, np.tile(np.arange(4, dtype=np.float64) * 2.0, 2))
        assert ref_launch.cycles == vec_launch.cycles
        assert ref_launch.cost.summary() == vec_launch.cost.summary()
        assert not vec_launch.races

    def test_local_memory_masked_lanes(self, device_vectorized):
        """Masked lanes neither touch their private row nor advance their slot."""

        def ref(ctx, out):
            scratch = ctx.local((1,))
            if ctx.threadIdx.x < 2:
                ctx.store(scratch, 0, 1.0)
                ctx.store(out, ctx.threadIdx.x, ctx.load(scratch, 0))
            return
            yield

        @vectorized_impl(ref)
        def vec(ctx, out):
            scratch = ctx.local((1,))
            active = ctx.threadIdx.x < 2
            ctx.store(scratch, 0, 1.0, where=active)
            ctx.store(out, ctx.threadIdx.x, ctx.load(scratch, 0, where=active), where=active)

        out = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(ref, grid_dim=(1,), block_dim=(4,), args=(out,))
        assert np.array_equal(device_vectorized.to_host(out), [1.0, 1.0, 0.0, 0.0])
        assert not launch.races

    def test_barrier_accounting_matches_reference(self, device, device_vectorized, rng):
        data = rng.random(256)
        results = []
        for dev in (device, device_vectorized):
            buf = dev.to_device(data)
            out = dev.malloc((4,))
            launch = dev.launch(
                reduce.block_reduce_kernel, grid_dim=(4,), block_dim=(64,), args=(buf, out)
            )
            results.append(launch)
        assert results[0].barriers == results[1].barriers > 0
