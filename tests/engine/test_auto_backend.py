"""The executor's cost model: when a call threads, spec plumbing, sharding.

Threading never changes output (every worker count is bitwise-equal to the
single-thread reference, re-checked here with the threshold forced both
ways); what these tests pin is *whether* a call threads, how its row ranges
are joined and counted, and how the distributed planner sizes shards around
it.  Worker counts are always injected explicitly — the host running the
suite may have any core count.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine.backends import (
    AUTO_THRESHOLD,
    BACKEND_ENV_VAR,
    NumpyBackend,
    parse_backend_spec,
    pool_worker_backend,
    process_cores,
    resolve_backend,
    validate_backend_spec,
)
from repro.engine.batch import spawn_generators
from repro.engine.distributed import (
    SerialExecutor,
    Sigma2NCampaignSpec,
    plan_shards_for_backend,
    run_campaign,
)
from repro.obs import global_registry


def _run(backend, batch: int, n: int, seed: int = 5, rngs=None):
    sigma = np.full(batch, 1.2e-12)
    h_minus1 = np.full(batch, 3.1e-22)
    if rngs is None:
        rngs = spawn_generators(seed, batch)
    return backend.synthesize(n, rngs, sigma, h_minus1, "spectral")


class TestSelection:
    def test_small_workload_runs_one_range(self):
        backend = NumpyBackend(4, threshold=1000)
        assert backend.row_ranges(4, 100) == [(0, 4)]

    def test_large_workload_threads(self):
        backend = NumpyBackend(4, threshold=1000)
        assert backend.row_ranges(4, 250) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_row_batches_never_thread(self):
        backend = NumpyBackend(4, threshold=0)
        assert backend.row_ranges(1, 10**9) == [(0, 1)]

    def test_single_worker_never_threads(self):
        backend = NumpyBackend(1, threshold=0)
        assert backend.row_ranges(64, 10**9) == [(0, 64)]

    def test_threshold_boundary_is_inclusive(self):
        backend = NumpyBackend(2, threshold=1000)
        assert len(backend.row_ranges(10, 100)) == 2
        assert len(backend.row_ranges(10, 99)) == 1

    def test_ranges_are_balanced_and_contiguous(self):
        ranges = NumpyBackend(4, threshold=0).row_ranges(33, 1)
        assert [stop - start for start, stop in ranges] == [9, 8, 8, 8]
        assert ranges[0][0] == 0 and ranges[-1][1] == 33
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_thread_pool_is_lazy(self):
        backend = NumpyBackend(4, threshold=10**9)
        _run(backend, 2, 64)
        assert backend._pool is None

    def test_pool_holds_workers_minus_one_threads(self):
        backend = NumpyBackend(3, threshold=0)
        _run(backend, 6, 64)
        assert backend._pool._max_workers == 2

    def test_output_identical_whichever_side_wins(self):
        reference = _run(NumpyBackend(), 4, 128)
        forced_single = _run(NumpyBackend(2, threshold=10**9), 4, 128)
        forced_threaded = _run(NumpyBackend(2, threshold=0), 4, 128)
        for got in (forced_single, forced_threaded):
            np.testing.assert_array_equal(reference[0], got[0])
            np.testing.assert_array_equal(reference[1], got[1])

    def test_measured_threshold_threads_a_served_burst_only(self):
        """A B = 32, D = 512 burst call (32 x 1,024) threads; a multi-block
        serving step under the 2**12 row-period budget does not."""
        backend = NumpyBackend(2)
        assert backend.threshold == AUTO_THRESHOLD
        assert len(backend.row_ranges(32, 1024)) == 2
        assert len(backend.row_ranges(4, 1024)) == 1


class _RaisingGenerator:
    """A row generator whose draws fail."""

    def standard_normal(self, size):
        raise RuntimeError("draw failed")


class _SlowGenerator:
    """A row generator that records when its (slow) draws have finished."""

    def __init__(self, inner: np.random.Generator) -> None:
        self.inner = inner
        self.finished = False

    def standard_normal(self, size):
        time.sleep(0.05)
        draw = self.inner.standard_normal(size)
        self.finished = True
        return draw


class TestRangeJoin:
    @pytest.mark.parametrize("failing_row", [0, 2])
    def test_failed_range_raises_after_every_range_is_joined(self, failing_row):
        """Row 0 runs on the calling thread, row 2 on the pool: either way
        the failure propagates and no other range is still running."""
        backend = NumpyBackend(3, threshold=0)
        rngs = [_SlowGenerator(g) for g in spawn_generators(1, 3)]
        rngs[failing_row] = _RaisingGenerator()
        with pytest.raises(RuntimeError, match="draw failed"):
            _run(backend, 3, 32, rngs=rngs)
        slow = [g for row, g in enumerate(rngs) if row != failing_row]
        assert all(generator.finished for generator in slow)
        # The pool is idle again: a follow-up call completes normally.
        reference = _run(NumpyBackend(), 3, 32)
        again = _run(backend, 3, 32)
        np.testing.assert_array_equal(reference[0], again[0])


class TestKernelMetrics:
    def test_threaded_call_is_one_observation(self):
        histogram = global_registry().histogram("engine_kernel_block_seconds")
        counter = global_registry().counter("engine_kernel_rows_total")
        backend = NumpyBackend(2, threshold=0)
        calls, rows = histogram.count, counter.value()
        rngs = spawn_generators(3, 4)
        sigma, h_minus1 = np.full(4, 1e-12), np.full(4, 1e-22)
        backend.synthesize(32, rngs, sigma, h_minus1, "spectral", n_blocks=3)
        assert len(backend.row_ranges(4, 3 * 32)) == 2
        assert histogram.count - calls == 1
        assert counter.value() - rows == 4 * 3


class TestSpecPlumbing:
    def test_parse_auto_specs(self):
        default = parse_backend_spec("auto")
        assert isinstance(default, NumpyBackend)
        assert default.workers == process_cores()
        assert default.threshold == AUTO_THRESHOLD
        explicit = parse_backend_spec("auto:3")
        assert explicit.workers == 3
        assert explicit.spec == "auto:3"

    def test_one_worker_is_the_reference(self):
        for spec in ("auto:1", "threaded:1"):
            assert parse_backend_spec(spec).spec == "numpy"

    @pytest.mark.parametrize("spec", ["auto:x", "auto:0", "philox:0"])
    def test_invalid_auto_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NumpyBackend(0)
        with pytest.raises(ValueError):
            NumpyBackend(2, threshold=-1)

    def test_validate_and_resolve(self, monkeypatch):
        assert validate_backend_spec("auto:2") == "auto:2"
        monkeypatch.setenv("REPRO_BACKEND", "auto:2")
        resolved = resolve_backend(None)
        assert isinstance(resolved, NumpyBackend)
        assert resolved.workers == 2

    def test_default_is_auto_on_every_core(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        resolved = resolve_backend(None)
        assert (resolved.workers, resolved.threshold) == (
            process_cores(),
            AUTO_THRESHOLD,
        )


class TestPoolWorkerShare:
    def test_default_is_split_across_the_pool(self):
        cores = process_cores()
        assert pool_worker_backend(1, {}) == f"auto:{cores}"
        assert pool_worker_backend(cores, {}) == "auto:1"
        assert pool_worker_backend(4 * cores, {}) == "auto:1"
        assert pool_worker_backend(2, {BACKEND_ENV_VAR: "auto"}) == (
            f"auto:{max(1, cores // 2)}"
        )

    @pytest.mark.parametrize("spec", ["numpy", "threaded:4", "auto:3", "philox:4"])
    def test_explicit_default_passes_through(self, spec):
        assert pool_worker_backend(2, {BACKEND_ENV_VAR: spec}) == spec

    def test_multiprocess_workers_adopt_their_share(self, monkeypatch):
        from repro.engine.distributed import MultiprocessExecutor

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        executor = MultiprocessExecutor(max_workers=2)
        got = dict(executor.run(_worker_backend_spec, [0, 1]))
        share = max(1, process_cores() // 2)
        expected = "numpy" if share == 1 else f"auto:{share}"
        assert got == {0: expected, 1: expected}


    def test_spawned_fabric_workers_get_their_share(self, monkeypatch):
        from repro.engine.distributed.fabric.connection import _worker_environment

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        env = _worker_environment(pool_size=2)
        assert env[BACKEND_ENV_VAR] == pool_worker_backend(2, {})
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:4")
        assert _worker_environment(pool_size=2)[BACKEND_ENV_VAR] == "threaded:4"


def _worker_backend_spec(_task) -> str:
    return resolve_backend(None).spec


class _CountingExecutor(SerialExecutor):
    """A serial executor that records how many shards it ran."""

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = max_workers
        self.shards = 0

    def run(self, function, tasks):
        self.shards = len(tasks)
        return super().run(function, tasks)


class TestShardSizing:
    def test_min_shard_rows_by_backend(self):
        assert NumpyBackend().min_shard_rows() == 1
        assert NumpyBackend(4, threshold=0).min_shard_rows() == 4
        auto = NumpyBackend(4, threshold=1024)
        assert auto.min_shard_rows(1024) == 4  # 4 x 1024 crosses the threshold
        assert auto.min_shard_rows(16) == 1  # the call would not thread
        assert auto.min_shard_rows(None) == 1
        assert NumpyBackend(1, threshold=0).min_shard_rows(1024) == 1

    def test_plan_clamped_for_threaded_backend(self):
        plan = plan_shards_for_backend(16, 16, backend="threaded:4")
        assert plan.n_shards == 4
        assert all(shard.size == 4 for shard in plan)

    def test_plan_falls_back_to_single_fat_shard(self):
        plan = plan_shards_for_backend(2, 8, backend="threaded:4")
        assert plan.n_shards == 1
        assert plan.shards[0].size == 2

    def test_sequential_backend_unclamped(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert plan_shards_for_backend(16, 16, backend="numpy").n_shards == 16
        assert plan_shards_for_backend(16, 16).n_shards == 16

    def test_auto_backend_clamps_only_above_threshold(self):
        backend = NumpyBackend(4, threshold=1024)
        fat = plan_shards_for_backend(16, 16, backend=backend, n_periods=1024)
        thin = plan_shards_for_backend(16, 16, backend=backend, n_periods=16)
        assert fat.n_shards == 4
        assert thin.n_shards == 16

    def test_explicit_shard_count_is_honoured(self):
        spec = Sigma2NCampaignSpec(
            batch_size=8, n_periods=1024, seed=3, fit=False, backend="threaded:4"
        )
        executor = _CountingExecutor()
        run_campaign(spec, executor=executor, n_shards=4)
        assert executor.shards == 4

    def test_derived_shard_count_is_clamped(self):
        spec = Sigma2NCampaignSpec(
            batch_size=8, n_periods=1024, seed=3, fit=False, backend="threaded:4"
        )
        executor = _CountingExecutor(max_workers=8)
        run_campaign(spec, executor=executor)
        assert executor.shards == 2

