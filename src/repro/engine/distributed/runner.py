"""`run_campaign`: plan, execute, checkpoint and merge a sharded campaign.

The one call behind both the ``repro.campaigns`` CLI and programmatic use::

    from repro.engine.distributed import (
        MultiprocessExecutor, Sigma2NCampaignSpec, run_campaign,
    )

    spec = Sigma2NCampaignSpec(batch_size=1024, n_periods=262_144, seed=7)
    result = run_campaign(
        spec, executor=MultiprocessExecutor(max_workers=4), n_shards=16,
    )

Invariant: the returned result is **bit-for-bit identical** to the unsharded
batched campaign on the same spec, for every shard count and executor — each
shard re-derives its rows' RNG streams from the root ``SeedSequence`` spawn
tree, and the merge re-runs the same vectorized fit on the reassembled
arrays (``tests/engine/test_distributed_invariance.py`` enforces this over
shard counts {1, 2, 3, 7} and both executors).
"""

from __future__ import annotations

from typing import Optional, Union

from ..campaign import BatchedCampaignResult, BitCampaignResult
from .checkpoint import CampaignCheckpoint
from .executor import SerialExecutor
from .merge import merge_bit_partials, merge_sigma2n_partials
from .plan import ShardPlan, plan_shards, plan_shards_for_backend
from .spec import BitCampaignSpec, CampaignSpec, Sigma2NCampaignSpec
from .worker import run_shard

CampaignResult = Union[BatchedCampaignResult, BitCampaignResult]


def campaign_plan(
    spec: CampaignSpec, executor, n_shards: Optional[int] = None
) -> ShardPlan:
    """The balanced plan :func:`run_campaign` runs when given no plan.

    An explicit ``n_shards`` is honoured (capped only at one row per
    shard).  The derived default, one shard per executor worker, is
    backend-aware: an intra-shard parallel backend gets shards at least as
    fat as its worker pool (:func:`plan_shards_for_backend`).
    """
    if n_shards is not None:
        return plan_shards(spec.batch_size, n_shards)
    return plan_shards_for_backend(
        spec.batch_size,
        getattr(executor, "max_workers", 1),
        backend=spec.backend,
        n_periods=getattr(spec, "n_periods", None),
    )


def run_campaign(
    spec: CampaignSpec,
    executor=None,
    n_shards: Optional[int] = None,
    plan: Optional[ShardPlan] = None,
    checkpoint_dir=None,
    resume: bool = False,
) -> CampaignResult:
    """Run a campaign spec shard-by-shard and merge the partials.

    Parameters
    ----------
    spec:
        A :class:`Sigma2NCampaignSpec` or :class:`BitCampaignSpec`.
    executor:
        A :class:`SerialExecutor` (default) or :class:`MultiprocessExecutor`
        — anything with ``run(function, tasks)`` yielding ``(position,
        result)`` pairs in completion order.
    n_shards:
        Shard count of the balanced plan (default: one shard per executor
        worker, or 1 for serial execution; see :func:`campaign_plan`).
    plan:
        Explicit :class:`ShardPlan`; overrides ``n_shards``.
    checkpoint_dir:
        When given, completed shards are persisted there as they land (JSON
        manifest + per-shard ``.npz``), making the run interruptible.
    resume:
        Reuse completed shards found in ``checkpoint_dir`` (validating that
        they belong to this spec and plan) instead of recomputing them.
    """
    if executor is None:
        executor = SerialExecutor()
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint directory")
    if plan is None:
        plan = campaign_plan(spec, executor, n_shards)
    elif plan.batch_size != spec.batch_size:
        raise ValueError(
            f"plan covers {plan.batch_size} rows but the spec has "
            f"{spec.batch_size} instances"
        )

    partials = {}
    checkpoint = None
    try:
        if checkpoint_dir is not None:
            checkpoint = CampaignCheckpoint(checkpoint_dir)
            for index in checkpoint.initialize(spec, plan, resume=resume):
                partials[index] = checkpoint.load_partial(index)

        # Already-checkpointed shards never re-enter the task list: a fabric
        # reassignment or a coordinator restart reuses their partials
        # verbatim instead of recomputing (zero-recomputation contract).
        pending = [shard for shard in plan if shard.index not in partials]
        tasks = [(spec, shard) for shard in pending]
        for position, partial in executor.run(run_shard, tasks):
            shard = pending[position]
            partials[shard.index] = partial
            if checkpoint is not None:
                checkpoint.save_partial(shard.index, partial)
    finally:
        # Release the single-writer lease even on failure, so a follow-up
        # resume (same or another process) can take over immediately.
        if checkpoint is not None:
            checkpoint.release()

    ordered = [partials[shard.index] for shard in plan]
    if isinstance(spec, Sigma2NCampaignSpec):
        return merge_sigma2n_partials(spec, ordered)
    if isinstance(spec, BitCampaignSpec):
        return merge_bit_partials(spec, ordered)
    raise TypeError(f"unsupported campaign spec: {type(spec)!r}")
