"""Inputs are a function of the workload seed alone."""

from perfbench import inputs


def test_serve_schedule_repeats_for_a_seed():
    assert inputs.serve_schedule(7, 30.0) == inputs.serve_schedule(7, 30.0)


def test_serve_schedule_changes_with_the_seed():
    first, second = inputs.serve_schedule(7, 30.0), inputs.serve_schedule(8, 30.0)
    assert [a.seeds for a in first] != [a.seeds for a in second]
    assert [a.offset_s for a in first] != [a.offset_s for a in second]


def test_serve_schedule_shape():
    schedule = inputs.serve_schedule(3, 30.0)
    kinds = [arrival.kind for arrival in schedule]
    assert kinds.count("burst") >= 1 and kinds.count("solo") >= 1
    assert all(len(a.seeds) == inputs.BURST_SIZE for a in schedule if a.kind == "burst")
    assert all(len(a.seeds) == 1 for a in schedule if a.kind == "solo")
    offsets = [arrival.offset_s for arrival in schedule]
    assert offsets == sorted(offsets) and offsets[0] == 0.0
    # Gaps leave the server idle: never shorter than the smallest configured gap.
    gaps = [later - earlier for earlier, later in zip(offsets, offsets[1:])]
    assert min(gaps) >= inputs.SOLO_GAP_S[0]
    assert 0.8 * 30.0 < offsets[-1] < 1.2 * 30.0


def test_front_door_inputs_repeat_and_differ():
    first = inputs.front_door_inputs(5)
    assert first == inputs.front_door_inputs(5)
    second = inputs.front_door_inputs(6)
    assert first.http_seeds != second.http_seeds
    assert first.session_seed != second.session_seed


def test_campaign_inputs_repeat_and_differ():
    first = inputs.campaign_inputs(5)
    assert first == inputs.campaign_inputs(5)
    second = inputs.campaign_inputs(6)
    assert first.run_seeds != second.run_seeds
    assert first.check_seed != second.check_seed


def test_workloads_never_share_seeds():
    serve = {seed for a in inputs.serve_schedule(1, 30.0) for seed in a.seeds}
    front = set(inputs.front_door_inputs(1).http_seeds)
    assert not serve & front
