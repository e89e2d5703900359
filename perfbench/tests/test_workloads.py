"""Backlog accounting of the serve-d512 open loop."""

from perfbench.clients import Sent
from perfbench.workloads import _backlogged

OK = {"ok": True}


def _sent(arrival, due, done, response=OK):
    return Sent(arrival, "solo", 0, due, done, response)


def test_arrivals_on_an_idle_server_are_not_backlogged():
    sent = [_sent(0, 0.0, 0.5), _sent(0, 0.0, 0.6), _sent(1, 1.0, 1.1)]
    assert _backlogged(sent) == 0


def test_an_arrival_due_before_an_earlier_last_reply_is_backlogged():
    # Arrival 2 lands after arrival 1 is answered but before arrival 0 is.
    sent = [_sent(0, 0.0, 3.0), _sent(1, 1.0, 1.5), _sent(2, 2.0, 3.5)]
    assert _backlogged(sent) == 2


def test_an_unanswered_request_backlogs_every_later_arrival():
    sent = [_sent(0, 0.0, None, None), _sent(1, 1.0, 1.1), _sent(2, 2.0, 2.1)]
    assert _backlogged(sent) == 2
