"""The budget oracle's audit on hand-built journals and acknowledgement streams.

One recovered incarnation: a commit survived the previous crash, and this
incarnation journaled a denial and two commits.  Every epsilon is dyadic,
so every total is exact.
"""

import copy

import pytest

from repro.reliability.reference import audit_incarnation


def commit(seq, analyst, eps_upper, eps_spent):
    return dict(op="commit", seq=seq, analyst=analyst, mechanism="WCQ-LM",
                eps_upper=eps_upper, eps_spent=eps_spent)


def ack(index, analyst, eps_spent, spent_total, op="explore", denied=False):
    return dict(event="ack", index=index, op=op, analyst=analyst, denied=denied,
                mechanism="WCQ-LM", epsilon_spent=eps_spent, spent_total=spent_total)


RECORDS = [
    commit(1, "a0", 0.5, 0.25),
    {"op": "deny", "seq": 2, "analyst": "a1"},
    commit(3, "a1", 0.25, 0.25),
    commit(4, "a0", 0.5, 0.125),
]
EVENTS = [
    {"event": "recovered", "spent": 0.25, "valid": True},
    ack(0, "a1", 0.0, 0.25, op="preview"),
    ack(1, "a1", 0.0, 0.25, denied=True),
    ack(2, "a1", 0.25, 0.5),
    ack(3, "a0", 0.125, 0.625),
    {"event": "done", "spent": 0.625, "valid": True},
]


def audit(records, events):
    return audit_incarnation(records, events, budget=1.0, before=1)


def test_a_clean_history_has_no_violations():
    assert audit(RECORDS, EVENTS) == []


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda records, events: records.pop(), "missing from the journal"),
        (lambda records, events: events[0].update(spent=0.5), "recovered reports"),
        (lambda records, events: records[2].update(eps_upper=0.875), "refuses"),
        (lambda records, events: records[3].update(eps_upper=0.0625), "refuses"),
        (lambda records, events: events[4].update(spent_total=0.5), "ack 3 reports"),
    ],
    ids=[
        "acked-commit-missing",
        "recovered-above-journal",
        "upper-beyond-remaining",
        "spent-above-upper",
        "ack-total-disagrees",
    ],
)
def test_each_broken_rule_is_a_violation(mutate, expected):
    records, events = copy.deepcopy(RECORDS), copy.deepcopy(EVENTS)
    mutate(records, events)
    assert any(expected in v for v in audit(records, events))
