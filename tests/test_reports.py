"""The one case loop, reports.tally: None, int and witness entries."""

from twistconn.reports import tally


def test_int_entry_counts_that_many_held_steps():
    assert tally([3, None, 2], 2) == (12, {})


def test_int_entry_is_never_a_failure():
    assert tally([0, 5, 1], until=None) == (6, {})


def test_int_entries_between_witnesses():
    entries = ["first", 4, {"a": "w1", "b": "w2"}, 2, {"a": "later"}]
    assert tally(entries, 2, until=None) == \
        (18, {None: "first", "a": "w1", "b": "w2"})


def test_until_stops_at_the_first_failure():
    assert tally([2, None, "first", 3, "second"]) == (4, {None: "first"})
    assert tally([2, {"a": "w"}, 3, {"b": "v"}], until=2) == \
        (7, {"a": "w", "b": "v"})
