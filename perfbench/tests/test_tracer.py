"""Self-time arithmetic, the tail-percentile rule and binding replacement,
checked on hand-built spans and samples.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tracer as tr  # noqa: E402


def test_self_time_subtracts_children():
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6.
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert tr.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children 2..5 and 4..7 overlap (union 2..7); child 8..12 is clipped to 8..10.
    start = [0.0, 2.0, 4.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert tr.self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_of_leaf_is_its_duration():
    assert tr.self_times([1.0, 3.0], [2.0, 7.5], [-1, -1]) == pytest.approx([1.0, 4.5])


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_wrapped_calls_record_nesting_and_counts():
    t = tr.Tracer(_clock([0.0, 1.0, 3.0, 10.0]))
    inner = t.wrap("inner", lambda x: x + 1, count=lambda args: args[0])
    outer = t.wrap("outer", lambda: inner(5) * 2)
    assert outer() == 12
    assert list(t.parent) == [-1, 0]
    assert list(t.start) == [0.0, 1.0] and list(t.end) == [10.0, 3.0]
    assert t.counters == {"inner": 5}
    totals = tr.aggregate(t, 0, len(t), tr.self_times(t.start, t.end, t.parent))
    assert totals == {"outer": (8.0, 1), "inner": (2.0, 1)}


def test_nested_share_counts_outermost_inner_spans_only():
    t = tr.Tracer(_clock([0.0, 2.0, 3.0, 4.0, 4.0, 4.0, 6.0, 10.0]))
    leaf = t.wrap("tag", lambda: None)
    mid = t.wrap("tag_pair", lambda: leaf())
    train = t.wrap("train", lambda: (mid(), leaf()))
    train()
    # train 0..10; tag_pair 2..4 (holding tag 3..4, not counted again); tag 4..6.
    assert tr.nested_share(t, 0, len(t), ("train",), ("tag", "tag_pair")) == pytest.approx(0.4)


def test_install_replaces_every_binding_and_uninstall_restores(monkeypatch):
    def work():
        return 7

    class Box:
        def get(self):
            return 3

    home = types.ModuleType("pkg.home")
    home.work, home.Box = work, Box
    user = types.ModuleType("pkg.user")
    user.alias = work  # a `from pkg.home import work as alias` binding
    for name, module in (("pkg", types.ModuleType("pkg")), ("pkg.home", home), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    t = tr.Tracer(_clock(float(i) for i in range(100)))
    t.install("pkg", ["home.work", "home.Box.get"])
    assert user.alias() == 7 and home.work() == 7 and Box().get() == 3
    assert [t.names[i] for i in t.name_id] == ["home.work", "home.work", "home.Box.get"]
    t.uninstall()
    assert home.work is work and user.alias is work and Box.get.__name__ == "get"
    assert not hasattr(Box.get, "__wrapped__")


@pytest.mark.parametrize("n, expected", [
    (10, (50.0, 5)),      # too few for ten beyond any rung: falls back to the median
    (20, (50.0, 10)),
    (40, (75.0, 10)),
    (100, (90.0, 10)),
    (199, (90.0, 19)),
    (200, (95.0, 10)),
    (1000, (99.0, 10)),
    (9999, (99.0, 99)),
    (10000, (99.9, 10)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tr.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert tr.percentile(samples, 50.0) == 50
    assert tr.percentile(samples, 99.0) == 99
    assert tr.percentile(samples, 100.0) == 100
    assert tr.percentile([4.0], 99.0) == 4.0


def test_slow_side_counts_from_the_best_end_in_both_directions():
    samples = [float(x) for x in range(20, 0, -1)]  # 1..20, unsorted
    assert tr.slow_side(samples, "lower") == 17.0
    assert tr.slow_side(samples, "higher") == 4.0
    assert tr.slow_side([3.0, 1.0, 2.0], "lower") == 3.0
    assert tr.slow_side([3.0, 1.0, 2.0], "higher") == 1.0
