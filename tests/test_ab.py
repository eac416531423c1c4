"""Tests for the summary of ``scripts/ab.py``, the same-run benchmark A/B."""

import importlib.util
import os

import pytest

_AB_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "items_per_s", "better": "higher"},
           {"name": "op_p50_s", "better": "lower"}]


def _rows(items, p50):
    return [{"items_per_s": i, "op_p50_s": p} for i, p in zip(items, p50)]


def test_medians_and_quartiles_per_side():
    base = _rows([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
    change = _rows([10.0, 20.0, 30.0, 40.0, 50.0], [1.0] * 5)
    items, p50 = ab.summarize(base, change, METRICS)
    assert items["base"] == [2.0, 3.0, 4.0]
    assert items["change"] == [20.0, 30.0, 40.0]
    assert p50["base"] == [2.0, 3.0, 4.0]
    assert p50["change"] == [1.0, 1.0, 1.0]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    base = _rows([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    change = _rows([2.0, 2.0, 1.0, 5.0], [2.0, 2.0, 1.0, 5.0])
    items, p50 = ab.summarize(base, change, METRICS)
    # Higher is better: the change wins pairs 0 and 3, loses pair 2.
    assert (items["change_wins"], items["base_wins"]) == (2, 1)
    # Lower is better: the same values flip the outcome.
    assert (p50["change_wins"], p50["base_wins"]) == (1, 2)
    assert items["pairs"] == p50["pairs"] == 4


def test_single_pair_has_degenerate_quartiles():
    [items, _] = ab.summarize(_rows([7.0], [1.0]), _rows([7.0], [1.0]),
                              METRICS)
    assert items["base"] == items["change"] == [7.0, 7.0, 7.0]
    assert (items["base_wins"], items["change_wins"]) == (0, 0)


def test_table_row_shows_ratio_wins_and_ties():
    rows = ab.summarize(_rows([1.0, 1.0, 1.0], [1.0] * 3),
                        _rows([2.0, 2.0, 1.0], [1.0] * 3), METRICS)
    table = ab.format_table("fleet-serve", rows).splitlines()
    assert table[0] == ("| fleet-serve | items_per_s | 1 [1, 1] | "
                        "2 [1.5, 2] (2×) | 2/3 (1 tied) |")
    assert table[1].endswith("| 0/3 (3 tied) |")


@pytest.mark.parametrize("argv", [["HEAD", "--pairs", "0"],
                                  ["HEAD", "--workload", "nope"]])
def test_bad_arguments_are_rejected(argv):
    with pytest.raises(SystemExit):
        ab.parse_args(argv)
