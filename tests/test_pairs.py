import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "pairs.py")
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def runs_of(base, change, name="peak_rss_mb"):
    """Raw runs as the runner records them: one base and one change run per
    pair, in the alternating order it runs them."""
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        sides = [("base", b), ("change", c)]
        for side, value in sides if pair % 2 == 0 else sides[::-1]:
            runs.append({"pair": pair, "seed": 100 + pair, "side": side,
                         "metrics": {name: value}})
    return runs


def test_quartiles_lie_within_the_data_and_match_hand_values():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    # Four values: the inclusive quartiles interpolate between neighbours.
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_pair_each_change_run_with_its_own_base_run():
    # The change is lower in pairs 0, 1 and 3 and ties pair 2, and its run
    # in pair 2 sits above base runs of other pairs: a win compares the two
    # runs of one pair.
    base = [39.1, 38.0, 39.2, 39.3]
    change = [38.7, 37.9, 39.2, 38.8]
    got = pairs.summarize(runs_of(base, change), {"peak_rss_mb": "lower"})
    stats = got["peak_rss_mb"]
    assert stats["wins"] == 3 and stats["pairs"] == 4
    assert stats["better"] == "lower"
    assert stats["base"] == pairs.quartiles(base)
    assert stats["change"] == pairs.quartiles(change)


@pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 2)])
def test_wins_follow_the_metric_direction(better, wins):
    runs = runs_of([1.0, 2.0, 3.0], [2.0, 1.0, 2.0], name="m1.accepted")
    got = pairs.summarize(runs, {"m1.accepted": better})
    assert got["m1.accepted"]["wins"] == wins


def test_a_metric_without_a_direction_counts_lower_as_better():
    got = pairs.summarize(runs_of([2.0], [1.0], name="x"), {})
    assert got["x"]["better"] == "lower" and got["x"]["wins"] == 1


@pytest.mark.parametrize("output, counts", [
    ("....\n577 passed in 51.36s\n", (577, 0)),
    ("F.\n=== 2 failed, 575 passed, 1 warning in 50.12s ===\n", (575, 2)),
    ("E\n1 passed, 1 error in 0.51s\n", (1, 1)),
    ("no summary\n", (0, 0)),
], ids=["passed", "failed", "error", "none"])
def test_tier1_counts_read_the_pytest_summary_line(output, counts):
    assert pairs.tier1_counts(output) == counts


def test_a_tier1_run_times_the_suite_in_its_tree_with_its_src(tmp_path):
    # The suite imports from the tree's own `src`, and a failing test is
    # counted, not fatal.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "planted.py").write_text("VALUE = 1\n")
    (tmp_path / "test_planted.py").write_text(
        "import planted\n\n"
        "def test_reads_src():\n    assert planted.VALUE == 1\n\n"
        "def test_fails():\n    assert planted.VALUE == 2\n")
    run = pairs.tier1(str(tmp_path))
    assert run["returncode"] == 1
    assert run["metrics"]["passed"] == 1 and run["metrics"]["failed"] == 1
    assert run["metrics"]["wall_s"] > 0


def test_tier1_pairs_summarise_like_the_benchmark_metrics():
    runs = runs_of([50.0, 52.0], [49.0, 53.0], name="wall_s")
    got = pairs.summarize(runs, pairs.TIER1_BETTER)
    assert got["wall_s"]["wins"] == 1 and got["wall_s"]["pairs"] == 2
    assert pairs.TIER1_BETTER["passed"] == "higher"
