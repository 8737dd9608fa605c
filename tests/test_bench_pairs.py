"""Tests for tools/bench_pairs.py's comparison of two checkouts' runs."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRIC = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def run(side: str, value: float, correct: bool = True, failed: int = 0) -> dict:
    return {"side": side, "correct": correct, "failed": failed, "values": {"peak_rss_mb": value}}


def crashed(side: str) -> dict:
    return {"side": side, "correct": False, "failed": None, "error": "boom"}


def pairs(n: int) -> list[dict]:
    """`n` pairs in which the change reads 4 MB lower, parent first in each."""
    return [r for i in range(n) for r in (run("parent", 26.7 + i / 100), run("change", 22.7))]


def test_a_clear_gain_on_every_pair_is_claimed():
    result = bench_pairs.compare(pairs(10), METRIC)
    assert (result["n_pairs"], result["wins"], result["claim"]) == (10, 10, True)


def test_a_crashed_pair_counts_as_a_loss():
    runs = pairs(10)
    runs[-1] = crashed("change")
    result = bench_pairs.compare(runs, METRIC)
    # nine wins of ten would do, but the crashed run is not correct
    assert (result["n_pairs"], result["wins"], result["change"]["n"]) == (10, 9, 9)
    assert result["claim"] is False
    runs[-1], runs[-2] = run("change", 22.7), crashed("parent")
    result = bench_pairs.compare(runs, METRIC)
    assert (result["wins"], result["claim"]) == (9, True)
    runs[1] = crashed("change")
    assert bench_pairs.compare(runs, METRIC)["wins"] == 8


def test_no_claim_when_the_change_fails_more_operations():
    runs = pairs(10)
    runs[1] = run("change", 22.7, failed=1)
    assert bench_pairs.compare(runs, METRIC)["claim"] is False
    runs[0] = run("parent", 26.7, failed=1)
    assert bench_pairs.compare(runs, METRIC)["claim"] is True


def test_an_incorrect_run_of_the_change_blocks_the_claim():
    runs = pairs(10)
    runs[3] = run("change", 22.7, correct=False)
    assert bench_pairs.compare(runs, METRIC)["claim"] is False


def test_a_gain_is_within_the_bound():
    assert bench_pairs.compare(pairs(10), METRIC)["verdict"] == "within_bound"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    runs = [r for i in range(10) for r in (run("parent", 20.0), run("change", 22.0 + i / 100))]
    assert bench_pairs.compare(runs, METRIC)["verdict"] == "worse"
    # just under 10% worse stays within the bound
    runs = [r for _ in range(10) for r in (run("parent", 20.0), run("change", 21.99))]
    assert bench_pairs.compare(runs, METRIC)["verdict"] == "within_bound"


def test_a_parent_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    # The parent's quartiles are 18 and 22: its IQR is 20% of its median.
    parent = [18.0, 22.0] * 5
    runs = [r for p in parent for r in (run("parent", p), run("change", 20.0))]
    assert bench_pairs.compare(runs, METRIC)["verdict"] == "unresolved"
    # unless every run of the change reads better than every parent run
    runs = [r for p in parent for r in (run("parent", p), run("change", 17.9))]
    assert bench_pairs.compare(runs, METRIC)["verdict"] == "within_bound"
    # and a median worse beyond the bound is worse, whatever the spread
    runs = [r for p in parent for r in (run("parent", p), run("change", 22.5))]
    assert bench_pairs.compare(runs, METRIC)["verdict"] == "worse"


def test_the_verdict_follows_the_metric_direction():
    higher = {**METRIC, "better": "higher", "bound": 0.25}
    runs = [r for _ in range(10) for r in (run("parent", 20.0), run("change", 14.0))]
    assert bench_pairs.compare(runs, higher)["verdict"] == "worse"
    runs = [r for _ in range(10) for r in (run("parent", 20.0), run("change", 30.0))]
    assert bench_pairs.compare(runs, higher)["verdict"] == "within_bound"


def test_a_run_that_times_out_is_recorded_as_crashed(monkeypatch):
    def timed_out(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", timed_out)
    result = bench_pairs.run_once(Path("."), "explore-small", 1, 2.0)
    assert (result["correct"], result["failed"]) == (False, None)
    assert result["error"] == "timed out after 640.0 s"


def test_a_run_without_a_json_result_is_recorded_as_crashed(monkeypatch):
    for stdout in ("warming up\nnot a result\n", "[1, 2]\n", '{"correct": true}\n'):

        def exited_cleanly(command, _stdout=stdout, **kwargs):
            return subprocess.CompletedProcess(command, 0, stdout=_stdout, stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", exited_cleanly)
        result = bench_pairs.run_once(Path("."), "explore-small", 1, 2.0)
        assert (result["correct"], result["failed"]) == (False, None), stdout
        assert result["error"].startswith("the last line of output is not a JSON result"), stdout
