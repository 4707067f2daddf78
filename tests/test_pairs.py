"""The pair summary in tools/pairs.py, on fixed numbers (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "latency_ms_p50", "better": "lower", "bound": 0.25},
           {"name": "tokens_per_s", "better": "higher", "bound": 0.25}]


def _run(latency, tokens):
    return {"failed": 0, "metrics": {"latency_ms_p50": {"value": latency},
                                     "tokens_per_s": {"value": tokens}}}


def _pairs(parent_latency, change_latency, parent_tokens, change_tokens):
    return [(_run(pl, pt), _run(cl, ct)) for pl, cl, pt, ct in
            zip(parent_latency, change_latency, parent_tokens, change_tokens)]


def test_summary_medians_quartiles_wins_and_ties():
    rows = pairs.summarize(_pairs([10, 12, 11, 13, 14], [9, 12, 12, 10, 20],
                                  [100, 90, 95, 80, 85], [101, 90, 80, 90, 85]), METRICS)
    latency, tokens = rows
    assert latency == {"name": "latency_ms_p50", "parent_median": 12, "parent_q1": 11,
                       "parent_q3": 13, "change_median": 12, "won": 2, "pairs": 5,
                       "within": True}
    # Higher is better here; the two equal pairs count for neither side.
    assert tokens["parent_median"] == 90 and tokens["change_median"] == 90
    assert (tokens["parent_q1"], tokens["parent_q3"]) == (85, 95)
    assert tokens["won"] == 2 and tokens["within"]


@pytest.mark.parametrize("change_latency, change_tokens, within", [
    ([12.5] * 4, [75] * 4, (True, True)),       # exactly at both bounds
    ([12.6] * 4, [74] * 4, (False, False)),     # just past them
    ([1.0] * 4, [1000] * 4, (True, True)),      # better is always within
])
def test_summary_bound_is_relative_to_the_parent_median(change_latency, change_tokens, within):
    rows = pairs.summarize(_pairs([10] * 4, change_latency, [100] * 4, change_tokens), METRICS)
    assert tuple(r["within"] for r in rows) == within


def test_seed_ranges_are_inclusive():
    assert pairs.parse_seeds("5101-5103") == [5101, 5102, 5103]
    assert pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        pairs.parse_seeds("9-3")


def test_format_rows_marks_a_metric_past_its_bound():
    rows = pairs.summarize(_pairs([10, 10], [20, 20], [100, 100], [100, 100]), METRICS)
    lines = pairs.format_rows(rows)
    assert len(lines) == 3
    assert lines[1].startswith("latency_ms_p50") and lines[1].endswith("NO")
    assert "+100.0%" in lines[1] and " 0/2 " in lines[1]
    assert lines[2].endswith("yes")
