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
                       "pair_rule": False, "within": True}
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


# Parent quartiles 11.125 and 13.375 (inclusive method): an IQR of 2.25 around 12.25.
PARENT = [10, 10.5, 11, 11.5, 12, 12.5, 13, 13.5, 14, 14.5]


@pytest.mark.parametrize("change, rule", [
    ([p - 3 for p in PARENT], True),                    # 10/10 won, gap 3
    ([p - 3 for p in PARENT[:9]] + [15.5], True),       # 9/10 won, gap 3
    ([p - 3 for p in PARENT[:8]] + [15, 15.5], False),  # 8/10 won, gap 3
    ([p - 2 for p in PARENT], False),                   # 10/10 won, gap 2 inside the IQR
    ([p - 3 for p in PARENT[:9]] + [14.5], True),       # a tie counts for neither side
    ([p - 3 for p in PARENT[:8]] + [14, 14.5], False),  # two ties: 8/10 won
])
def test_pair_rule_needs_nine_tenths_won_and_a_gap_past_the_parent_iqr(change, rule):
    tokens = [100 - p for p in PARENT]
    latency, faster = pairs.summarize(_pairs(PARENT, change, tokens, [100 - c for c in change]),
                                      METRICS)
    assert (latency["parent_q1"], latency["parent_q3"]) == (11.125, 13.375)
    assert latency["pair_rule"] is rule
    assert faster["pair_rule"] is rule      # the same pairs, where higher is better
    assert not pairs.summarize(_pairs(change, PARENT, tokens, tokens), METRICS)[0]["pair_rule"]


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
    assert "+100.0%" in lines[1] and lines[1].split()[-4:] == ["0/2", "not", "met", "NO"]
    assert lines[2].endswith("yes")
    met = pairs.format_rows(pairs.summarize(_pairs([10] * 10, [5] * 10, [100] * 10, [100] * 10),
                                            METRICS))
    assert met[1].split()[-3:] == ["10/10", "met", "yes"]
    assert met[2].split()[-4:] == ["0/10", "not", "met", "yes"]


def _traced(failed, **layers):
    return {"failed": failed, "attempted": 100,
            "metrics": {name: {"value": v} for name, v in layers.items()}}


LAYERS = [{"name": "load_ppm_us", "better": "lower"}, {"name": "collate_us", "better": "lower"},
          {"name": "vision_ms", "better": "lower"}, {"name": "absent_ms", "better": "lower"}]


def test_layer_summary_has_quartiles_on_both_sides_and_skips_silent_layers():
    runs = [(_traced(0, load_ppm_us=p, collate_us=40, vision_ms=0),
             _traced(0, load_ppm_us=c, collate_us=cc, vision_ms=0))
            for p, c, cc in zip([20, 22, 21, 24, 23], [12, 13, 23, 11, 14], [40, 41, 39, 40, 42])]
    rows = pairs.summarize_layers(runs, LAYERS)
    # vision_ms is 0 in every run and absent_ms is in none: neither gets a row.
    assert [r["name"] for r in rows] == ["load_ppm_us", "collate_us"]
    ppm, collate = rows
    assert ppm == {"name": "load_ppm_us", "parent": (21, 22, 23), "change": (12, 13, 14),
                   "won": 4, "pairs": 5}
    assert collate["parent"] == (40, 40, 40) and collate["change"] == (40, 40, 41)
    assert collate["won"] == 1          # two ties count for neither side
    lines = pairs.format_layer_rows(rows)
    assert len(lines) == 3 and lines[0].startswith("per-layer metric")
    assert lines[1].split() == ["load_ppm_us", "22", "[21,", "23]", "13", "[12,", "14]",
                                "-40.9%", "4/5"]
    assert lines[2].split()[-2:] == ["+0.0%", "1/5"]


def test_failed_share_is_a_row_that_may_not_grow():
    assert pairs.value(_traced(3), "failed_share") == 0.03
    assert pairs.value({"failed": 0, "attempted": 0, "metrics": {}}, "failed_share") == 0.0
    same = [(_traced(1), _traced(1)) for _ in range(4)]
    worse = [(_traced(1), _traced(2)) for _ in range(4)]
    better = [(_traced(2), _traced(0)) for _ in range(4)]
    rows = [pairs.summarize(runs, [pairs.FAILED_SHARE])[0] for runs in (same, worse, better)]
    assert [r["within"] for r in rows] == [True, False, True]
    assert [r["won"] for r in rows] == [0, 0, 4]
    assert rows[2]["parent_median"] == 0.02 and rows[2]["change_median"] == 0.0
    line = pairs.format_rows([rows[1]])[1]
    assert line.startswith("failed_share") and line.endswith("NO")
