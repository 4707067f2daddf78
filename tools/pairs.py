"""Alternating parent/change benchmark pairs, summarised per metric.

Usage:
    python3 tools/pairs.py --parent DIR --change DIR --workload W --seeds A-B \
        [--seconds S] [--trace 0|1]

For each seed N in A..B (inclusive) it runs
`bench/run.py --workload W --seed N --seconds S --trace T` from both trees,
one after the other. Which tree runs first alternates from seed to seed,
starting with the parent. A run's result is the last line of its standard
output, one JSON object (see `bench/run.py`); a run that exits non-zero
stops the tool with its error output.

It prints every run's failed share of operations and, untraced, its
end-to-end metrics (`setup_s` among them), then one row per end-to-end
metric listed in the change tree's `BENCHMARK.json`, and one for the failed
share (`failed_share`, failed / attempted, which may not grow):
  - the parent's median with its quartiles (inclusive method);
  - the change's median and its relative difference;
  - the pairs the change won, ties counting for neither side;
  - whether the change meets the pair rule for a claimed gain: it won at
    least nine tenths of the pairs, and its median is better than the
    parent's by more than the parent's interquartile range;
  - whether the change's median stays within the metric's bound, a
    relative worsening of at most `bound` from the parent's median.

With `--trace 1` the runs report `BENCHMARK.json`'s per-layer metrics
instead of the end-to-end ones. The end-to-end table then holds only the
failed share, and a second table has one row per per-layer metric that some
run reports as non-zero: the median and quartiles on each side, the
change's relative difference and the pairs it won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

Run = Dict    # one run's last JSON line: {"failed": ..., "metrics": {name: {"value": ...}}}


def parse_seeds(text: str) -> List[int]:
    """'A-B' as the seeds A..B inclusive, or 'A' as [A]."""
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


# The failed share of operations, as an end-to-end metric that may not grow.
FAILED_SHARE = {"name": "failed_share", "better": "lower", "bound": 0.0}


def value(run: Run, name: str) -> float:
    """A run's value of metric `name`; for `failed_share`, failed / attempted."""
    if name == FAILED_SHARE["name"]:
        return run["failed"] / run["attempted"] if run["attempted"] else 0.0
    return run["metrics"][name]["value"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _sides(pairs: Sequence[Tuple[Run, Run]], metric: Dict):
    """Parent values, change values and the pairs the change won."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [value(p, name) for p, _ in pairs]
    change = [value(c, name) for _, c in pairs]
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return parent, change, won


def summarize(pairs: Sequence[Tuple[Run, Run]], metrics: Sequence[Dict]) -> List[Dict]:
    """One row per metric over (parent, change) result pairs.

    `metrics` are BENCHMARK.json's `end_to_end` entries (name, better, bound).
    A row holds the parent's median and quartiles, the change's median, the
    pairs the change won and the number of pairs, `pair_rule`: whether the
    change won at least 9/10 of the pairs and its median is better than the
    parent's by more than q3 - q1, and `within`: whether the change's median
    is no worse than the parent's by more than `bound`.
    """
    rows = []
    for metric in metrics:
        lower = metric["better"] == "lower"
        parent, change, won = _sides(pairs, metric)
        q1, median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        gain = median - change_median if lower else change_median - median
        limit = median * (1 + metric["bound"] if lower else 1 - metric["bound"])
        rows.append({"name": metric["name"], "parent_median": median, "parent_q1": q1,
                     "parent_q3": q3, "change_median": change_median, "won": won,
                     "pairs": len(pairs),
                     "pair_rule": 10 * won >= 9 * len(pairs) and gain > q3 - q1,
                     "within": change_median <= limit if lower else change_median >= limit})
    return rows


def summarize_layers(pairs: Sequence[Tuple[Run, Run]], metrics: Sequence[Dict]) -> List[Dict]:
    """One row per per-layer metric (BENCHMARK.json's `per_layer` entries)
    that some run reports as non-zero: `parent` and `change`, each the
    (q1, median, q3) of that side, the pairs the change won and the number
    of pairs."""
    rows = []
    for metric in metrics:
        if not all(metric["name"] in run["metrics"] for pair in pairs for run in pair):
            continue
        parent, change, won = _sides(pairs, metric)
        if any(parent + change):
            rows.append({"name": metric["name"], "parent": quartiles(parent),
                         "change": quartiles(change), "won": won, "pairs": len(pairs)})
    return rows


def _relative(change: float, parent: float) -> float:
    return change / parent - 1 if parent else 0.0


def format_rows(rows: Sequence[Dict]) -> List[str]:
    """The rows of `summarize` as a table, one line per metric."""
    lines = ["metric           parent median [q1, q3]           change median (diff)"
             "     won  pair rule  within bound"]
    for r in rows:
        diff = _relative(r["change_median"], r["parent_median"])
        parent = f"{r['parent_median']:.6g} [{r['parent_q1']:.6g}, {r['parent_q3']:.6g}]"
        change = f"{r['change_median']:.6g} ({diff:+.1%})"
        rule = "met" if r["pair_rule"] else "not met"
        lines.append(f"{r['name']:<16} {parent:<32} {change:<24} {r['won']:>2}/{r['pairs']:<2}  "
                     f"{rule:<9}  " + ("yes" if r["within"] else "NO"))
    return lines


def format_layer_rows(rows: Sequence[Dict]) -> List[str]:
    """The rows of `summarize_layers` as a table, one line per metric."""
    lines = [f"{'per-layer metric':<44} {'parent median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} {'diff':>7}  won"]
    for r in rows:
        parent, change = ("{1:.6g} [{0:.6g}, {2:.6g}]".format(*r[side])
                          for side in ("parent", "change"))
        diff = _relative(r["change"][1], r["parent"][1])
        lines.append(f"{r['name']:<44} {parent:<32} {change:<32} {diff:>+7.1%}  "
                     f"{r['won']}/{r['pairs']}")
    return lines


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> Run:
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{tree}: seed {seed} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = [] if args.trace else bench["end_to_end"]

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds,
                               args.trace)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"{args.workload} seed {seed}, {order[0]} first", flush=True)
        for side in ("parent", "change"):
            values = " ".join(f"{m['name']} {value(runs[side], m['name']):.6g}"
                              for m in [FAILED_SHARE] + metrics)
            print(f"  {side:<6} {values}", flush=True)
    print("\n".join(format_rows(summarize(pairs, metrics + [FAILED_SHARE]))))
    if args.trace:
        print("\n".join(format_layer_rows(summarize_layers(pairs, bench["per_layer"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
