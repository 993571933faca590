"""Compare two sets of benchmark runs made on one box.

    python bench/compare.py A.json B.json
    python bench/compare.py runs-parent/ runs-change/ --claim cold_s@figures

``A`` is the baseline and ``B`` the change. Each is one ``bench/run.py
--out`` file or a directory of them (one file per run). With several runs
a side's observations are the per-run medians; with one run they are
that run's raw samples.

For every (end-to-end metric, workload) it prints both medians and
quartiles and a verdict:

* ``agree`` -- B's median is within the metric's bound of A's (or better);
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, so the medians cannot be told apart; unless every
  B observation is better, or worse, than every A observation.

It then prints the per-layer deltas of the traced runs beside the
end-to-end metrics each layer should move. ``--claim METRIC@WORKLOAD``
applies the rule for claiming a gain: at least 10 runs a side, paired
in file order (run them alternating), the change winning at least 9 in
10 pairs (ties count for neither), and the medians differing by more than
A's own quartile distance. Exit status 1 on any regression, more failed
operations in B, or a claim not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import EXTRA_METRICS, MANIFEST, MOVES, WORKLOADS  # noqa: E402


def load_runs(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"compare: no run files under {path}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _having(runs: List[dict], workload: str) -> List[dict]:
    """The workload's records, one per run that measured it."""
    return [r["workloads"][workload] for r in runs
            if workload in r["workloads"]]


def observations(runs: List[dict], workload: str, section: str,
                 metric: str) -> List[float]:
    found = [r[section][metric] for r in _having(runs, workload)
             if metric in r.get(section, {})]
    if len(found) == 1 and "samples" in found[0]:
        return list(found[0]["samples"])
    return [m["value"] for m in found]


def quartiles(values: Sequence[float]):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    med_a, q1_a, q3_a = quartiles(a)
    med_b, q1_b, q3_b = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = max((q3_a - q1_a) / med_a if med_a else 0.0,
                  (q3_b - q1_b) / med_b if med_b else 0.0)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved (every run)"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "regressed (every run)"
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"regressed ({worse:+.1%} > bound {bound:.0%})"
    return f"agree ({worse:+.1%} worse, bound {bound:.0%})"


def claim(a: Sequence[float], b: Sequence[float], better: str) -> str:
    """The gain rule over runs paired in order; '' when it holds."""
    pairs = list(zip(a, b))
    if len(pairs) < 10:
        return f"needs at least 10 paired runs, have {len(pairs)}"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    med_a, q1_a, q3_a = quartiles(a)
    gap = abs(statistics.median(b) - med_a)
    if wins < 0.9 * len(pairs):
        return f"change won {wins} of {len(pairs)} pairs, needs 9 in 10"
    if gap <= q3_a - q1_a:
        return (f"medians differ by {gap:.4g}, not more than A's quartile "
                f"distance {q3_a - q1_a:.4g}")
    return ""


def _fmt(values: Sequence[float]) -> str:
    med, q1, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline run file or directory")
    parser.add_argument("b", help="change run file or directory")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD",
                        help="apply the gain rule to this pairing")
    args = parser.parse_args(argv)

    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    metrics: Dict[str, dict] = {m["name"]: m for m in manifest["end_to_end"]}
    workloads = [w for w in WORKLOADS
                 if _having(runs_a, w) and _having(runs_b, w)]
    bad = False

    print(f"A: {args.a} ({len(runs_a)} runs)   B: {args.b} "
          f"({len(runs_b)} runs)")
    for workload in workloads:
        print(f"\n{workload} ({len(_having(runs_a, workload))} vs "
              f"{len(_having(runs_b, workload))} runs)")
        failed_a = sum(r["failed"] for r in _having(runs_a, workload))
        failed_b = sum(r["failed"] for r in _having(runs_b, workload))
        if failed_b > failed_a:
            bad = True
            print(f"  failed operations: A {failed_a}, B {failed_b} "
                  "-- regressed")
        rows = [("end_to_end", name, spec) for name, spec in metrics.items()]
        rows += [("extra", name, spec) for name, spec in EXTRA_METRICS.items()]
        for section, name, spec in rows:
            a = observations(runs_a, workload, section, name)
            b = observations(runs_b, workload, section, name)
            if not a or not b:
                continue
            result = verdict(a, b, spec["better"], spec["bound"])
            bad |= result.startswith("regressed")
            print(f"  {name:<14} A {_fmt(a):<38} B {_fmt(b):<38} {result}")

        layer_rows = []
        for m in manifest["per_layer"]:
            a = observations(runs_a, workload, "per_layer", m["name"])
            b = observations(runs_b, workload, "per_layer", m["name"])
            if a and b:
                med_a, med_b = statistics.median(a), statistics.median(b)
                delta = (f"{(med_b - med_a) / med_a:+.1%}" if med_a
                         else "n/a")
                moves = ", ".join(p for p in MOVES[m["name"]][0]
                                  if p.endswith("@" + workload))
                layer_rows.append(
                    f"    {m['name']:<26} {med_a:>12.4g} -> {med_b:<12.4g} "
                    f"{delta:>7}  {('moves ' + moves) if moves else ''}")
        if layer_rows:
            print("  per-layer (traced runs), A -> B:")
            print("\n".join(layer_rows))

    for text in args.claim:
        name, _, workload = text.partition("@")
        spec = metrics.get(name) or EXTRA_METRICS.get(name)
        if spec is None or workload not in workloads:
            print(f"\nclaim {text}: unknown metric or workload")
            bad = True
            continue
        section = "end_to_end" if name in metrics else "extra"
        a = [r[section][name]["value"] for r in _having(runs_a, workload)]
        b = [r[section][name]["value"] for r in _having(runs_b, workload)]
        reason = claim(a, b, spec["better"])
        print(f"\nclaim {text}: " + ("met" if not reason
                                      else f"not met: {reason}"))
        bad |= bool(reason)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
