"""Compare two sets of benchmark runs: ``python3 -m bench.compare A.jsonl B.jsonl``.

Each file holds the stamped records ``bench.run --out FILE`` appends,
one per run.  For every ``<workload>/<metric>`` pair both sets measured
this prints each set's median and quartiles, how much worse B's median
is than A's as a share of A's, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``within``     — B is not worse than A by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — either set's own spread (distance between its
  quartiles over its median) exceeds the bound, so the runs cannot tell.

Exits 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench.harness import ROOT

BENCHMARK = ROOT / "BENCHMARK.json"


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric)`` → values, from the untraced runs in *path*."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for metric, entry in record["metrics"].items():
                values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (one value: all three equal)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a_path: str, b_path: str, benchmark: dict) -> list[dict]:
    """One row per ``<workload>/<metric>`` pair present in both sets."""
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    rows = []
    for spec in benchmark["end_to_end"]:
        for workload in (w["name"] for w in benchmark["workloads"]):
            key = (workload, spec["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a_q1, a_med, a_q3 = quartiles(a_runs[key])
            b_q1, b_med, b_q3 = quartiles(b_runs[key])
            sign = 1.0 if spec["better"] == "lower" else -1.0
            gap = sign * (b_med - a_med) / a_med
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif gap > spec["bound"]:
                verdict = "worse"
            else:
                verdict = "within"
            rows.append(
                {
                    "pair": f"{workload}/{spec['name']}",
                    "unit": spec["unit"],
                    "a": (a_q1, a_med, a_q3, len(a_runs[key])),
                    "b": (b_q1, b_med, b_q3, len(b_runs[key])),
                    "gap": gap,
                    "spread": spread,
                    "bound": spec["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(args[0], args[1], json.loads(BENCHMARK.read_text()))
    if not rows:
        print("no <workload>/<metric> pair is present in both sets", file=sys.stderr)
        return 2
    print(f"{'pair':<28} {'unit':<5} {'A q1/median/q3 (n)':<38} "
          f"{'B q1/median/q3 (n)':<38} {'gap':>7} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        a = "{:.4g}/{:.4g}/{:.4g} ({})".format(*row["a"])
        b = "{:.4g}/{:.4g}/{:.4g} ({})".format(*row["b"])
        print(f"{row['pair']:<28} {row['unit']:<5} {a:<38} {b:<38} "
              f"{row['gap']:>+7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
