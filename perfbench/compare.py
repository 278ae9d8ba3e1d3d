"""Compare two sets of benchmark runs, metric by metric, against the bounds.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) holding the captured
standard output of ``perfbench/run.py`` runs, one run per file.  For every
workload and end-to-end metric the command prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), their spread as a share
of the median, the change of the medians, and a verdict against the
metric's bound in ``BENCHMARK.json``:

- ``unresolved`` — a side's spread is wider than the bound, and the runs of
  the two sides overlap, so the data cannot tell a change from noise;
- ``regressed`` — the median got worse by more than the bound;
- ``improved`` — the median got better by more than the base's spread and
  the new side wins at least nine tenths of the run pairs (paired by seed);
- ``within bound`` — otherwise.

Per-layer metrics of traced runs are listed with medians only; they have no
bound.  The failed share of operations is compared exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")


def load_runs(path: Path) -> list[dict]:
    """Every run found under ``path``: its info line and result object."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        lines = [line for line in file.read_text(errors="replace").splitlines() if line.strip()]
        info = next(
            (json.loads(line.split(" ", 1)[1]) for line in lines
             if line.startswith("perfbench-run ")),
            None,
        )
        if info is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if set(result) == {"correct", "attempted", "failed", "metrics"}:
            runs.append({"info": info, "result": result, "file": str(file)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and the signed change of the medians (positive = worse)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    new_better = [sign * v for v in new]
    base_better = [sign * v for v in base]
    if spread > bound:
        if max(new_better) < min(base_better):
            return "improved", worse
        if min(new_better) > max(base_better):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if -worse > (b3 - b1) / bm and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "within bound", worse


def by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        if run["info"]["trace"] == trace:
            grouped[run["info"]["workload"]].append(run)
    for group in grouped.values():
        group.sort(key=lambda run: run["info"]["seed"])
    return grouped


def describe(label: str, runs: list[dict]) -> str:
    shas = sorted({r["info"]["provenance"]["git_sha"][:12] for r in runs})
    prov = runs[0]["info"]["provenance"] if runs else {}
    steal = [r["info"].get("steal_s", 0.0) for r in runs]
    stolen = sum(1 for s in steal if s > 1.0)
    return (
        f"{label}: {len(runs)} runs, git {','.join(shas)}, cpu_count "
        f"{prov.get('cpu_count')}, python {prov.get('python')}, numpy {prov.get('numpy')}; "
        f"host steal over 1 s in {stolen} runs (max {max(steal, default=0.0):.1f} s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    print(describe("base", base_runs))
    print(describe("new ", new_runs))
    exit_code = 0
    base_e2e, new_e2e = by_workload(base_runs, 0), by_workload(new_runs, 0)
    header = (
        f"{'workload':13s} {'metric':15s} {'unit':6s} "
        f"{'base median [q1, q3]':>34s} {'spread':>7s} "
        f"{'new median [q1, q3]':>34s} {'spread':>7s} {'change':>8s} {'bound':>6s}  verdict"
    )
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base_e2e) | set(new_e2e)):
        base, new = base_e2e.get(workload, []), new_e2e.get(workload, [])
        if not base or not new:
            print(f"{workload:13s} missing runs on one side")
            exit_code = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base]
            n = [r["result"]["metrics"][name]["value"] for r in new]
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            label, worse = verdict(b, n, metric["better"], metric["bound"])
            if label in ("regressed", "unresolved"):
                exit_code = 1
            print(
                f"{workload:13s} {name:15s} {metric['unit']:6s} "
                f"{bm:12.4f} [{b1:9.4f}, {b3:9.4f}] {(b3 - b1) / bm:7.1%} "
                f"{nm:12.4f} [{n1:9.4f}, {n3:9.4f}] {(n3 - n1) / nm:7.1%} "
                f"{worse:+8.1%} {metric['bound']:6.0%}  {label}"
            )
        shares = []
        for runs in (base, new):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            shares.append((failed, attempted))
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        incorrect = sum(not r["result"]["correct"] for r in base + new)
        print(
            f"{workload:13s} failed share base {shares[0][0]}/{shares[0][1]}, "
            f"new {shares[1][0]}/{shares[1][1]}"
            f"{'' if same else '  DIFFERS'}; incorrect runs: {incorrect}"
        )
        if not same or incorrect:
            exit_code = 1
    base_layers, new_layers = by_workload(base_runs, 1), by_workload(new_runs, 1)
    for workload in sorted(set(base_layers) & set(new_layers)):
        print(f"\nper-layer medians, {workload} (no bound)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base_layers[workload]]
            n = [r["result"]["metrics"][name]["value"] for r in new_layers[workload]]
            print(f"  {name:42s} {metric['unit']:6s} {statistics.median(b):14.4f} {statistics.median(n):14.4f}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
