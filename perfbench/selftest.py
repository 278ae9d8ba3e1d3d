"""Self-test of the benchmark's correctness checks, at the smallest sizes.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject a deliberately
wrong copy of it: one altered confusion cell, one altered report line, one
wrong metric value, one altered served total, and one tenant served past
the fairness bound.  Exits non-zero if any check fails either way.
"""

from __future__ import annotations

import copy
import sys

sys.dont_write_bytecode = True

from checks import (  # noqa: E402
    check_backlogged,
    check_cells_against_columns,
    check_fairness,
    check_metric_values,
    check_recount,
    check_report,
    check_totals,
    recount_cells,
)
from common import RESULTS, BenchFailure, bootstrap  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_reject: bool) -> None:
    rejected = bool(problems)
    ok = rejected == should_reject
    verdict = "rejects" if rejected else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def campaign_checks() -> None:
    from repro.bench.engine import run_sharded_campaign
    from repro.tools.families import suite_for_ecosystem
    from repro.workload.sharded import plan_shards

    scale, seed = 40, 3
    run = run_sharded_campaign(scale=scale, seed=seed)
    record = run.manifest.records[0]
    cells = list(zip(record.cells.tp, record.cells.fp, record.cells.fn, record.cells.tn))
    names = record.cells.tool_names
    plan = plan_shards(scale=scale, seed=seed)
    columns = plan.columns(0)
    n_vulnerable = int(columns.site_vulnerable.sum())
    workload = plan.generate(0)
    recounts = [
        recount_cells(tool.analyze(workload).flagged_sites, workload.truth.sites,
                      workload.truth.vulnerable)
        for tool in suite_for_ecosystem("web-services", seed=seed)
    ]

    expect("columns check, program cells",
           check_cells_against_columns(names, cells, columns.n_sites, n_vulnerable, "shard"),
           False)
    expect("recount check, program cells", check_recount(names, cells, recounts, "shard"), False)

    bumped = copy.deepcopy(cells)
    tp, fp, fn, tn = bumped[0]
    bumped[0] = (tp + 1, fp, fn, tn)
    expect("columns check, one cell altered (tp+1)",
           check_cells_against_columns(names, bumped, columns.n_sites, n_vulnerable, "shard"),
           True)
    moved = copy.deepcopy(cells)
    tp, fp, fn, tn = moved[0]
    moved[0] = (tp + 1, fp, fn - 1, tn) if fn else (tp - 1, fp, fn + 1, tn)
    expect("recount check, one cell moved (sums kept)",
           check_recount(names, moved, recounts, "shard"), True)


def suite_checks() -> None:
    from repro.bench.engine import run_experiments

    run = run_experiments(["R1", "R3", "R4"], jobs=1)
    rendered = run.results["R1"].render() + "\n"
    committed = (RESULTS / "r1.txt").read_text(encoding="utf-8")
    expect("report check, R1 as rendered", check_report(rendered, committed, "R1"), False)
    lines = rendered.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if any(c.isdigit() for c in line))
    lines[index] = lines[index].replace(next(c for c in lines[index] if c.isdigit()), "#", 1)
    expect("report check, one report line altered",
           check_report("".join(lines), committed, "R1"), True)

    r4 = run.results["R4"]
    campaign = r4.data["campaign"]
    confusions = {
        name: (cm.tp, cm.fp, cm.fn, cm.tn)
        for name in campaign.tool_names
        for cm in [campaign.confusion_for(name)]
    }
    values = r4.data["values"]
    expect("metric check, R4 values", check_metric_values(values, confusions), False)
    wrong = copy.deepcopy(values)
    tool = campaign.tool_names[0]
    wrong["MCC"][tool] += 1e-6
    expect("metric check, one MCC value altered", check_metric_values(wrong, confusions), True)


def serve_checks() -> None:
    from repro.bench.engine import run_sharded_campaign
    from repro.persist import streaming_totals_to_dict

    def totals() -> dict:
        run = run_sharded_campaign(scale=30, seed=5, ecosystem="npm-deps")
        return streaming_totals_to_dict(run.totals)

    served, reference = totals(), totals()
    expect("totals check, same spec", check_totals(served, reference, "job"), False)
    served["cells"][0]["tn"] += 1
    expect("totals check, one served cell altered", check_totals(served, reference, "job"), True)

    quantum, largest = 400, 300
    fair = {"a": 4000, "b": 4000 + 2 * quantum + largest, "c": 4100}
    expect("fairness check, gap at the bound", check_fairness(fair, {}, quantum, largest), False)
    unfair = dict(fair, b=4000 + 2 * quantum + largest + 1)
    expect("fairness check, one tenant past the bound",
           check_fairness(unfair, {}, quantum, largest), True)
    expect("fairness check, weights divide served units",
           check_fairness({"a": 2000, "b": 4000}, {"b": 2.0}, quantum, largest), False)
    lanes = {"a": [(0.0, 4.0), (3.0, 11.0)], "b": [(0.0, 12.0)]}
    expect("backlog check, every lane queued", check_backlogged(lanes, 1.0, 10.0), False)
    expect("backlog check, one lane empty for a moment",
           check_backlogged(dict(lanes, a=[(0.0, 4.0), (4.5, 11.0)]), 1.0, 10.0), True)


def benchmark_file_check() -> None:
    """BENCHMARK.json names exactly the metrics ``run.py`` prints."""
    import json

    from common import ROOT
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(units.items()))[:4]}")
    expect("BENCHMARK.json matches the printed metrics", problems, False)


def main() -> int:
    try:
        bootstrap()
    except BenchFailure as error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    campaign_checks()
    suite_checks()
    serve_checks()
    benchmark_file_check()
    print(f"{'FAILED: ' + ', '.join(FAILURES) if FAILURES else 'all checks behave'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
