"""campaign-web: sharded web-services campaigns through ``run_sharded_campaign``.

Each operation is one 10,000-unit campaign (one shard at the default
shard size) at a seed derived from ``--seed``, run serially (``jobs=1``).
Column decode, materialization, the sa/pt/vs tools and scoring do nearly
all the work here.
"""

from __future__ import annotations

import gc
import random
import time

from common import BenchFailure, bootstrap
from layers import CAMPAIGN_LAYERS, LayerTracer

ECOSYSTEM = "web-services"
SCALE = 10_000
"""Units per campaign call: one shard at the default shard size."""
WARM_SCALE = 5_000
"""The warm-up campaign that fills the interning caches."""


def campaign_seed(seed: int, index: int) -> int:
    return 1_000_003 * (seed + 1) + index


def setup() -> float:
    """Imports, tool suites and interning caches; returns seconds taken."""
    started = time.perf_counter()
    bootstrap()
    from repro.bench.engine import run_sharded_campaign

    run_sharded_campaign(scale=WARM_SCALE, seed=7, ecosystem=ECOSYSTEM)
    return time.perf_counter() - started


def _campaign(seed: int):
    from repro.bench.engine import run_sharded_campaign

    gc.collect()
    started = time.perf_counter()
    run = run_sharded_campaign(scale=SCALE, seed=seed, ecosystem=ECOSYSTEM, jobs=1)
    return run, time.perf_counter() - started


def _cells(record) -> list[tuple[int, int, int, int]]:
    c = record.cells
    return list(zip(c.tp, c.fp, c.fn, c.tn))


def check(runs: list, seed: int) -> tuple[list[str], dict[str, int]]:
    """Every shard completes, cells agree with the decoded columns, and one
    sampled shard's cells agree with the benchmark's own recount."""
    from checks import check_cells_against_columns, check_recount, recount_cells
    from repro.tools.families import suite_for_ecosystem
    from repro.workload.sharded import plan_shards

    problems: list[str] = []
    counts = {"units": 0, "sites": 0, "flagged_sites": 0, "shards": 0}
    for campaign_index, (campaign_seed_value, run) in enumerate(runs):
        where = f"campaign {campaign_index} (seed {campaign_seed_value})"
        if not run.ok or run.totals is None:
            problems.append(f"{where}: shard statuses {run.manifest.status_counts()}")
            continue
        totals = run.totals
        if totals.n_units != SCALE:
            problems.append(f"{where}: n_units={totals.n_units}, scale {SCALE}")
        plan = plan_shards(scale=SCALE, seed=campaign_seed_value, ecosystem=ECOSYSTEM)
        sites = vulnerable = 0
        for record in run.manifest.records:
            columns = plan.columns(record.index)
            n_vulnerable = int(columns.site_vulnerable.sum())
            sites += columns.n_sites
            vulnerable += n_vulnerable
            problems += check_cells_against_columns(
                record.cells.tool_names, _cells(record), columns.n_sites,
                n_vulnerable, f"{where} shard {record.index}",
            )
        problems += check_cells_against_columns(
            totals.tool_names,
            [(int(cm.tp), int(cm.fp), int(cm.fn), int(cm.tn)) for cm in totals.confusions],
            sites, vulnerable, f"{where} totals",
        )
        counts["units"] += totals.n_units
        counts["sites"] += sites
        counts["shards"] += len(run.manifest.records)
        counts["flagged_sites"] += int(sum(cm.tp + cm.fp for cm in totals.confusions))

    if not runs:
        return ["no campaign ran"], counts
    rng = random.Random(seed)
    campaign_seed_value, run = runs[rng.randrange(len(runs))]
    if run.ok:
        record = run.manifest.records[rng.randrange(len(run.manifest.records))]
        plan = plan_shards(scale=SCALE, seed=campaign_seed_value, ecosystem=ECOSYSTEM)
        workload = plan.generate(record.index)
        tools = suite_for_ecosystem(ECOSYSTEM, seed=campaign_seed_value)
        recounts = [
            recount_cells(
                tool.analyze(workload).flagged_sites,
                workload.truth.sites,
                workload.truth.vulnerable,
            )
            for tool in tools
        ]
        problems += check_recount(
            [tool.name for tool in tools], _cells(record), recounts,
            f"sampled shard {record.index} of seed {campaign_seed_value}",
        )
    return problems, counts


def measure(seed: int, seconds: float, trace: bool) -> dict:
    """Run the timed window; return raw results.

    Traced, every call is paired with the same campaign under the layer
    wrappers, so the tracing overhead compares interleaved calls.
    """
    runs = []
    walls = []
    traced_walls = []
    tracer = LayerTracer() if trace else None
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        value = campaign_seed(seed, len(runs))
        if tracer is None:
            run, wall = _campaign(value)
        else:
            (run, wall), (traced, traced_wall) = tracer.paired(
                len(runs), lambda: _campaign(value)
            )
            traced_walls.append(traced_wall)
            if traced.totals != run.totals:
                raise BenchFailure(f"traced campaign {value} totals differ")
        runs.append((value, run))
        walls.append(wall)
    return {"walls": walls, "runs": runs, "scale": SCALE,
            "tracer": tracer, "traced_walls": traced_walls}


def layer_metrics(result: dict, counts: dict[str, int]) -> dict[str, float]:
    """Per-shard layer self times, overhead, coverage and tracing cost."""
    tracer: LayerTracer = result["tracer"]
    shards = counts["shards"]
    out = tracer.campaign_ms(shards)
    out.update(tracer.summary(CAMPAIGN_LAYERS, sum(result["walls"]), sum(result["traced_walls"])))
    out["bench.engine.shards.overhead_ms"] = (
        1000 * (out["trace.untraced_wall_s"] - out["trace.layers_s"]) / shards
    )
    return out
