"""suite-cold: every experiment through ``run_experiments``, fresh store.

Each pass is what ``repro run all`` does: the full R1..R20 suite at the
default seed, serially (``jobs=1``), with a new artifact store, so every
shared artifact is computed again.  Each experiment is one operation, and a
run makes whole passes only: the first always, further ones while they fit
in the window.  The
suite runs at the seed the committed ``results/<id>.txt`` were rendered
at, so ``--seed`` does not change its inputs.
"""

from __future__ import annotations

import gc
import time

from common import RESULTS, bootstrap, median
from layers import ALL_LAYERS, SUITE_LAYERS, LayerTracer

#: Experiments reported as layers of their own; the rest are summed.
NAMED_EXPERIMENTS = ("R16", "R9", "R2", "R10")
WARM_SCALE = 2_000


def setup() -> float:
    """Imports, the experiment registry and interning caches."""
    started = time.perf_counter()
    bootstrap()
    import repro.bench.experiments  # noqa: F401  (registers every spec)
    from repro.bench.engine import experiment_ids, run_sharded_campaign

    experiment_ids()
    run_sharded_campaign(scale=WARM_SCALE, seed=7)
    return time.perf_counter() - started


def _pass():
    from repro.bench.engine import experiment_ids, run_experiments
    from repro.bench.experiments.base import DEFAULT_SEED

    gc.collect()
    started = time.perf_counter()
    run = run_experiments(list(experiment_ids()), seed=DEFAULT_SEED, jobs=1)
    return run, time.perf_counter() - started


def check(run) -> tuple[list[str], list[str]]:
    """Return ``(problems, failed_ids)`` for one pass.

    Reports in :data:`~checks.KNOWN_REPORT_DRIFT` that differ from the
    committed files are failed operations, not problems; any other
    difference, or a wrong R4 metric value, is a problem.
    """
    from checks import KNOWN_REPORT_DRIFT, check_metric_values, check_report
    from repro.bench.engine import experiment_ids

    problems: list[str] = []
    failed: list[str] = []
    for key in experiment_ids():
        record = run.manifest.record_for(key)
        result = run.results.get(key)
        if not record.completed or result is None:
            failed.append(key)
            problems.append(f"{key}: {record.status}")
            continue
        path = RESULTS / f"{key.lower()}.txt"
        committed = path.read_text(encoding="utf-8") if path.is_file() else None
        mismatch = check_report(result.render() + "\n", committed, key)
        if mismatch:
            failed.append(key)
            if key not in KNOWN_REPORT_DRIFT:
                problems += mismatch
    r4 = run.results.get("R4")
    if r4 is not None:
        campaign = r4.data["campaign"]
        confusions = {
            name: (cm.tp, cm.fp, cm.fn, cm.tn)
            for name in campaign.tool_names
            for cm in [campaign.confusion_for(name)]
        }
        problems += check_metric_values(r4.data["values"], confusions)
    return problems, failed


def measure(seed: int, seconds: float, trace: bool) -> dict:
    passes = []
    started = time.perf_counter()
    # A pass starts only if, at the last pass's pace, it ends in the window.
    while not passes or time.perf_counter() - started + passes[-1][1] <= seconds:
        passes.append(_pass())
    result = {"passes": passes, "tracer": None}
    if trace:
        tracer = LayerTracer().install()
        try:
            traced, wall = _pass()
        finally:
            tracer.uninstall()
        result["tracer"] = tracer
        result["traced"] = (traced, wall)
    return result


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-pass experiment times, inner stages, and tracing bookkeeping."""
    tracer: LayerTracer = result["tracer"]
    run, untraced = result["passes"][0]
    walls = {r.experiment_id: r.wall_seconds for r in run.manifest.records}
    out = {f"experiments.{key}_s": walls[key] for key in NAMED_EXPERIMENTS}
    out["experiments.rest_s"] = sum(
        wall for key, wall in walls.items() if key not in NAMED_EXPERIMENTS
    )
    out["bench.engine.scheduler.overhead_s"] = untraced - sum(walls.values())
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    out.update(tracer.campaign_ms(calls["workload.columnar.decode"]))
    for name in SUITE_LAYERS:
        out[f"{name}_s"] = self_s[name]
    out["experts.expert.judge_calls"] = calls["experts.expert.judge"]
    out.update(tracer.summary(ALL_LAYERS, untraced, result["traced"][1]))
    return out


def pass_seconds(result: dict) -> float:
    return median([wall for _, wall in result["passes"]])
