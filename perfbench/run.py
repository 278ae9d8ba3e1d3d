"""Run one workload of the repo benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-web --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs the same window, then a replay under the layer wrappers
of ``layers.py``, and prints the per-layer metrics instead.  The line
before the last records the run's provenance, counts and any problem found;
the last line is the result object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

See ``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True

import w_campaign  # noqa: E402
import w_serve  # noqa: E402
import w_suite  # noqa: E402
from common import (  # noqa: E402
    SCRATCH,
    WORKLOADS,
    BenchFailure,
    cpu_steal_s,
    median,
    peak_rss_mb_self,
    provenance,
    run_setup_probes,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "request_p50_ms": "ms",
}

#: Every per-layer metric and its unit; a layer a workload does not reach
#: reads 0 there (the "should not move" column of the layer map).
PER_LAYER_UNITS = {
    **{
        f"{name}_ms": "ms"
        for name in (
            "workload.columnar.decode",
            "workload.columnar.materialize",
            "tools.taint_analyzer.analyze",
            "tools.pattern_scanner.analyze",
            "tools.simulated.analyze",
            "tools.dynamic_injector.analyze",
            "tools.ensemble.analyze",
            "tools.sca_matcher.analyze",
            "bench.campaign.score",
            "bench.streaming.fold",
            "bench.engine.shards.overhead",
        )
    },
    **{
        f"{name}_s": "s"
        for name in (
            "experiments.R16",
            "experiments.R9",
            "experiments.R2",
            "experiments.R10",
            "experiments.rest",
            "bench.engine.scheduler.overhead",
            "experts.elicitation.validate_scenario",
            "experts.expert.judge",
            "mcda.ahp.compose",
            "scenarios.adequacy.rank_metrics",
            "stats.bootstrap.bootstrap_metric",
            "properties.checks.assess",
        )
    },
    "experts.expert.judge_calls": "count",
    "serve.app.status_p50_ms": "ms",
    "serve.app.result_p50_ms": "ms",
    "serve.app.list_p50_ms": "ms",
    "serve.http.read_p50_ms": "ms",
    "serve.http.read_p99_ms": "ms",
    "serve.http.submit_p50_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.result_reads": "count",
    "serve.queue.wait_p50_ms": "ms",
    "serve.job.run_p50_ms": "ms",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.shard_lookups": "count",
    "work.units": "count",
    "work.sites": "count",
    "work.flagged_sites": "count",
    "work.shards": "count",
    "work.jobs": "count",
    "work.requests": "count",
    "trace.layers_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

SETUP_PROBES = {"campaign-web": 2, "suite-cold": 6}
"""Extra cold set-ups in fresh interpreters.  suite-cold takes more: each
costs under a second, and its median of three spread by a third."""


def run_campaign_web(seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = [w_campaign.setup()] + run_setup_probes(
        "campaign-web", SETUP_PROBES["campaign-web"]
    )
    result = w_campaign.measure(seed, seconds, trace)
    problems, counts = w_campaign.check(result["runs"], seed)
    walls = result["walls"]
    metrics = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb_self(),
        "ops_per_s": median([result["scale"] / wall for wall in walls]),
        "request_p50_ms": 1000 * median(walls),
    }
    layers = w_campaign.layer_metrics(result, counts) if trace else {}
    return {
        "attempted": len(walls),
        "failed": 0,
        "problems": problems,
        "counts": counts,
        "metrics": metrics,
        "layers": layers,
        "setup_samples": setup_samples,
        "samples": {"campaign_s": walls},
        "tracer": result.get("tracer"),
    }


def run_suite_cold(seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = [w_suite.setup()] + run_setup_probes(
        "suite-cold", SETUP_PROBES["suite-cold"]
    )
    result = w_suite.measure(seed, seconds, trace)
    problems: list[str] = []
    failed_ids: list[str] = []
    attempted = 0
    for run, _ in result["passes"]:
        pass_problems, pass_failed = w_suite.check(run)
        problems += pass_problems
        failed_ids += pass_failed
        attempted += len(run.manifest.records)
    if trace:
        traced_problems, _ = w_suite.check(result["traced"][0])
        problems += [f"traced pass: {p}" for p in traced_problems]
    walls = [wall for _, wall in result["passes"]]
    per_pass = attempted // len(walls)
    metrics = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb_self(),
        "ops_per_s": median([per_pass / wall for wall in walls]),
        "request_p50_ms": 1000 * median(walls),
    }
    return {
        "attempted": attempted,
        "failed": len(failed_ids),
        "failed_ops": failed_ids,
        "problems": problems,
        "counts": {"experiments": attempted, "passes": len(walls)},
        "metrics": metrics,
        "layers": w_suite.layer_metrics(result) if trace else {},
        "setup_samples": setup_samples,
        "samples": {"suite_s": walls},
        "tracer": result.get("tracer"),
    }


def run_serve_mixed(seed: int, seconds: float, trace: bool) -> dict:
    servers: list[w_serve.Server] = []
    try:
        prepared = w_serve.setup(seed, servers)
        result = w_serve.measure(seed, seconds, trace, prepared)
    finally:
        for server in servers:
            server.stop()
    problems, counts = w_serve.check(result)
    metrics = {"setup_s": median(prepared["setup_samples"])}
    metrics.update(w_serve.end_to_end(result, counts))
    layers = w_serve.layer_metrics(result, counts) if trace else {}
    return {
        "attempted": len(result["jobs"]) + len(result["reads"]),
        "failed": result["read_failed"]
        + sum(1 for job_id, *_ in result["jobs"]
              if result["records"].get(job_id, {}).get("state") != "completed"),
        "problems": problems,
        "counts": dict(counts, server_tracebacks=result["tracebacks"]),
        "metrics": metrics,
        "layers": layers,
        "setup_samples": prepared["setup_samples"],
        "samples": {"archive_s": prepared["archive_s"]},
        "tracer": result.get("tracer"),
    }


RUNNERS = {
    "campaign-web": run_campaign_web,
    "suite-cold": run_suite_cold,
    "serve-mixed": run_serve_mixed,
}
SETUPS = {"campaign-web": w_campaign.setup, "suite-cold": w_suite.setup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(SETUPS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(f"{SETUPS[args.setup_probe]():.6f}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        started = time.perf_counter()
        steal_started = cpu_steal_s()
        out = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    except BenchFailure as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH / f"serve-{os.getpid()}", ignore_errors=True)
    tracer = out.pop("tracer")
    if tracer is not None:
        tracer.write(SCRATCH / f"spans-{args.workload}-{args.seed}.tsv")
    if args.trace:
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(out["layers"])
        values.update({f"work.{k}": v for k, v in out["counts"].items()
                       if f"work.{k}" in PER_LAYER_UNITS})
        units = PER_LAYER_UNITS
    else:
        values = out["metrics"]
        units = END_TO_END_UNITS
    unknown = set(values) - set(units)
    if unknown:
        print(f"perfbench: unlisted metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_ops": out.get("failed_ops", []),
        "problems": out["problems"][:20],
        "counts": out["counts"],
        "setup_samples": out["setup_samples"],
        "samples": out["samples"],
        "run_wall_s": time.perf_counter() - started,
        "steal_s": cpu_steal_s() - steal_started,
    }
    print("perfbench-run " + json.dumps(info, sort_keys=True))
    for problem in out["problems"][:20]:
        print(f"perfbench: problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
