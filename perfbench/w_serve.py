"""serve-mixed: a ``repro serve`` subprocess under two keep-alive connections.

One connection (the writer) holds a fixed backlog of small one-shard
campaigns queued across four tenants; the other (the reader) sends
job-status, result and tenant-listing reads at a fixed rate against a fixed
archive of finished jobs.  Tenant skew and the status/result mix follow the
repo's own serving load model (``repro.serve.trace`` and
``benchmarks/bench_serve.py``); the other traffic figures are synthetic
choices, each named and argued below.  Jobs rotate over the android,
npm-deps and iac ecosystems, so the ensemble, sca and dast tool families do
measured work; every third job repeats the spec of an archived job and hits
the service's artifact cache.  Job completion is measured as throughput
over the backlogged window, from the job records' own timestamps.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    ROOT,
    BenchFailure,
    bootstrap,
    child_env,
    median,
    peak_rss_mb_of,
    ratio,
    scratch_dir,
    tail_percentile,
)
from layers import CAMPAIGN_LAYERS, LayerTracer

ROTATION = ("android", "npm-deps", "iac")
JOB_SCALES = (100, 200, 300)
"""Units per backlog job (one shard each), cycled with the rotation.

Synthetic: mixed sizes make the deficit round-robin queue carry deficits
across turns (with one size it degenerates to plain round robin), and the
largest stays below :data:`QUANTUM`, so every turn dispatches a job."""
REPEAT_EVERY = 3
"""Every third backlog job repeats the spec of an archive job.

Synthetic: a fixed share makes the artifact-cache hit rate a property of
the inputs rather than of dispatch timing."""
SKEW = 6
"""The heavy tenant's weight of load against each other tenant's: the
repo's load model submits for its abusive tenant at 6x the normal rate
(``ABUSIVE_RATE / NORMAL_RATE`` in ``repro.serve.trace``)."""
TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")
"""The load model's tenant names; ``tenant-0`` is its abusive tenant."""
NORMAL_DEPTH = 4
"""Jobs each normal tenant keeps queued.

Synthetic: one DRR turn can take up to four 100-unit jobs (one quantum)
from a lane before the writer, polling every 5 ms, tops it up, so four
keeps a lane from running dry; no lane did in the reference runs."""
BACKLOG = {tenant: NORMAL_DEPTH * (SKEW if tenant == TENANTS[0] else 1) for tenant in TENANTS}
"""Queue depth per tenant.  The backlog stands, so the model's rate skew
becomes a depth skew: 24 queued jobs for ``tenant-0``, 4 for each other."""
QUANTUM = 400
"""``--quantum``: deficit round-robin top-up per turn, in units.  Two mean
jobs (200 units), the quantum-to-job ratio of ``bench_serve`` (120 for
60-unit jobs)."""
RESULT_CACHE = 16
"""``--result-cache``: hot results held in memory (the archive is larger)."""
ARCHIVE_JOBS = 48
"""Synthetic: three times the result cache, so result reads both hit and
miss; the archive is split evenly, 12 jobs per tenant."""
ARCHIVE_SCALE = 100
READ_RATE = 100
"""Reads per second the reader connection sends (an open loop).

Chosen for steadiness, not taken from traffic: with a closed-loop reader
the jobs completed in one window varied 251-446 across four runs of one
seed."""
LIST_EVERY = 10
"""Every tenth read is a tenant listing.  Synthetic: the load model has no
listing reads; one in ten keeps the endpoint measured (about 250 samples
a run) without letting it set the read median."""
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(_CPUS[-1:])
"""The server runs on one CPU and the benchmark's threads on the others.

Unbound, the read p50 was bimodal on the same code: 5.6 ms in one set of
ten runs, 16.9 ms in the next, about one 5 ms interpreter switch interval
per read against three.  That fits the job thread, on the other CPU,
taking the interpreter lock back during each of the request loop's short
socket calls; on one CPU it cannot run while the loop holds the CPU."""
CLIENT_CPUS = set(_CPUS[:-1]) or set(_CPUS)
SERVER_STARTS = 3
"""Timed server starts per run; ``setup_s`` is their median."""
WRITER_PAUSE_S = 0.005
"""Writer think time when every tenant's backlog is full."""


def backlog_spec(seed: int, n: int) -> dict:
    """The spec of the ``n``-th backlog job: a pure function of the seed.

    Every :data:`REPEAT_EVERY`-th job repeats an archive job's spec, whose
    shard cells the service cached while set-up built the archive, so the
    share of artifact-cache hits does not depend on dispatch timing.
    """
    if n % REPEAT_EVERY == REPEAT_EVERY - 1:
        return archive_spec(seed, random.Random(seed * 1_000_003 + n).randrange(ARCHIVE_JOBS))
    k = n - n // REPEAT_EVERY
    return {
        "scale": JOB_SCALES[(k // len(ROTATION)) % len(JOB_SCALES)],
        "seed": 100_000 * (seed + 1) + k,
        "ecosystem": ROTATION[k % len(ROTATION)],
    }


def archive_spec(seed: int, a: int) -> dict:
    return {
        "scale": ARCHIVE_SCALE,
        "seed": 50_000_000 + 1_000 * seed + a,
        "ecosystem": ROTATION[a % len(ROTATION)],
    }


def archive_tenant(a: int) -> str:
    return TENANTS[a % len(TENANTS)]


def read_plan(seed: int, n: int, archive: list) -> list[tuple[str, str]]:
    """The first ``n`` reads as ``(kind, path)``: a pure function of the seed.

    Each read belongs to one arrival of the repo's Poisson load model
    (``build_trace``: four tenants, ``tenant-0`` at 6x), so two thirds of
    the reads go to ``tenant-0``'s twelve archive jobs, which fit the result
    cache.  As in ``bench_serve``, the arrival's job is
    ``ids[index % len(ids)]`` among its tenant's jobs, and every third
    arrival reads the result, the rest the job status; every
    :data:`LIST_EVERY`-th read lists the tenant's jobs instead.
    """
    from repro.serve.trace import ABUSIVE_RATE, NORMAL_RATE, build_trace

    total_rate = ABUSIVE_RATE + NORMAL_RATE * (len(TENANTS) - 1)
    events = build_trace(
        n_tenants=len(TENANTS), duration=1.2 * n / total_rate + 100,
        seed=seed, abusive=TENANTS[0],
    ).events
    if len(events) < n:
        raise BenchFailure(f"load trace has {len(events)} arrivals, need {n}")
    ids: dict[str, list[str]] = {tenant: [] for tenant in TENANTS}
    for a, (job_id, _) in enumerate(archive):
        ids[archive_tenant(a)].append(job_id)
    plan = []
    for event in events[:n]:
        if event.index % LIST_EVERY == LIST_EVERY - 1:
            plan.append(("list", f"/v1/jobs?tenant={event.tenant}"))
            continue
        tenant_ids = ids[event.tenant]
        job_id = tenant_ids[event.index % len(tenant_ids)]
        if event.index % 3 == 0:
            plan.append(("result", f"/v1/jobs/{job_id}/result"))
        else:
            plan.append(("status", f"/v1/jobs/{job_id}"))
    return plan


def spec_key(spec: dict) -> tuple:
    return (spec["ecosystem"], spec["scale"], spec["seed"])


class Client:
    """One keep-alive HTTP/1.1 connection with per-request timing."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, data, _ = self.request(method, path, body)
        if status >= 300:
            raise BenchFailure(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port.

    ``started`` is the caller's list of every server it started; the
    server appends itself before anything can fail, so the caller can stop
    them all whatever happens.
    """

    def __init__(self, state_dir: Path, started: list["Server"]) -> None:
        self.state_dir = state_dir
        self.stderr_path = state_dir.parent / f"{state_dir.name}.stderr"
        self._stderr = open(self.stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
             "--port", "0", "--quantum", str(QUANTUM),
             "--result-cache", str(RESULT_CACHE)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        started.append(self)
        pin(self.proc.pid, SERVER_CPUS)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise BenchFailure(f"server did not start: {line!r}")
        pin(self.proc.pid, SERVER_CPUS)  # any thread started before the first call
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (connections must already be closed), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()

    def tracebacks(self) -> int:
        return self.stderr_path.read_text(errors="replace").count("Traceback")


def pin(pid: int, cpus: set[int]) -> None:
    """Bind every thread of ``pid`` to ``cpus``; threads it starts later
    inherit the binding."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass


def wait_idle(client: Client, timeout: float = 120.0) -> None:
    """Poll until nothing is queued or running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = client.json("GET", "/v1/queue")["states"]
        if states["queued"] == 0 and states["running"] == 0:
            return
        time.sleep(0.02)
    raise BenchFailure("service did not drain")


def _warm_in_process() -> None:
    """Fill this process's caches so reference runs are timed warm."""
    from repro.bench.engine import run_sharded_campaign

    for ecosystem in ROTATION:
        run_sharded_campaign(scale=ARCHIVE_SCALE, seed=3, ecosystem=ecosystem)


def _start_timed(state_dir: Path, warm_seed: int, servers: list[Server]) -> tuple[Server, float]:
    """One timed server start: spawn, bind, recover, and warm one job per
    ecosystem (the fresh interpreter's interning caches fill here)."""
    started = time.perf_counter()
    server = Server(state_dir, servers)
    client = Client(server.port)
    try:
        for index, ecosystem in enumerate(ROTATION):
            client.json("POST", "/v1/campaigns", {
                "scale": ARCHIVE_SCALE, "seed": warm_seed + index,
                "ecosystem": ecosystem, "tenant": "warmup",
            })
        wait_idle(client)
    finally:
        client.close()
    return server, time.perf_counter() - started


def setup(seed: int, servers: list[Server]) -> dict:
    """Build the archive, then time :data:`SERVER_STARTS` server starts.

    The last start's server stays up for the measured window.  Every
    server started is appended to ``servers``; the caller stops them.
    """
    bootstrap()
    os.sched_setaffinity(0, CLIENT_CPUS)
    state = scratch_dir("serve") / "state"
    prepared = time.perf_counter()
    server = Server(state, servers)
    client = Client(server.port)
    archive = []
    try:
        for a in range(ARCHIVE_JOBS):
            spec = archive_spec(seed, a)
            body = dict(spec, tenant=archive_tenant(a))
            archive.append((client.json("POST", "/v1/campaigns", body)["job"]["job_id"], spec))
        wait_idle(client)
    finally:
        client.close()
        server.stop()
    _warm_in_process()
    archive_s = time.perf_counter() - prepared
    samples = []
    for start in range(SERVER_STARTS):
        server, seconds = _start_timed(state, 70_000_000 + 1_000 * seed + 10 * start, servers)
        samples.append(seconds)
        if start < SERVER_STARTS - 1:
            server.stop()
    return {"server": server, "archive": archive, "setup_samples": samples,
            "archive_s": archive_s}


def _writer(port: int, seed: int, stop: threading.Event, window: dict, out: dict) -> None:
    client = Client(port)
    submits: list[tuple[float, float]] = []
    jobs: list[tuple[str, int, str, dict]] = []
    n = 0
    try:
        while not stop.is_set():
            snapshot = client.json("GET", "/v1/queue")["tenants"]
            submitted = False
            for tenant, depth in BACKLOG.items():
                pending = snapshot.get(tenant, {}).get("pending_jobs", 0)
                for _ in range(depth - pending):
                    spec = backlog_spec(seed, n)
                    status, data, seconds = client.request(
                        "POST", "/v1/campaigns", dict(spec, tenant=tenant)
                    )
                    if status != 202:
                        raise BenchFailure(f"submit -> {status}: {data[:200]!r}")
                    submits.append((time.time(), seconds))
                    jobs.append((json.loads(data)["job"]["job_id"], n, tenant, spec))
                    n += 1
                    submitted = True
            if "start" not in window:
                window["start"] = time.time()
                window["ready"].set()
            if not submitted:
                stop.wait(WRITER_PAUSE_S)
    except Exception as error:  # surfaced by the main thread
        out["error"] = error
        window["ready"].set()
    finally:
        client.close()
        out["submits"] = submits
        out["jobs"] = jobs


def _reader(port: int, plan: list, stop: threading.Event, out: dict) -> None:
    """Reads at a fixed rate; each is timed from when it was due, so a
    stalled read also charges the reads queued behind it."""
    client = Client(port)
    reads: list[tuple[str, float]] = []
    failed = 0
    interval = 1.0 / READ_RATE
    due = time.perf_counter()
    try:
        for kind, path in plan:
            if stop.is_set():
                break
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            status, data, _ = client.request("GET", path)
            if status != 200 or not data:
                failed += 1
            reads.append((kind, time.perf_counter() - due))
            due += interval
        else:
            raise BenchFailure(f"read plan of {len(plan)} reads ran out")
    except Exception as error:  # surfaced by the main thread
        out["error"] = error
    finally:
        client.close()
        out["reads"] = reads
        out["failed"] = failed


def _counter(stats: dict, name: str) -> int:
    return int(stats.get("counters", {}).get(name, 0))


def measure(seed: int, seconds: float, trace: bool, prepared: dict) -> dict:
    """The backlogged window, drain, and every check's raw material.

    Afterwards every distinct job spec runs again in process as the
    reference result; traced, each reference run is paired with the same
    run under the layer wrappers.
    """
    from repro.persist import streaming_totals_to_dict

    server: Server = prepared["server"]
    stop = threading.Event()
    window: dict = {"ready": threading.Event()}
    writer_out: dict = {}
    reader_out: dict = {}
    control = Client(server.port)
    try:
        stats_before = control.json("GET", "/v1/stats")
        control.close()  # only the writer and the reader connect in the window
        writer = threading.Thread(
            target=_writer, args=(server.port, seed, stop, window, writer_out)
        )
        plan = read_plan(seed, int(READ_RATE * (seconds + 10)), prepared["archive"])
        reader = threading.Thread(
            target=_reader, args=(server.port, plan, stop, reader_out)
        )
        writer.start()
        try:
            window["ready"].wait()
            reader.start()
            time.sleep(max(0.0, window.get("start", time.time()) + seconds - time.time()))
            window["end"] = time.time()
        finally:
            stop.set()
            writer.join()
            if reader.is_alive():
                reader.join()
        for out in (writer_out, reader_out):
            if "error" in out:
                raise BenchFailure(f"client thread failed: {out['error']!r}")
        control = Client(server.port)
        wait_idle(control)
        stats_after = control.json("GET", "/v1/stats")
        records = {r["job_id"]: r for r in control.json("GET", "/v1/jobs")["jobs"]}
        served = {}
        for job_id, _, _, _ in writer_out["jobs"]:
            served[job_id] = control.json("GET", f"/v1/jobs/{job_id}/result")
        for job_id, _ in prepared["archive"]:
            served[job_id] = control.json("GET", f"/v1/jobs/{job_id}/result")
        rss_mb = peak_rss_mb_of(server.proc.pid)
    finally:
        control.close()
        server.stop()

    references: dict[tuple, dict] = {}
    replay_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = LayerTracer() if trace else None
    specs = [spec for _, spec in prepared["archive"]] + [
        spec for _, _, _, spec in writer_out["jobs"]
    ]
    for spec in specs:
        key = spec_key(spec)
        if key in references:
            continue
        if tracer is None:
            run, wall = _reference(spec)
        else:
            (run, wall), (traced, traced_wall) = tracer.paired(
                len(replay_walls), lambda: _reference(spec)
            )
            traced_walls.append(traced_wall)
            if traced.totals != run.totals:
                raise BenchFailure(f"traced replay of {spec} differs")
        replay_walls.append(wall)
        references[key] = streaming_totals_to_dict(run.totals)
    return {
        "window": (window["start"], window["end"]),
        "submits": writer_out["submits"],
        "jobs": writer_out["jobs"],
        "reads": reader_out["reads"],
        "read_failed": reader_out["failed"],
        "records": records,
        "served": served,
        "references": references,
        "replay_walls": replay_walls,
        "traced_walls": traced_walls,
        "tracer": tracer,
        "stats": (stats_before, stats_after),
        "rss_mb": rss_mb,
        "tracebacks": server.tracebacks(),
        "archive": prepared["archive"],
    }


def _reference(spec: dict):
    """The same campaign in process, serially, as the reference result."""
    from repro.bench.engine import run_sharded_campaign

    started = time.perf_counter()
    run = run_sharded_campaign(
        scale=spec["scale"], seed=spec["seed"], ecosystem=spec["ecosystem"], jobs=1
    )
    return run, time.perf_counter() - started


def check(result: dict) -> tuple[list[str], dict]:
    """Every job completed with totals equal to the in-process run, and the
    backlogged window's service stayed within the fairness bound."""
    from checks import check_backlogged, check_fairness, check_totals

    problems: list[str] = []
    records = result["records"]
    start, end = result["window"]
    jobs = [(job_id, spec) for job_id, _, _, spec in result["jobs"]] + result["archive"]
    for job_id, spec in jobs:
        record = records.get(job_id)
        if record is None or record["state"] != "completed":
            problems.append(f"job {job_id}: {record and record['state']}")
            continue
        problems += check_totals(
            result["served"][job_id]["totals"],
            result["references"][spec_key(spec)],
            f"job {job_id} {spec}",
        )
    served_units: dict[str, int] = {tenant: 0 for tenant in BACKLOG}
    finished = []
    for job_id, _, tenant, spec in result["jobs"]:
        record = records.get(job_id, {})
        if record.get("started_at") is not None and start <= record["started_at"] <= end:
            served_units[tenant] += spec["scale"]
        if record.get("finished_at") is not None and start <= record["finished_at"] <= end:
            finished.append((job_id, spec, record))
    queued: dict[str, list[tuple[float, float]]] = {tenant: [] for tenant in BACKLOG}
    for job_id, _, tenant, _ in result["jobs"]:
        record = records.get(job_id, {})
        if record.get("started_at") is not None:
            queued[tenant].append((record["submitted_at"], record["started_at"]))
    problems += check_backlogged(queued, start, end)
    problems += check_fairness(served_units, {}, QUANTUM, max(JOB_SCALES))
    totals = [result["served"][job_id]["totals"] for job_id, _, _ in finished]
    counts = {
        "jobs": len(finished),
        "units": sum(spec["scale"] for _, spec, _ in finished),
        "sites": sum(t["n_sites"] for t in totals),
        "flagged_sites": sum(c["tp"] + c["fp"] for t in totals for c in t["cells"]),
        "shards": len(finished),
        "requests": len(result["reads"])
        + sum(1 for at, _ in result["submits"] if start <= at <= end),
        "served_units": served_units,
    }
    return problems, counts


def end_to_end(result: dict, counts: dict) -> dict[str, float]:
    start, end = result["window"]
    reads_ms = [1000 * seconds for _, seconds in result["reads"]]
    return {
        "ops_per_s": counts["jobs"] / (end - start),
        "request_p50_ms": median(reads_ms),
        "peak_rss_mb": result["rss_mb"],
    }


def layer_metrics(result: dict, counts: dict) -> dict[str, float]:
    start, end = result["window"]
    by_kind: dict[str, list[float]] = {"status": [], "result": [], "list": []}
    for kind, seconds in result["reads"]:
        by_kind[kind].append(1000 * seconds)
    reads_ms = [ms for values in by_kind.values() for ms in values]
    submits_ms = [1000 * s for at, s in result["submits"] if start <= at <= end]
    waits, runs = [], []
    for job_id, _, _, _ in result["jobs"]:
        record = result["records"][job_id]
        if start <= record["finished_at"] <= end:
            waits.append(1000 * (record["started_at"] - record["submitted_at"]))
            runs.append(1000 * (record["finished_at"] - record["started_at"]))
    before, after = result["stats"]

    def delta(name: str) -> int:
        return _counter(after, name) - _counter(before, name)

    cache_hits = delta("serve.cache.hits")
    cache_reads = cache_hits + delta("serve.cache.misses")
    shard_hits = delta("engine.cache.disk_hit")
    shard_lookups = shard_hits + delta("engine.cache.miss")
    out = {
        "serve.app.status_p50_ms": median(by_kind["status"]),
        "serve.app.result_p50_ms": median(by_kind["result"]),
        "serve.app.list_p50_ms": median(by_kind["list"]),
        "serve.http.read_p50_ms": median(reads_ms),
        "serve.http.read_p99_ms": tail_percentile(reads_ms, 99),
        "serve.http.submit_p50_ms": median(submits_ms),
        "serve.cache.hit_ratio": ratio(cache_hits, cache_reads),
        "serve.cache.result_reads": cache_reads,
        "serve.queue.wait_p50_ms": median(waits),
        "serve.job.run_p50_ms": median(runs),
        "engine.cache.hit_ratio": ratio(shard_hits, shard_lookups),
        "engine.cache.shard_lookups": shard_lookups,
    }
    tracer: LayerTracer = result["tracer"]
    shards = len(result["replay_walls"])
    out.update(tracer.campaign_ms(shards))
    out.update(tracer.summary(
        CAMPAIGN_LAYERS, sum(result["replay_walls"]), sum(result["traced_walls"])
    ))
    out["bench.engine.shards.overhead_ms"] = (
        1000 * (out["trace.untraced_wall_s"] - out["trace.layers_s"]) / shards
    )
    return out
