"""``served_mix``: match-as-a-service under an open-loop request stream.

A ``WorkbenchServer`` with the default ``ServingConfig`` (two thread
workers, in memory) runs behind ``serve_tcp`` in its own process.  This
process is the load generator: 16 sessions on the small orders / notice
schemas, then

* an **open loop** at a fixed offered rate — each op is due on a fixed
  schedule whether or not earlier ones are answered, is timed from its
  due time (so a stall also charges the ops queued behind it), and the
  generator's own lateness is reported.  One connection submits, a
  second collects results in submission order;
* a **closed loop** with two connections, each sending its next op when
  the previous one is answered: the saturation throughput and the
  server's CPU per op.

The mix is A13_serving's (``benchmarks/bench_serving.py``): canned
queries, ``match``, ``update_cell`` feedback and an evolve, done as
reload-then-match: ``load_schema`` of the next DDL version, then
``match``.  That is how a wire client evolves a schema today, because
the wire ``evolve`` kind fails (README.md, known defects).  Voter
scoring is negligible here; queueing, the gateway, canned queries and
matrix RDF dominate.

The generator runs in a separate process from the server because an
in-process generator shares the interpreter lock with the workers and
falls behind its own schedule.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.rdf.schema_rdf import cell_iri
from repro.serving import ServingConfig, WorkbenchServer
from repro.serving.queue import JobQueue
from repro.serving.server import QUERY_FUNCS
from repro.serving.tcp import TcpWorkbenchClient, serve_tcp

import layers
from common import (REFERENCE_CALIBRATION_S, HostSpeed, Outcome, median,
                    pin, pin_to_fastest_cpu, rss_peak_mb)
from spans import Tracer
from inputs import NOTICE_XSD, ORDERS_DDL, ORDERS_DDL_V2, SERVED_TRUTH

SESSIONS = 16
MATRIX = "orders->notice"
#: the op mix, cycled: A13_serving's 5 queries, 2 matches, 2 cell
#: updates and 1 evolve per 10 ops, with the evolve as ``reload``
#: (``load_schema`` of the next DDL version, then ``match``, sent back to
#: back and timed until both are answered)
MIX = ("query", "match", "query", "update_cell", "query",
       "match", "update_cell", "query", "reload", "query")
#: closed-loop saturation of MIX, ops/s at the reference host's speed:
#: the ``throughput_per_s`` this workload reports (505-528 over ten
#: seeds), see README.md
SATURATION_OPS = 515.0
#: the open loop's utilisation at the reference host's speed: ops queue
#: behind each other without a growing backlog, also when the server's
#: CPU drops mid-run into a state 2.2 times slower (which puts it at
#: 0.77; at 0.5 such a drop saturated the server)
UTILISATION = 0.35
#: offered rate of the open loop at the reference host's speed.  Like
#: every other figure it is scaled by host speed: a run whose
#: calibration reads k times the reference speed offers k times this
RATE = UTILISATION * SATURATION_OPS
#: an op answered later than this from its due time, in ms at the
#: reference host's speed, misses the SLO: about three times the p99
#: measured at RATE
LIMIT_MS = 75.0
#: share of the run spent in the open loop (in reference-host seconds);
#: the rest is the closed loop
OPEN_SHARE = 0.5
#: served strong-link F1 below this fails the run
F1_FLOOR = 0.5
SETUP_REPEATS = 5
WAIT_S = 30.0


def _session(i: int) -> str:
    return f"tenant-{i:02d}"


Wire = Tuple[str, str, Dict[str, Any]]


class _Requests:
    """Builds the i-th op of the mix: its kind and its wire requests
    ``(session, kind, params)`` (deterministic in *seed*)."""

    def __init__(self, seed: int) -> None:
        self.offset = seed % len(MIX)
        self.truth = sorted(SERVED_TRUTH)
        self.wrong = [(s, t) for s, _ in self.truth for _, t in self.truth
                      if (s, t) not in SERVED_TRUTH]

    def __call__(self, i: int) -> Tuple[str, List[Wire]]:
        session = _session(i % SESSIONS)
        kind = MIX[(i + self.offset) % len(MIX)]
        turn = i // SESSIONS
        match = {"source_schema": "orders", "target_schema": "notice",
                 "matrix_name": MATRIX}
        if kind == "query":
            return kind, [(session, kind, {"name": "strong_cells", "params": {
                "matrix_name": MATRIX, "threshold": 0.5}})]
        if kind == "match":
            return kind, [(session, kind, match)]
        if kind == "update_cell":
            # the oracle: accept a true link or reject a false one
            if turn % 2 == 0:
                s, t = self.truth[turn // 2 % len(self.truth)]
                confidence = 1.0
            else:
                s, t = self.wrong[turn // 2 % len(self.wrong)]
                confidence = 0.0
            return kind, [(session, kind, {
                "matrix_name": MATRIX, "source_id": s, "target_id": t,
                "confidence": confidence, "user_defined": True})]
        ddl = ORDERS_DDL_V2 if turn % 2 == 0 else ORDERS_DDL
        return kind, [(session, "load_schema", {"text": ddl, "format": "sql",
                                                "schema_name": "orders"}),
                      (session, "match", match)]


# -- the server process ---------------------------------------------------------


def _install_serving(tracer, jobs: Dict[str, list]) -> None:
    """Queue boundary: push time, pop time (the job's service starts and
    its spans share the job id) and the future's completion."""
    push, pop = JobQueue.push, JobQueue.pop
    perf = time.perf_counter

    def traced_push(self, job):
        jobs[job.job_id] = [job.kind, perf(), None, None]
        return push(self, job)

    def traced_pop(self, timeout=None):
        job = pop(self, timeout)
        if job is not None:
            record = jobs.get(job.job_id)
            if record is not None:
                record[2] = perf()
            tracer.begin_op(job.kind, job.job_id)
            frame = tracer.open(f"serving.service.{job.kind}")

            def done(_future, frame=frame, record=record):
                if record is not None:
                    record[3] = perf()
                tracer.close(frame)

            job.future.add_done_callback(done)
        return job

    tracer.patch(JobQueue, "push", traced_push)
    tracer.patch(JobQueue, "pop", traced_pop)
    for name in list(QUERY_FUNCS):
        tracer.wrap_item(QUERY_FUNCS, name, f"rdf.query.{name}")


def _queue_metrics(jobs: Dict[str, list], rejected: int) -> Dict[str, float]:
    waits = [1000.0 * (r[2] - r[1]) for r in jobs.values() if r[2] is not None]
    service = [1000.0 * (r[3] - r[2]) for r in jobs.values()
               if r[2] is not None and r[3] is not None]
    m = {
        "serving.queue.queue_wait_ms_p50": layers.percentile(waits, 50),
        "serving.queue.queue_wait_ms_p99": layers.percentile(waits, 99),
        "serving.queue.service_ms_p50": layers.percentile(service, 50),
        "serving.queue.service_ms_p99": layers.percentile(service, 99),
        "serving.queue.rejected": float(rejected),
    }
    for kind in layers.SERVED_KINDS:
        m[f"serving.queue.service_ms_p50.{kind}"] = layers.percentile(
            [1000.0 * (r[3] - r[2]) for r in jobs.values()
             if r[0] == kind and r[2] is not None and r[3] is not None], 50)
    return m


class Channel:
    """One JSON message per line over a pipe pair."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    def send(self, message: Any) -> None:
        self.writer.write(json.dumps(message) + "\n")
        self.writer.flush()

    def recv(self) -> Any:
        line = self.reader.readline()
        if not line:
            raise EOFError("the other process closed the channel")
        return json.loads(line)


def serve(conn: Channel, trace_path: Optional[str]) -> None:
    """Server process: build the server (its CPU time taken, several
    times), listen, then obey commands from the generator until
    ``stop``."""
    builds = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.process_time()
        server = WorkbenchServer(ServingConfig())
        listener = serve_tcp(server)
        builds.append(time.process_time() - t0)
        if attempt < SETUP_REPEATS - 1:
            listener.close()
            server.close()
    conn.send({"address": listener.address, "build_cpu_s": median(builds)})
    speed = HostSpeed(clock=time.thread_time)
    tracer = Tracer() if trace_path else None
    jobs: Dict[str, list] = {}
    rejected0 = 0
    counters0, kernels0 = layers.counters(), layers.cache_stats()
    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                return  # the generator is gone: shut down
            if command == "trace_on":
                rejected0 = server.stats()["rejected"]
                counters0 = layers.counters()
                kernels0 = layers.cache_stats()
                layers.install(tracer)
                _install_serving(tracer, jobs)
                conn.send("ok")
            elif command == "trace_off":
                tracer.uninstall()
                kinds = set(tracer.op_kinds.values())
                jobs_traced = max(1, len(tracer.op_kinds))
                extra = {key: value / jobs_traced for key, value
                         in layers.counter_delta(counters0).items()}
                extra.update(layers.kernel_hit_rates(
                    kernels0, layers.cache_stats()))
                metrics = layers.layer_metrics(tracer, kinds, kinds, extra)
                metrics.update(_queue_metrics(
                    jobs, server.stats()["rejected"] - rejected0))
                tracer.dump(trace_path, {"layer_metrics": metrics})
                notes = []
                for kind in layers.SERVED_KINDS:
                    notes.append(f"layer breakdown of one served {kind} "
                                 "(ms per job, share):")
                    for layer, ms, share in layers.breakdown(tracer, kind):
                        notes.append(f"  {layer:<34} {ms:9.3f} {share:7.1%}")
                conn.send({"layer": metrics, "notes": notes})
            elif command == "cpu":
                conn.send(time.process_time())
            elif command == "calibrate":
                speed.samples.clear()
                speed.sample()
                conn.send(speed.samples)
            elif command == "stop":
                break
    finally:
        listener.close()
        server.close()
        try:
            conn.send({"rss_peak_mb": rss_peak_mb()})
        except OSError:
            pass  # nobody is listening any more


# -- the generator (this process) ------------------------------------------------


class _Sample(NamedTuple):
    kind: str
    #: from the op's due time to its last answer
    latency_ms: float
    #: how late the generator sent it
    late_ms: float
    ok: bool
    #: wire requests refused or failed
    wire_failed: int


def _send(client: TcpWorkbenchClient, wires: List[Wire]) -> List[Optional[str]]:
    """Submit an op's wire requests back to back: a job id each, None
    where the server refused."""
    ids = []
    for session, kind, params in wires:
        response = client.submit(session, kind, **params)
        ids.append(response.get("job_id") if response.get("ok") else None)
    return ids


def _answered(client: TcpWorkbenchClient, ids: List[Optional[str]]) -> int:
    """Wait for every job of an op: the number refused or failed."""
    return sum(job_id is None
               or not client.result(job_id, timeout=WAIT_S).get("ok", False)
               for job_id in ids)


def _open_loop(address, requests: _Requests, start_index: int,
               count: int, rate: float) -> List[_Sample]:
    pending: "queue.Queue" = queue.Queue()
    samples: List[_Sample] = []

    def collect() -> None:
        with TcpWorkbenchClient(*address, timeout=WAIT_S + 5) as client:
            while True:
                item = pending.get()
                if item is None:
                    return
                kind, due, late, ids = item
                failed = _answered(client, ids)
                samples.append(_Sample(
                    kind, 1000.0 * (time.perf_counter() - due), late,
                    failed == 0, failed))

    collector = threading.Thread(target=collect, name="collector")
    collector.start()
    try:
        with TcpWorkbenchClient(*address, timeout=WAIT_S) as client:
            start = time.perf_counter() + 0.05
            for n in range(count):
                due = start + n / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = 1000.0 * (time.perf_counter() - due)
                kind, wires = requests(start_index + n)
                pending.put((kind, due, late, _send(client, wires)))
    finally:
        pending.put(None)
        collector.join(WAIT_S * 2)
    return samples


def _closed_loop(address, requests: _Requests, start_index: int,
                 seconds: float, calibrate: Callable[[], HostSpeed],
                 server_cpu: Callable[[], float]
                 ) -> Tuple[int, int, int, List[Tuple[float, float, float]]]:
    """Two connections, each waiting for its op's answers before sending
    the next op, in one-second segments with the server's CPU speed
    calibrated before, between and after them (the server's CPU drops
    into a slower state for a few seconds at a time, so each segment is
    scaled by the calibrations on either side of it).

    Returns ``(ops ok, ops failed, wire requests failed, segments)``, a
    segment being ``(raw ops/s answered, raw server CPU ms per op, scale
    factor)``."""
    counts = [0, 0, 0]
    next_op = [start_index, start_index + 1_000_000]
    # a calibration takes ~0.35 s
    segments = max(1, int((seconds - 0.35) / 1.35))
    measured: List[Tuple[float, float, float]] = []
    before = calibrate()
    for _ in range(segments):
        done = [0, 0]
        ops0 = counts[0] + counts[1]
        cpu0 = server_cpu()
        start = time.perf_counter()
        deadline = start + 1.0

        def client_loop(slot: int) -> None:
            # each connection walks the whole mix, so the mix served does
            # not depend on which connection happens to run faster
            with TcpWorkbenchClient(*address, timeout=WAIT_S + 5) as client:
                while time.perf_counter() < deadline:
                    _kind, wires = requests(next_op[slot])
                    failed = _answered(client, _send(client, wires))
                    counts[0 if failed == 0 else 1] += 1
                    counts[2] += failed
                    if failed == 0 and time.perf_counter() <= deadline:
                        done[slot] += 1
                    next_op[slot] += 1

        threads = [threading.Thread(target=client_loop, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(1.0 + 2 * WAIT_S)
        cpu_ms = 1000.0 * (server_cpu() - cpu0)
        after = calibrate()
        measured.append((sum(done) / (deadline - start),
                         cpu_ms / max(1, counts[0] + counts[1] - ops0),
                         _factor(before, after)))
        before = after
    return counts[0], counts[1], counts[2], measured


def _setup_sessions(client: TcpWorkbenchClient, fresh: bool) -> None:
    """Create the sessions and give each its schemas, then its first
    match (in two waves: two workers may run one session's jobs in
    either order)."""
    loads = [("load_schema", {"text": ORDERS_DDL, "format": "sql",
                              "schema_name": "orders"}),
             ("load_schema", {"text": NOTICE_XSD, "format": "xsd",
                              "schema_name": "notice"})]
    match = [("match", {"source_schema": "orders", "target_schema": "notice",
                        "matrix_name": MATRIX})]
    for i in range(SESSIONS):
        if not fresh:
            client.request({"op": "close_session", "session": _session(i)})
        client.create_session(_session(i))
    for wave in (loads, match):
        handles = []
        for i in range(SESSIONS):
            for kind, params in wave:
                response = client.submit(_session(i), kind, **params)
                if not response.get("ok"):
                    raise RuntimeError(f"setup {kind} refused: {response}")
                handles.append(response["job_id"])
        for job_id in handles:
            response = client.result(job_id, timeout=WAIT_S)
            if not response.get("ok"):
                raise RuntimeError(f"setup job failed: {response}")


def _served_f1(address) -> Tuple[float, int]:
    """Strong-cell F1 of every session's matrix, taken after the open
    loop: its op sequence is fixed, while the closed loop's length
    follows the host's speed."""
    truth = {str(cell_iri(MATRIX, s, t)) for s, t in SERVED_TRUTH}
    tp = fp = fn = 0
    with TcpWorkbenchClient(*address, timeout=WAIT_S) as client:
        for i in range(SESSIONS):
            response = client.submit(_session(i), "query",
                                     name="strong_cells",
                                     params={"matrix_name": MATRIX,
                                             "threshold": 0.5})
            result = client.result(response["job_id"], timeout=WAIT_S)
            predicted = {cell for cell, _confidence in result["result"]}
            tp += len(predicted & truth)
            fp += len(predicted - truth)
            fn += len(truth - predicted)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return f1, tp + fn


def run(seed: int, seconds: float, trace_path: Optional[str],
        workdir: str) -> Outcome:
    out = Outcome()
    command = [sys.executable,
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "served_server.py")]
    # the server on the fastest CPU, the generator on another when there
    # is one, so neither competes with the other for a core
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = pin_to_fastest_cpu()
    command += ["--cpu", str(server_cpu)]
    if trace_path:
        command += ["--trace-path", trace_path]
    process = subprocess.Popen(command, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    pin(next((cpu for cpu in cpus if cpu != server_cpu), server_cpu))
    conn = Channel(process.stdout, process.stdin)
    try:
        return _drive(out, conn, seed, seconds, trace_path)
    finally:
        try:
            conn.send("stop")
            for _ in range(3):  # skip replies to a command cut short
                message = conn.recv()
                if isinstance(message, dict) and "rss_peak_mb" in message:
                    out.put("rss_peak_mb", message["rss_peak_mb"], "MB", 1)
                    break
        except (OSError, EOFError, ValueError):
            pass  # the server already died; the checks report it
        finally:
            process.stdin.close()
            try:
                process.wait(WAIT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(WAIT_S)
            process.stdout.close()


def _factor(*runs: HostSpeed) -> float:
    """The scale factor of several calibrations taken together."""
    pooled = HostSpeed()
    for speed in runs:
        pooled.samples.extend(speed.samples)
    return pooled.factor


def _drive(out: Outcome, conn: Channel, seed: int, seconds: float,
           trace_path: Optional[str]) -> Outcome:
    hello = conn.recv()
    address = tuple(hello["address"])

    def calibrate() -> HostSpeed:
        """The server's CPU speed now, from the calibration loop's CPU
        time in the server process.  The server is what is measured and
        the bottleneck, so it scales every figure; each phase is scaled
        by the calibrations taken around it, as the host's state can
        change within a run."""
        speed = HostSpeed()
        conn.send("calibrate")
        speed.samples.extend(conn.recv())
        return speed

    def server_cpu() -> float:
        conn.send("cpu")
        return conn.recv()

    speed0 = calibrate()
    requests = _Requests(seed)
    setups = []
    with TcpWorkbenchClient(*address, timeout=WAIT_S) as client:
        for attempt in range(SETUP_REPEATS):
            cpu0 = server_cpu()
            _setup_sessions(client, fresh=attempt == 0)
            setups.append(server_cpu() - cpu0)
    speed1 = calibrate()
    setup_scale = _factor(speed0, speed1)
    # the open loop runs on the reference host's clock, dilated by the
    # host speed measured just before it: a fixed number of ops (so a
    # fixed op sequence, whose final matrices quality_f1 scores) at RATE
    # reference ops/s
    open_scale = speed1.factor
    rate = RATE * open_scale
    count = int((seconds if trace_path else seconds * OPEN_SHARE) * RATE)

    answered = failed_closed = wire_failed_closed = 0
    open_cpu_s = open_s = 0.0
    segments: List[Tuple[float, float, float]] = []
    if trace_path:
        # untraced half, then traced half: the difference is the overhead
        untraced = _open_loop(address, requests, 0, count // 2, rate)
        conn.send("trace_on")
        conn.recv()
        traced = _open_loop(address, requests, len(untraced), count // 2,
                            rate)
        conn.send("trace_off")
        report = conn.recv()
        f1, truth_links = _served_f1(address)
        samples = untraced + traced
        base = median([s.latency_ms for s in untraced if s.ok])
        late = [s.late_ms for s in samples]
        out.layer = dict(report["layer"], **{
            "trace.overhead_frac": (
                median([s.latency_ms for s in traced if s.ok]) / base - 1.0)
            if base else 0.0,
            "served.generator_late_ms_p50": layers.percentile(late, 50),
            "served.generator_late_ms_p99": layers.percentile(late, 99),
        })
        out.notes.extend(report["notes"])
    else:
        cpu0 = server_cpu()
        t0 = time.perf_counter()
        samples = _open_loop(address, requests, 0, count, rate)
        open_s = time.perf_counter() - t0
        open_cpu_s = server_cpu() - cpu0
        f1, truth_links = _served_f1(address)
        answered, failed_closed, wire_failed_closed, segments = (
            _closed_loop(address, requests, len(samples),
                         seconds * (1 - OPEN_SHARE), calibrate, server_cpu))

    with TcpWorkbenchClient(*address, timeout=WAIT_S) as client:
        stats = client.stats()["stats"]

    ok = [s for s in samples if s.ok]
    late = [s.late_ms for s in samples]
    out.attempted = len(samples) + answered + failed_closed
    out.failed = (len(samples) - len(ok)) + failed_closed
    wire_failed = sum(s.wire_failed for s in samples) + wire_failed_closed
    within = sum(1 for s in ok if open_scale * s.latency_ms <= LIMIT_MS)

    conserved = stats["submitted"] == (stats["completed"] + stats["failed"]
                                       + stats["cancelled"] + stats["pending"])
    out.check("gateway stats conserve jobs after drain: submitted == "
              "completed + failed + cancelled + pending", conserved,
              ", ".join(f"{k}={stats[k]}" for k in (
                  "submitted", "completed", "failed", "cancelled",
                  "pending", "rejected")))
    out.check("nothing pending after drain", stats["pending"] == 0)
    out.check("no op failed or was refused", out.failed == 0,
              f"{out.failed} of {out.attempted}")
    out.check("server failed + rejected jobs match the client's count",
              stats["failed"] + stats["rejected"] == wire_failed,
              f"server {stats['failed']} + {stats['rejected']}, "
              f"client {wire_failed}")
    out.check(f"served strong-link F1 >= {F1_FLOOR}", f1 >= F1_FLOOR,
              f"F1 {f1:.4f}")

    n = max(1, out.attempted)
    # server CPU of building the server plus setting the 16 sessions up
    out.put("setup_s", setup_scale * (hello["build_cpu_s"] + median(setups)),
            "s", len(setups))
    out.put("ok_frac", (out.attempted - out.failed) / n, "frac", out.attempted)
    out.put("quality_f1", f1, "frac", truth_links)
    # the service cost and the saturation come from the closed loop, one
    # figure per segment, each scaled by the calibrations around it.
    # Server CPU per op, not wall-clock latency: on a shared VM the
    # open-loop median moved 2.1 -> 5.6 ms between two runs of one seed
    # (vCPU wake-up latency), and at the open loop's moderate load that
    # wake-up work also shows as server CPU per op (1.4 ms in one host
    # state, 3.0 ms in another, against 1.2 and 1.8 ms in the closed loop)
    out.put("op_ms", median([f * cpu_ms for _rate, cpu_ms, f in segments]),
            "ms", answered)
    out.put("throughput_per_s",
            median([rate / f for rate, _cpu_ms, f in segments]), "1/s",
            answered)
    out.put("slo_met_frac", within / max(1, len(samples)), "frac", len(samples))
    out.notes.append(
        f"open loop at {RATE:g} ops/s at reference speed ({rate:.1f} ops/s "
        f"on this host now) for {len(samples)} ops; SLO {LIMIT_MS:g} ms at "
        f"reference speed from due time")
    out.notes.append(f"{'kind':<14} {'n':>6} {'p50 ms':>9} {'p99 ms':>9}"
                     "  (at reference speed)")
    for kind in sorted(set(MIX)) + ["all"]:
        values = [open_scale * s.latency_ms for s in ok
                  if kind in ("all", s.kind)]
        out.notes.append(f"{kind:<14} {len(values):>6} "
                         f"{layers.percentile(values, 50):9.2f} "
                         f"{layers.percentile(values, 99):9.2f}")
    out.notes.append(
        f"time scale factors (reference calibration {REFERENCE_CALIBRATION_S}"
        f" s / the server CPU's): setup {setup_scale:.3f}, open-loop "
        f"schedule {open_scale:.3f}")
    out.notes.append(f"generator lateness p50 {layers.percentile(late, 50):.3f}"
                     f" ms, p99 {layers.percentile(late, 99):.3f} ms")
    if segments:
        saturation = median([r for r, _cpu_ms, _f in segments])
        out.notes.append(
            f"open loop: server CPU {1000.0 * open_cpu_s / len(samples):.3f}"
            f" ms per op raw, busy {open_cpu_s / open_s:.1%} of the time;"
            f" offered {rate:.1f} ops/s is {rate / saturation:.1%} of this"
            " run's raw saturation")
        out.notes.append(
            f"closed loop (2 connections): {answered} ops answered; per "
            "one-second segment raw ops/s, raw server CPU ms per op, scale:")
        for r, cpu_ms, f in segments:
            out.notes.append(f"  {r:8.1f} {cpu_ms:8.3f} {f:7.3f}")
    return out
