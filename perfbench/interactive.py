"""``interactive``: one engineer refining and evolving a pairwise match.

Each schema pair (sources of 120-135 elements, targets a little
smaller) gets its own durable workbench
(``WorkbenchManager(durable=...)``, fsync at its default ``commit``)
with ``MatcherTool(HarmonyEngine(EngineConfig.fast()))``, and runs the
Section 4.3 / 5.3 loop:

1. ``cold_match``  — ``invoke("harmony")`` on the fresh pair;
2. ``refine`` x2   — the oracle accepts or rejects the ten strongest
   undecided suggestions through ``update_cell`` (one transaction), then
   the matcher is invoked again;
3. ``evolve``      — ``evolve_and_rematch`` with the source's next
   version (renames, a drop, additions, redocumentation).

A cold match is dominated by voter scoring; the re-runs by blackboard
RDF round-trips and by how much of the match context they reuse.  Pairs
run back to back (a closed loop of one user) until the time is up.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.eval import Alignment, evaluate_matrix
from repro.harmony.engine import EngineConfig, HarmonyEngine
from repro.workbench import WorkbenchManager
from repro.workbench.evolution import evolve_and_rematch
from repro.workbench.tools import MatcherTool

import layers
from common import (WALL_EXPONENT, HostSpeed, Outcome, median,
                    pin_to_fastest_cpu, rss_peak_mb)
from inputs import InteractivePair, interactive_pairs
from spans import Tracer

#: pairs generated per run; a run stops early when time is up
PAIRS = 24
FEEDBACK_ROUNDS = 2
FEEDBACK_PER_ROUND = 10
#: an interactive step answered later than this misses the limit
STEP_LIMIT_MS = 2000.0
#: cold-match F1 below this fails the run (measured ~0.8 on this input)
F1_FLOOR = 0.6
SETUP_REPEATS = 3
KINDS = ("cold_match", "refine", "evolve")


class _Session:
    """One pair's durable workbench."""

    def __init__(self, pair: InteractivePair, directory: str) -> None:
        self.pair = pair
        self.directory = directory
        self.manager = WorkbenchManager(durable=directory)
        self.manager.register(
            MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
        with self.manager.transaction():
            self.manager.blackboard.put_schema(pair.source)
            self.manager.blackboard.put_schema(pair.target)
        self.matrix_name = f"{pair.source.name}->{pair.target.name}"

    def wal_size(self) -> int:
        return self.manager.blackboard.durability.wal_size

    def match(self):
        return self.manager.invoke(
            "harmony", source_schema=self.pair.source.name,
            target_schema=self.pair.target.name, matrix_name=self.matrix_name)

    def feedback(self, matrix) -> List[tuple]:
        undecided = sorted(
            (c for c in matrix.cells()
             if not c.is_user_defined and c.confidence > 0.0),
            key=lambda c: (-c.confidence, c.source_id, c.target_id))
        decisions = [(c.source_id, c.target_id, c.pair in self.pair.truth)
                     for c in undecided[:FEEDBACK_PER_ROUND]]
        blackboard = self.manager.blackboard
        with self.manager.transaction():
            for source_id, target_id, accept in decisions:
                blackboard.update_cell(self.matrix_name, source_id, target_id,
                                       1.0 if accept else 0.0,
                                       user_defined=True)
        return decisions

    def evolve(self):
        return evolve_and_rematch(
            self.manager, self.matrix_name, self.pair.source,
            self.pair.evolved_source, side="source",
            other_schema=self.pair.target.name)

    def close(self) -> None:
        self.manager.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _setup_once(seed: int, workdir: str) -> List[InteractivePair]:
    pairs = interactive_pairs(seed, PAIRS)
    session = _Session(pairs[0], os.path.join(workdir, "setup"))
    session.close()
    return pairs


def run(seed: int, seconds: float, trace_path: Optional[str],
        workdir: str) -> Outcome:
    out = Outcome()
    pin_to_fastest_cpu()
    speed = HostSpeed(exponent=WALL_EXPONENT)
    speed.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pairs = _setup_once(seed, workdir)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if trace_path else None
    steps: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    session_walls = {False: [], True: []}
    wal_bytes: List[int] = []
    counted: Dict[str, float] = defaultdict(float)
    tp = fp = fn = 0
    ok_within_limit = 0
    kernels_before = layers.cache_stats()
    deadline = time.perf_counter() + seconds
    for index, pair in enumerate(pairs):
        if time.perf_counter() >= deadline and index >= 2:
            break
        speed.sample(repeats=1)
        # in a traced run every other session is traced, so the tracing
        # overhead is measured on the same inputs and caches
        traced = tracer is not None and index % 2 == 1
        if traced:
            layers.install(tracer)
        session = _Session(pair, os.path.join(workdir, f"pair{index}"))
        session_ms = 0.0
        try:
            plan = [("cold_match", 0)] + [
                ("refine", r) for r in range(1, FEEDBACK_ROUNDS + 1)
            ] + [("evolve", 0)]
            matrix = None
            for kind, round_no in plan:
                out.attempted += 1
                wal0, counters0 = session.wal_size(), layers.counters()
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.op(kind, f"p{index}.{kind}{round_no}"):
                            result = _step(session, kind, matrix)
                    else:
                        result = _step(session, kind, matrix)
                except Exception as error:  # a failed step ends the session
                    out.failed += 1
                    out.notes.append(f"pair {index} {kind}: {error!r}")
                    break
                elapsed_ms = 1000.0 * (time.perf_counter() - t0)
                session_ms += elapsed_ms
                if not traced:
                    steps[kind].append(elapsed_ms)
                ok_within_limit += elapsed_ms <= STEP_LIMIT_MS
                if traced:
                    wal_bytes.append(session.wal_size() - wal0)
                    for key, value in layers.counter_delta(counters0).items():
                        counted[key] += value
                if kind == "cold_match":
                    matrix = result
                    quality = evaluate_matrix(result,
                                              Alignment(set(pair.truth)))
                    tp += quality.true_positives
                    fp += quality.false_positives
                    fn += quality.false_negatives
                elif kind == "refine":
                    matrix, decisions = result
                    kept = all(
                        cell is not None and cell.is_user_defined
                        and (cell.confidence >= 1.0) == accept
                        for cell, accept in (
                            (matrix.peek(s, t), accept)
                            for s, t, accept in decisions))
                    if not kept:
                        out.check(f"pair {index} decisions survive re-match",
                                  False, "a user decision was overwritten")
                else:
                    _check_evolution(out, index, pair, result)
            else:
                session_walls[traced].append(session_ms)
        finally:
            session.close()
            if traced:
                tracer.uninstall()

    speed.sample()
    all_steps = [v for kind in KINDS for v in steps[kind]]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    out.check("every pair completed its session without error",
              out.failed == 0, f"{out.failed} failed steps")
    out.check(f"cold-match F1 >= {F1_FLOOR}", f1 >= F1_FLOOR, f"F1 {f1:.4f}")
    if not any(name.startswith("pair") for name, _p, _d in out.checks):
        out.check("user decisions survive re-match and evolution matches the "
                  "schema diff", True)

    scale = speed.factor
    out.put("setup_s", scale * median(setups), "s", len(setups))
    n = max(1, out.attempted)
    out.put("ok_frac", (out.attempted - out.failed) / n, "frac", out.attempted)
    out.put("rss_peak_mb", rss_peak_mb(), "MB", 1)
    out.put("quality_f1", f1, "frac", tp + fn)
    sessions = session_walls[False]
    out.put("op_ms", scale * median(sessions), "ms", len(sessions))
    # the steps of the median session: a mean over every step would
    # follow the few sessions that met a slow spell of the host
    steps_per_session = len(all_steps) / max(1, len(sessions))
    out.put("throughput_per_s",
            1000.0 * steps_per_session / median(sessions) / scale
            if sessions else 0.0, "1/s", len(all_steps))
    out.put("slo_met_frac", ok_within_limit / n, "frac", out.attempted)
    out.notes.append(speed.note())
    out.notes.append("pair sessions, raw wall (s): " + " ".join(
        f"{ms / 1000.0:.2f}" for ms in sessions))
    for kind in KINDS:
        out.notes.append(
            f"{kind + '_ms_p50':<22} {median(steps[kind]):10.2f} ms raw"
            f"   n={len(steps[kind])}")

    if tracer is not None:
        untraced, traced_walls = session_walls[False], session_walls[True]
        overhead = (median(traced_walls) / median(untraced) - 1.0
                    if untraced and traced_walls else 0.0)
        n_traced = max(1, len(wal_bytes))
        extra = {
            "rdf.durability.wal_bytes_per_op": sum(wal_bytes) / n_traced,
            "trace.overhead_frac": overhead,
        }
        extra.update({key: value / n_traced for key, value in counted.items()})
        extra.update(layers.kernel_hit_rates(kernels_before,
                                             layers.cache_stats()))
        out.layer = layers.layer_metrics(tracer, KINDS, ("cold_match",), extra)
        tracer.dump(trace_path, {"layer_metrics": out.layer})
        for kind in KINDS:
            out.notes.append(
                f"layer breakdown of one {kind} (ms per op, share):")
            for layer, ms, share in layers.breakdown(tracer, kind):
                out.notes.append(f"  {layer:<34} {ms:9.2f} {share:7.1%}")
    return out


def _step(session: _Session, kind: str, matrix):
    if kind == "cold_match":
        return session.match()
    if kind == "refine":
        decisions = session.feedback(matrix)
        return session.match(), decisions
    return session.evolve()


def _check_evolution(out: Outcome, index: int, pair: InteractivePair,
                     report) -> None:
    added, removed = set(report.axes_added), set(report.axes_removed)
    if not (added <= pair.evolved_added and removed <= pair.evolved_removed
            and added and removed):
        out.check(f"pair {index} evolution matches the schema diff", False,
                  f"added {sorted(added)} removed {sorted(removed)}")
