"""Which callables the traced run wraps, and the per-layer metrics
derived from the spans.

Every per-layer metric is reported by every workload (0 where the
workload never enters the layer).  Times are milliseconds per benchmark
operation (a session step, an integration, a served job) unless the
name says per call; counts are per operation too.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.matrix import MappingMatrix
from repro.harmony import multisource
from repro.harmony.blocking import CandidateBlocker
from repro.harmony.engine import HarmonyEngine
from repro.harmony.flooding import sweep_run_stats
from repro.harmony.merger import VoteMerger
from repro.harmony.voters import default_voters
from repro.harmony.voters.base import MatchContext
from repro.rdf.schema_rdf import serialization_stats
from repro.text.kernels import cache_stats
from repro.workbench.blackboard import IntegrationBlackboard
from repro.workbench.events import EventBus
from repro.workbench.transactions import Transaction

from spans import Tracer

VOTERS = [voter.name for voter in default_voters()]
VOTER_CLASSES = [type(voter) for voter in default_voters()]
BLACKBOARD_CALLS = ("put_matrix", "get_matrix", "get_schema", "put_schema",
                    "update_cell")
MULTISOURCE_CALLS = ("snapshot_corpus", "select_pairs", "match_all_pairs",
                     "cluster_elements", "derive_target_schema")
KERNEL_CACHES = ("token_jw", "monge_elkan_rows", "ngram_sets", "cosine")
SERVED_KINDS = ("match", "query", "update_cell", "load_schema")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str]] = (
    [(f"harmony.voters.{v}.busy_ms", "ms") for v in VOTERS]
    + [("harmony.voters.score_calls", "count"),
       ("harmony.voters.cold_share", "frac"),
       ("harmony.context.busy_ms", "ms"),
       ("harmony.context.builds", "count"),
       ("harmony.context.reuse_frac", "frac"),
       ("harmony.blocking.busy_ms", "ms"),
       ("harmony.blocking.kept_pairs", "count"),
       ("harmony.blocking.pruning_ratio", "frac"),
       ("harmony.merger.busy_ms", "ms"),
       ("harmony.flooding.busy_ms", "ms"),
       ("harmony.flooding.sweeps", "count"),
       ("harmony.engine.self_ms", "ms"),
       ("core.matrix.busy_ms", "ms"),
       ("core.matrix.cells_written", "count")]
    + [(f"rdf.schema_rdf.{c}_ms_per_call", "ms") for c in BLACKBOARD_CALLS]
    + [("rdf.schema_rdf.busy_ms", "ms"),
       ("rdf.schema_rdf.triples_written", "count"),
       ("rdf.schema_rdf.triples_removed", "count"),
       ("rdf.schema_rdf.triples_unchanged", "count"),
       ("rdf.durability.wal_bytes_per_op", "bytes"),
       ("rdf.query.busy_ms", "ms"),
       ("workbench.commit_ms", "ms"),
       ("workbench.events_published", "count")]
    + [(f"harmony.multisource.{c}_ms", "ms") for c in MULTISOURCE_CALLS]
    + [("harmony.multisource.kept_pairs", "count"),
       ("harmony.multisource.cluster_f1", "frac"),
       ("harmony.multisource.total_pairs", "count")]
    + [(f"text.kernels.{c}.hit_rate", "frac") for c in KERNEL_CACHES]
    + [("serving.queue.queue_wait_ms_p50", "ms"),
       ("serving.queue.queue_wait_ms_p99", "ms"),
       ("serving.queue.service_ms_p50", "ms"),
       ("serving.queue.service_ms_p99", "ms")]
    + [(f"serving.queue.service_ms_p50.{k}", "ms") for k in SERVED_KINDS]
    + [("serving.queue.rejected", "count"),
       ("served.generator_late_ms_p50", "ms"),
       ("served.generator_late_ms_p99", "ms"),
       ("trace.uncovered_ms", "ms"),
       ("trace.uncovered_frac", "frac"),
       ("trace.overhead_frac", "frac"),
       ("trace.spans", "count")]
)

def layer_of(span: str) -> str:
    """The layer a span's self time is charged to in breakdown tables."""
    if span.startswith("harmony.voters."):
        return "harmony.voters"
    if span.startswith("rdf.schema_rdf."):
        return "rdf.schema_rdf"
    if span.startswith("rdf.query."):
        return "rdf.query"
    if span.startswith("harmony.multisource."):
        return "harmony.multisource." + span.rsplit(".", 1)[1]
    if span.startswith("op.") or span.startswith("serving.service."):
        return "(uncovered)"
    return span


def _on_match(tracer: Tracer, args: tuple, run) -> None:
    tracer.count("matches")
    if run.reused_context:
        tracer.count("reused")


def _on_blocking(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("blocking_kept", result.kept_pairs)
    tracer.count("blocking_total", result.total_pairs)


def _on_set_cells(tracer: Tracer, args: tuple, written) -> None:
    tracer.count("cells_written", written or 0)


def _on_publish(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("events")


def _on_select(tracer: Tracer, args: tuple, selection) -> None:
    tracer.count("kept_pairs", selection.kept_pairs)
    tracer.count("total_pairs", selection.total_pairs)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark traces."""
    for cls, name in zip(VOTER_CLASSES, VOTERS):
        tracer.wrap(cls, "score", f"harmony.voters.{name}.score", hot=True)
        tracer.wrap(cls, "prepare", f"harmony.voters.{name}.prepare")
    tracer.wrap(MatchContext, "__init__", "harmony.context.build")
    tracer.wrap(HarmonyEngine, "match", "harmony.engine.match",
                on_result=_on_match)
    # the engine's flooding entry point (dispatches to the sweep backend)
    tracer.wrap(HarmonyEngine, "_flood", "harmony.flooding")
    tracer.wrap(CandidateBlocker, "candidates", "harmony.blocking",
                on_result=_on_blocking)
    tracer.wrap(VoteMerger, "merge", "harmony.merger")
    tracer.wrap(MappingMatrix, "set_cells", "core.matrix.set_cells",
                on_result=_on_set_cells)
    for call in BLACKBOARD_CALLS:
        tracer.wrap(IntegrationBlackboard, call, f"rdf.schema_rdf.{call}")
    tracer.wrap(Transaction, "commit", "workbench.commit")
    tracer.wrap(EventBus, "publish", "workbench.publish",
                on_result=_on_publish)
    for call in MULTISOURCE_CALLS:
        tracer.wrap(multisource, call, f"harmony.multisource.{call}",
                    on_result=_on_select if call == "select_pairs" else None)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kernel_hit_rates(before: Optional[Dict], after: Dict) -> Dict[str, float]:
    """Hit rate per kernel cache between two ``cache_stats()`` snapshots
    (*before* None: since the last ``clear_caches()``)."""
    out = {}
    for cache in KERNEL_CACHES:
        hits = after[cache]["hits"] - (before[cache]["hits"] if before else 0)
        misses = after[cache]["misses"] - (before[cache]["misses"]
                                           if before else 0)
        out[f"text.kernels.{cache}.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    return out


def layer_metrics(tracer: Tracer, op_kinds: Iterable[str],
                  cold_kinds: Iterable[str],
                  extra: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer metrics over the traced ops of *op_kinds*.

    *cold_kinds* are the ops whose voter share ``cold_share`` reports
    (the cold match of an interactive session, a whole integration).
    """
    kinds = set(op_kinds)
    ops = [op for op, kind in tracer.op_kinds.items() if kind in kinds]
    n_ops = max(1, len(ops))
    totals = tracer.self_by_name(kinds)

    def busy(prefix: str) -> float:
        return 1000.0 * sum(s for name, (_c, s) in totals.items()
                            if name.startswith(prefix)) / n_ops

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    counts: Dict[str, float] = {}
    for kind in kinds:
        for key, value in tracer.counts.get(kind, {}).items():
            counts[key] = counts.get(key, 0.0) + value

    m: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for v in VOTERS:
        m[f"harmony.voters.{v}.busy_ms"] = busy(f"harmony.voters.{v}.")
    m["harmony.voters.score_calls"] = sum(
        calls(f"harmony.voters.{v}.score") for v in VOTERS) / n_ops
    cold = set(cold_kinds) & kinds
    cold_totals = tracer.self_by_name(cold)
    cold_time = sum(s for _c, s in cold_totals.values())
    voter_time = sum(s for name, (_c, s) in cold_totals.items()
                     if name.startswith("harmony.voters."))
    m["harmony.voters.cold_share"] = voter_time / cold_time if cold_time else 0.0
    m["harmony.context.busy_ms"] = busy("harmony.context.build")
    m["harmony.context.builds"] = calls("harmony.context.build") / n_ops
    refine = tracer.counts.get("refine", {})
    if refine.get("matches"):
        m["harmony.context.reuse_frac"] = refine.get("reused", 0.0) / refine["matches"]
    elif counts.get("matches"):
        m["harmony.context.reuse_frac"] = counts.get("reused", 0.0) / counts["matches"]
    m["harmony.blocking.busy_ms"] = busy("harmony.blocking")
    n_block = calls("harmony.blocking")
    if n_block:
        m["harmony.blocking.kept_pairs"] = counts.get("blocking_kept", 0.0) / n_block
    if counts.get("blocking_total"):
        m["harmony.blocking.pruning_ratio"] = (
            1.0 - counts["blocking_kept"] / counts["blocking_total"])
    m["harmony.merger.busy_ms"] = busy("harmony.merger")
    m["harmony.flooding.busy_ms"] = busy("harmony.flooding")
    m["harmony.engine.self_ms"] = busy("harmony.engine.match")
    m["core.matrix.busy_ms"] = busy("core.matrix.set_cells")
    m["core.matrix.cells_written"] = counts.get("cells_written", 0.0) / n_ops
    for call in BLACKBOARD_CALLS:
        name = f"rdf.schema_rdf.{call}"
        if calls(name):
            m[f"{name}_ms_per_call"] = busy(name) * n_ops / calls(name)
    m["rdf.schema_rdf.busy_ms"] = busy("rdf.schema_rdf.")
    m["rdf.query.busy_ms"] = busy("rdf.query.")
    if calls("workbench.commit"):
        m["workbench.commit_ms"] = (busy("workbench.commit") * n_ops
                                    / calls("workbench.commit"))
    m["workbench.events_published"] = counts.get("events", 0.0) / n_ops
    for call in MULTISOURCE_CALLS:
        m[f"harmony.multisource.{call}_ms"] = busy(f"harmony.multisource.{call}")
    m["harmony.multisource.kept_pairs"] = counts.get("kept_pairs", 0.0) / n_ops
    m["harmony.multisource.total_pairs"] = counts.get("total_pairs", 0.0) / n_ops
    op_time = sum(s for name, (_c, s) in totals.items())
    uncovered = sum(s for name, (_c, s) in totals.items()
                    if layer_of(name) == "(uncovered)")
    m["trace.uncovered_ms"] = 1000.0 * uncovered / n_ops
    m["trace.uncovered_frac"] = uncovered / op_time if op_time else 0.0
    m["trace.spans"] = float(len(tracer.spans))
    if extra:
        m.update(extra)
    return m


def breakdown(tracer: Tracer, kind: str) -> List[Tuple[str, float, float]]:
    """``(layer, ms per op, share)`` for one op kind, largest first."""
    ops = sum(1 for k in tracer.op_kinds.values() if k == kind)
    if not ops:
        return []
    by_layer: Dict[str, float] = {}
    for name, (_c, s) in tracer.self_by_name({kind}).items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    total = sum(by_layer.values()) or 1.0
    rows = [(layer, 1000.0 * s / ops, s / total) for layer, s in by_layer.items()]
    return sorted(rows, key=lambda row: -row[1])


def counters() -> Dict[str, int]:
    """Process-wide counters the program keeps at these layers:
    flooding sweeps run and RDF triples serialized."""
    sweeps = sweep_run_stats()
    serial = serialization_stats()
    out = {"harmony.flooding.sweeps": sum(sweeps.values())}
    for key in ("triples_written", "triples_removed", "triples_unchanged"):
        out[f"rdf.schema_rdf.{key}"] = (serial[f"matrix_{key}"]
                                        + serial[f"schema_{key}"])
    return out


def counter_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = counters()
    return {key: after[key] - before[key] for key in after}
