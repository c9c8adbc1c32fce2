"""``registry_nway``: Table-1-scale N-way integration of 265 schemas.

``integrate_sources`` over two seeded family registries a run (the
``family_workload`` of ``benchmarks/nway_workload.py``), with hub
pruning (``pair_budget`` set, so the hub/best-partner pre-pass keeps
~N·k of the N² pairs), ``parallelism=1`` and ``EngineConfig.fast()``.
``clear_caches()`` runs before each timed integration, because a batch
integration pays the text-kernel caches every time.  Hundreds of tiny
matches make per-match fixed cost, pair selection and target derivation
weigh, not per-pair scoring inside one large match.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from nway_workload import NWAY_THRESHOLD, family_workload
from repro.harmony import cluster_pair_f1, integrate_sources
from repro.harmony.engine import EngineConfig
from repro.text.kernels import clear_caches

import layers
from common import (WALL_EXPONENT, HostSpeed, Outcome, median,
                    pin_to_fastest_cpu, rss_peak_mb)
from spans import Tracer

SCHEMAS = 265
#: the clustering threshold the N-way benches run at (family links score
#: ~0.9+, look-alike cross-family links mostly <= 0.8)
THRESHOLD = NWAY_THRESHOLD
#: registries integrated per run (seeded from --seed), each once: 15-40 s
#: with the host's state (a third registry would put the benchmark's
#: 70 runs near its time budget in the host's slow state)
REGISTRIES = 2
#: schemas of the small registry integrated twice to check determinism
CHECK_SCHEMAS = 40
#: an integration answered later than this misses the limit
INTEGRATE_LIMIT_S = 60.0
#: pairwise link F1 below this fails the run (measured ~0.96-0.98)
F1_FLOOR = 0.9
SETUP_REPEATS = 5


def registry(seed: int, index: int):
    """``(schemas, true clusters)`` of the run's *index*-th registry."""
    return family_workload(SCHEMAS, seed=9000 + 1000 * (REGISTRIES * seed
                                                        + index))


def link_quality(matrices, truth) -> Tuple[int, int, int]:
    """Pooled (tp, fp, fn) of the pairwise links at THRESHOLD against
    the true concept clusters, over every schema pair that was matched.

    Scored on links rather than on the clustering because one false
    link between two hubs can merge whole families (README.md, known
    defect 3), which made the cluster F1 flip between ~0.1 and ~0.99
    from seed to seed under another seed scheme; the cluster F1 is
    reported beside it."""
    cluster_of = {ref: i for i, refs in enumerate(truth) for ref in refs}
    members: Dict[Tuple[int, str], List[str]] = defaultdict(list)
    for i, refs in enumerate(truth):
        for schema, element in refs:
            members[(i, schema)].append(element)
    per_schema: Dict[str, set] = defaultdict(set)
    for (i, schema) in members:
        per_schema[schema].add(i)
    tp = fp = fn = 0
    for (a, b), matrix in matrices.items():
        true_links = 0
        for i in per_schema[a] & per_schema[b]:
            true_links += len(members[(i, a)]) * len(members[(i, b)])
        hits = 0
        for cell in matrix.cells():
            if cell.confidence < THRESHOLD:
                continue
            i = cluster_of.get((a, cell.source_id))
            if i is not None and i == cluster_of.get((b, cell.target_id)):
                hits += 1
            else:
                fp += 1
        tp += hits
        fn += true_links - hits
    return tp, fp, fn


def _integrate(schemas):
    # a pair budget of N·3 is below the hub/best-partner floor, so pruning
    # keeps exactly that floor and adds no budget fill
    clear_caches()
    return integrate_sources(
        schemas, threshold=THRESHOLD, parallelism=1,
        engine_config=EngineConfig.fast(), pair_budget=3 * len(schemas))


def _output(result):
    """What an integration produced: its clusters and every matrix cell."""
    cells = sorted((pair, cell.source_id, cell.target_id, cell.confidence)
                   for pair, matrix in result.matrices.items()
                   for cell in matrix.cells())
    return result.clusters, cells


def run(seed: int, seconds: float, trace_path: Optional[str],
        workdir: str) -> Outcome:
    """Two timed integrations, whatever *seconds* says: a fixed amount
    of work keeps the figure comparable between runs."""
    out = Outcome()
    pin_to_fastest_cpu()
    speed = HostSpeed(exponent=WALL_EXPONENT)
    speed.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        registries = [registry(seed, r) for r in range(REGISTRIES)]
        setups.append(time.perf_counter() - t0)

    # one entry per integration: registry index, wall seconds, link
    # (tp, fp, fn), cluster F1
    runs: List[Tuple[int, float, Tuple[int, int, int], float]] = []
    # (registry, traced) per integration; a traced run integrates the
    # first registry untraced, then traced: the difference is the
    # tracing overhead
    plan = [(0, False), (0, True)] if trace_path else [
        (r, False) for r in range(REGISTRIES)]
    tracer = Tracer() if trace_path else None
    for index, (which, traced) in enumerate(plan):
        schemas, truth = registries[which]
        if index:
            speed.sample()
        out.attempted += 1
        if traced:
            layers.install(tracer)
            counters0 = layers.counters()
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.op("integrate", f"integrate{index}"):
                    result = _integrate(schemas)
            else:
                result = _integrate(schemas)
            wall = time.perf_counter() - t0
        except Exception as error:
            out.failed += 1
            out.notes.append(f"integration {index}: {error!r}")
            continue
        finally:
            if traced:
                tracer.uninstall()
        runs.append((which, wall, link_quality(result.matrices, truth),
                     cluster_pair_f1(result.clusters, truth)))
        if traced:
            extra = layers.counter_delta(counters0)
            # _integrate cleared the caches and their statistics
            extra.update(layers.kernel_hit_rates(None,
                                                 layers.cache_stats()))
            extra["trace.overhead_frac"] = wall / runs[0][1] - 1.0
            extra["harmony.multisource.cluster_f1"] = runs[-1][3]
            out.layer = layers.layer_metrics(tracer, ("integrate",),
                                             ("integrate",), extra)
            tracer.dump(trace_path, {"layer_metrics": out.layer})
            out.notes.append("layer breakdown of one integration "
                             "(ms per op, share):")
            for layer, ms, share in layers.breakdown(tracer, "integrate"):
                out.notes.append(f"  {layer:<40} {ms:10.1f} {share:7.1%}")

    speed.sample()
    scale = speed.factor
    # pooled over the run's integrations
    tp, fp, fn = (sum(counts[k] for _which, _wall, counts, _f1 in runs)
                  for k in range(3))
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    out.check("every integration completed", out.failed == 0,
              f"{out.failed} failed")
    out.check(f"pairwise link F1 >= {F1_FLOOR}", f1 >= F1_FLOOR,
              f"F1 {f1:.4f}")
    # untimed: the first schemas of the first registry, integrated twice
    small = registries[0][0][:CHECK_SCHEMAS]
    out.check(f"a {CHECK_SCHEMAS}-schema registry integrated twice gives "
              "the same clusters and matrices",
              _output(_integrate(small)) == _output(_integrate(small)))
    # the mean over the registries, so that no one registry's content
    # sets the figure (a registry whose clustering collapses does less
    # target derivation: README.md, known defect 3)
    walls = [wall for _which, wall, _counts, _f1 in runs]
    typical = sum(walls) / len(walls) if walls else 0.0
    n = max(1, out.attempted)
    out.put("setup_s", scale * median(setups), "s", len(setups))
    out.put("ok_frac", (out.attempted - out.failed) / n, "frac", out.attempted)
    out.put("rss_peak_mb", rss_peak_mb(), "MB", 1)
    out.put("quality_f1", f1, "frac", tp + fn)
    out.put("op_ms", scale * 1000.0 * typical, "ms", len(walls))
    out.put("throughput_per_s",
            SCHEMAS / typical / scale if typical else 0.0, "1/s", len(walls))
    out.put("slo_met_frac",
            sum(w <= INTEGRATE_LIMIT_S for w in walls) / n, "frac", n)
    out.notes.append(speed.note())
    for which, wall, _counts, cluster_f1 in runs:
        out.notes.append(
            f"registry {which}: integrate_s {wall:8.3f} raw, cluster_pair_f1 "
            f"{cluster_f1:.4f} (see known defect 3)")
    return out
