"""N-way integration held to a frozen golden, and the family workload's
inputs held to frozen digests.

``golden_nway_integration.json`` holds the clusters and every matrix cell
(pairwise and source→target) that ``integrate_sources`` produced on the
30-schema ``family_workload`` before per-element features moved into the
engine-scoped feature table.  Never regenerate it from the current
engine: it is the reference the serial and process-pool paths must both
reproduce.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.harmony import integrate_sources
from repro.harmony.engine import EngineConfig

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(os.path.dirname(HERE), "golden_nway_integration.json")
BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(HERE)), "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from nway_workload import NWAY_THRESHOLD, family_workload  # noqa: E402

TOLERANCE = 1e-12

#: sha256 of ``[[[name, sorted element ids]...], truth clusters]`` for
#: ``family_workload(265, seed=9000 + 1000·k)``, the registries the
#: benchmark integrates, frozen before the scenario generator learned to
#: suffix colliding names
WORKLOAD_DIGESTS = {
    2: "739a3292b99bbb87841f1af660a5218a291df28207b3fa663a806f6c4e954073",
    3: "ca81bddcf4f23da0f04838318266061e760ee0bd25e879b7cf8349e8b30ef418",
    4: "7cbf51d6bb7ac1ac04c8e1d425fd317d0d8010afaee95652c137e06a0f495164",
    5: "25aafbb08521937ba30a90012576ec67c3180c987adf180e9ffbdb8456109d04",
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def schemas():
    return family_workload(30)[0]


def _assert_cells(matrix, want, label):
    got = {(c.source_id, c.target_id): c.confidence for c in matrix.cells()}
    want = {(s, t): value for s, t, value in want}
    assert got.keys() == want.keys(), label
    for pair, value in want.items():
        assert abs(got[pair] - value) <= TOLERANCE, (label, pair)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_integration_matches_golden(schemas, golden, parallelism):
    result = integrate_sources(
        schemas, threshold=NWAY_THRESHOLD, parallelism=parallelism,
        engine_config=EngineConfig.fast(), pair_budget=3 * len(schemas))
    assert result.clusters == [[tuple(ref) for ref in c]
                               for c in golden["clusters"]]
    assert [list(key) for key in result.matrices] == [
        [a, b] for a, b, _ in golden["matrices"]]
    for a, b, cells in golden["matrices"]:
        _assert_cells(result.matrices[(a, b)], cells, (a, b))
    assert list(result.source_to_target) == [
        name for name, _ in golden["source_to_target"]]
    for name, cells in golden["source_to_target"]:
        _assert_cells(result.source_to_target[name], cells, name)


@pytest.mark.parametrize("k", sorted(WORKLOAD_DIGESTS))
def test_family_workload_inputs_unchanged(k):
    schemas, truth = family_workload(265, seed=9000 + 1000 * k)
    payload = json.dumps(
        [[[g.name, sorted(g.element_ids)] for g in schemas], truth])
    assert hashlib.sha256(payload.encode()).hexdigest() == WORKLOAD_DIGESTS[k]
