"""Differential harness: pluggable sweep backends for compiled flooding.

``CompiledPCG.run`` delegates its inner fixpoint to a
:class:`SweepBackend`.  The Python backend *is* the reference loop
(bit-identical to ``classic_flooding`` on a cold compile — that is
already pinned by ``test_flooding_compiled_differential``); the NumPy
backend re-expresses each sweep as a ``np.bincount`` scatter over
zero-copy ``np.frombuffer`` views of the same edge arrays.  Both
accumulate in edge order, so the backends perform the same float
additions in the same sequence — this file holds them to ``TOLERANCE``
(they are bit-identical in practice), covers the directional sweep the
same way, and proves the ``auto`` selector the engine uses prefers
numpy → python and degrades silently when NumPy cannot be imported.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ElementKind, SchemaElement, SchemaGraph
from repro.harmony import EngineConfig, HarmonyEngine
from repro.harmony import flooding as flooding_mod
from repro.harmony.flooding import (
    SWEEP_BACKENDS,
    FloodingConfig,
    NumpySweepBackend,
    PythonSweepBackend,
    classic_flooding,
    compile_pcg,
    directional_flooding,
    directional_flooding_compiled,
    reset_sweep_run_stats,
    resolve_sweep_backend,
    sweep_run_stats,
)

TOLERANCE = 1e-12

seeds = st.integers(min_value=0, max_value=10_000)

HAS_NUMPY = flooding_mod._probe_numpy() is not None
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _random_graph(name, seed, size=14):
    rng = random.Random(seed)
    graph = SchemaGraph.create(name)
    ids = [name]
    for i in range(size):
        element_id = f"{name}/e{i}"
        kind = (
            ElementKind.ENTITY if i % 4 == 0
            else ElementKind.ATTRIBUTE if i % 4 in (1, 2)
            else ElementKind.DOMAIN
        )
        graph.add_child(rng.choice(ids), SchemaElement(element_id, f"elem{i}", kind))
        ids.append(element_id)
    for _ in range(3):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            graph.add_edge(a, "references", b)
    return graph, ids


def _random_initial(source_ids, target_ids, seed, n=25):
    rng = random.Random(seed)
    return {
        (rng.choice(source_ids), rng.choice(target_ids)): rng.uniform(0.0, 1.0)
        for _ in range(n)
    }


def _random_scores(source_ids, target_ids, seed, n=25):
    rng = random.Random(seed)
    return {
        (rng.choice(source_ids), rng.choice(target_ids)): rng.uniform(-1.0, 1.0)
        for _ in range(n)
    }


def _cells(matrix):
    return {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }


def _no_accelerators(monkeypatch):
    monkeypatch.setattr(flooding_mod, "_probe_numpy", lambda: None)


# -- selector resolution ------------------------------------------------------


class TestBackendSelection:
    def test_selector_vocabulary(self):
        assert SWEEP_BACKENDS == ("auto", "python", "numpy")

    def test_python_selector_is_shared_singleton(self):
        first = resolve_sweep_backend("python")
        second = resolve_sweep_backend("python")
        assert isinstance(first, PythonSweepBackend)
        assert first is second
        assert first.name == "python"

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_sweep_backend("cuda")

    @needs_numpy
    def test_numpy_and_auto_select_numpy_without_c(self):
        assert isinstance(resolve_sweep_backend("numpy"), NumpySweepBackend)
        auto = resolve_sweep_backend("auto")
        assert isinstance(auto, NumpySweepBackend)
        assert auto.name == "numpy"

    def test_auto_degrades_to_python_without_accelerators(self, monkeypatch):
        _no_accelerators(monkeypatch)
        backend = resolve_sweep_backend("auto")
        assert isinstance(backend, PythonSweepBackend)

    def test_explicit_numpy_raises_actionably_without_numpy(self, monkeypatch):
        monkeypatch.setattr(flooding_mod, "_probe_numpy", lambda: None)
        with pytest.raises(ImportError, match=r"pip install \.\[fast\]"):
            resolve_sweep_backend("numpy")

    def test_engine_auto_runs_without_accelerators(self, monkeypatch):
        """The full fast preset must work on an accelerator-free install."""
        _no_accelerators(monkeypatch)
        source, sids = _random_graph("s", 3)
        target, tids = _random_graph("t", 4)
        engine = HarmonyEngine(config=EngineConfig.fast(flooding="classic"))
        run = engine.match(source, target)
        assert run.matrix.cell_count() > 0
        assert engine.fastpath_stats()["sweep"] == "python"

    @needs_numpy
    def test_engine_reports_numpy_backend(self):
        engine = HarmonyEngine(config=EngineConfig.fast(flooding="classic"))
        assert engine.fastpath_stats()["sweep"] == "numpy"


# -- sweep-run accounting -----------------------------------------------------


class TestSweepRunStats:
    def test_classic_runs_counted_per_backend(self):
        source, sids = _random_graph("s", 11)
        target, tids = _random_graph("t", 12)
        initial = _random_initial(sids, tids, 13)
        compiled = compile_pcg(source, target)
        reset_sweep_run_stats()
        compiled.run(initial, backend=resolve_sweep_backend("python"))
        compiled.run(initial, backend=resolve_sweep_backend("python"))
        stats = sweep_run_stats()
        assert stats["sweep_classic_runs_python"] == 2
        assert stats["sweep_directional_runs_python"] == 0

    def test_directional_runs_counted(self):
        source, sids = _random_graph("s", 14)
        target, tids = _random_graph("t", 15)
        scores = _random_scores(sids, tids, 16)
        reset_sweep_run_stats()
        directional_flooding_compiled(source, target, scores)
        stats = sweep_run_stats()
        assert stats["sweep_directional_runs_python"] == 1
        assert stats["sweep_classic_runs_python"] == 0

    def test_stats_surface_in_engine_fastpath_stats(self):
        engine = HarmonyEngine(config=EngineConfig())
        stats = engine.fastpath_stats()
        for kind in ("classic", "directional"):
            for name in ("python", "numpy"):
                assert f"sweep_{kind}_runs_{name}" in stats


# -- numpy vs python vs reference --------------------------------------------


@needs_numpy
class TestNumpyDifferential:
    @given(seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_numpy_matches_python_and_reference(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        reference = classic_flooding(source, target, initial)
        compiled = compile_pcg(source, target)
        python = compiled.run(initial, backend=resolve_sweep_backend("python"))
        vectorized = compiled.run(initial, backend=resolve_sweep_backend("numpy"))
        assert python == reference  # cold compiled stays bit-identical
        assert vectorized.keys() == python.keys()
        for pair, value in python.items():
            assert abs(value - vectorized[pair]) <= TOLERANCE

    @given(seeds, seeds, seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_custom_config_matches(self, s1, s2, s3, iterations):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        config = FloodingConfig(max_iterations=iterations, epsilon=0.0)
        compiled = compile_pcg(source, target)
        python = compiled.run(initial, config, backend=resolve_sweep_backend("python"))
        vectorized = compiled.run(initial, config, backend=resolve_sweep_backend("numpy"))
        for pair, value in python.items():
            assert abs(value - vectorized[pair]) <= TOLERANCE

    def test_empty_initial_and_extra_pairs(self):
        source, _ = _random_graph("s", 1)
        target, _ = _random_graph("t", 2)
        compiled = compile_pcg(source, target)
        numpy_backend = resolve_sweep_backend("numpy")
        assert compiled.run({}, backend=numpy_backend) == compiled.run({})
        # pairs outside the structural PCG are interned past it and ride
        # through normalization on both backends
        lone = {("s/nowhere", "t/nowhere"): 0.7}
        assert compiled.run(lone, backend=numpy_backend) == compiled.run(lone)

    def test_backends_interleave_on_one_compiled_pcg(self):
        """Alternating backends on the same compiled structure (shared
        buffers, cached views) never changes results."""
        source, sids = _random_graph("s", 5)
        target, tids = _random_graph("t", 6)
        initial = _random_initial(sids, tids, 7)
        compiled = compile_pcg(source, target)
        python_backend = resolve_sweep_backend("python")
        numpy_backend = resolve_sweep_backend("numpy")
        first = compiled.run(initial, backend=python_backend)
        second = compiled.run(initial, backend=numpy_backend)
        third = compiled.run(initial, backend=python_backend)
        assert first == third
        for pair, value in first.items():
            assert abs(value - second[pair]) <= TOLERANCE

    def test_results_are_plain_floats(self):
        source, sids = _random_graph("s", 8)
        target, tids = _random_graph("t", 9)
        initial = _random_initial(sids, tids, 10)
        result = compile_pcg(source, target).run(
            initial, backend=resolve_sweep_backend("numpy")
        )
        assert all(type(value) is float for value in result.values())

    @given(seeds, seeds, seeds)
    @settings(max_examples=8, deadline=None)
    def test_engine_matrix_identical_across_backends(self, s1, s2, s3):
        source, _ = _random_graph("s", s1)
        target, _ = _random_graph("t", s2)
        config = EngineConfig.fast(flooding="classic")
        # an install without NumPy: the engine's "auto" resolves python
        with mock.patch.object(flooding_mod, "_probe_numpy", lambda: None):
            python_run = HarmonyEngine(config=config).match(source, target)
        numpy_engine = HarmonyEngine(config=config)
        numpy_cells = _cells(numpy_engine.match(source, target).matrix)
        assert numpy_engine.fastpath_stats()["sweep"] == "numpy"
        python_cells = _cells(python_run.matrix)
        assert set(python_cells) == set(numpy_cells)
        for pair, (confidence, decided) in python_cells.items():
            numpy_confidence, numpy_decided = numpy_cells[pair]
            assert decided == numpy_decided
            assert abs(confidence - numpy_confidence) <= TOLERANCE


# -- directional sweep across backends ----------------------------------------


class TestDirectionalBackends:
    @given(seeds, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_compiled_python_matches_reference(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_scores(sids, tids, s3)
        reference = directional_flooding(source, target, scores)
        compiled = directional_flooding_compiled(source, target, scores)
        assert compiled.keys() == reference.keys()
        for pair, value in reference.items():
            assert abs(value - compiled[pair]) <= TOLERANCE

    @needs_numpy
    @given(seeds, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_numpy_backend_matches_python(self, s1, s2, s3):
        # NumpySweepBackend inherits the reference directional loop, so
        # routing directional sweeps through it must change nothing
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_scores(sids, tids, s3)
        python = directional_flooding_compiled(
            source, target, scores, backend=resolve_sweep_backend("python")
        )
        vectorized = directional_flooding_compiled(
            source, target, scores, backend=resolve_sweep_backend("numpy")
        )
        assert vectorized == python
