"""Differential harness: the optimized kernels vs the reference oracle.

``repro.text.similarity`` is the clarity-first reference; ``repro.text.
kernels`` is the memoized / early-exit / band-limited mirror the fast
match path runs on.  This harness is what lets the engine flip between
them without a correctness argument in prose: hypothesis-driven property
tests plus a frozen golden corpus of real schema tokens (the A12-large
registry pair and the orders/shippingNotice case-study pair) assert the
two agree to within ``TOLERANCE`` on every pair, and an engine run (which
scores through the kernels) reproduces the frozen matrix of the engine
that scored through the reference.
"""

import json
import os
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harmony import HarmonyEngine
from repro.text import kernels, similarity as reference

#: the acceptance bound; in practice the kernels are bitwise identical
TOLERANCE = 1e-12

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_schema_tokens.json")

#: (name, reference function, kernel function) for the string measures
STRING_MEASURES = [
    ("edit", reference.edit_similarity, kernels.edit_similarity),
    ("jaro", reference.jaro_similarity, kernels.jaro_similarity),
    ("jaro_winkler", reference.jaro_winkler_similarity, kernels.jaro_winkler_similarity),
    ("ngram", reference.ngram_similarity, kernels.ngram_similarity),
]

# schema-identifier-looking strings, mixed case and separators included
identifiers = st.text(
    alphabet=string.ascii_letters + string.digits + "_-. ", min_size=0, max_size=24
)
short_tokens = st.text(alphabet=string.ascii_letters + string.digits, min_size=0, max_size=10)
token_lists = st.lists(short_tokens, max_size=5)


def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestHypothesisDifferential:
    @pytest.mark.parametrize("name,ref,fast", STRING_MEASURES,
                             ids=[m[0] for m in STRING_MEASURES])
    @given(identifiers, identifiers)
    def test_string_measures_agree(self, name, ref, fast, a, b):
        assert abs(ref(a, b) - fast(a, b)) <= TOLERANCE

    @given(identifiers, identifiers)
    def test_levenshtein_agrees_unbounded(self, a, b):
        assert kernels.levenshtein_distance(a, b) == reference.levenshtein_distance(a, b)

    @given(identifiers, identifiers, st.integers(min_value=0, max_value=8))
    def test_banded_levenshtein_contract(self, a, b, k):
        """Within the band the exact distance comes back; beyond it, any
        value provably greater than the band."""
        true = reference.levenshtein_distance(a, b)
        banded = kernels.levenshtein_distance(a, b, max_distance=k)
        if true <= k:
            assert banded == true
        else:
            assert banded > k

    @given(identifiers, identifiers,
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    def test_edit_cutoff_contract(self, a, b, cutoff):
        """At or above the cutoff the value is exact; below it, whatever
        comes back stays below the cutoff — so thresholding at the cutoff
        makes identical decisions either way."""
        true = reference.edit_similarity(a, b)
        bounded = kernels.edit_similarity(a, b, cutoff=cutoff)
        if true >= cutoff:
            assert abs(bounded - true) <= TOLERANCE
        else:
            assert bounded < cutoff

    @given(identifiers, identifiers)
    def test_jaro_winkler_upper_bound_holds(self, a, b):
        assert reference.jaro_winkler_similarity(a, b) <= (
            kernels.jaro_winkler_upper_bound(a, b) + TOLERANCE
        )

    @given(token_lists, token_lists)
    @settings(max_examples=60)
    def test_monge_elkan_agrees(self, a, b):
        assert abs(reference.monge_elkan(a, b) - kernels.monge_elkan(a, b)) <= TOLERANCE

    @given(identifiers, identifiers, token_lists, token_lists)
    @settings(max_examples=60)
    def test_blended_name_similarity_agrees(self, a, b, ta, tb):
        assert abs(
            reference.blended_name_similarity(a, b, ta, tb)
            - kernels.blended_name_similarity(a, b, ta, tb)
        ) <= TOLERANCE

    @given(identifiers, identifiers)
    def test_cached_call_stable(self, a, b):
        """The memoized value and a repeat call are the same object-level
        float — caching never drifts."""
        assert kernels.jaro_winkler_similarity(a, b) == kernels.jaro_winkler_similarity(a, b)


class TestGoldenCorpus:
    """Every measure over every pair of frozen real schema strings."""

    def test_token_pairs_all_measures(self):
        tokens = golden()["tokens"]
        assert len(tokens) >= 150, "golden corpus suspiciously small"
        for name, ref, fast in STRING_MEASURES:
            worst = 0.0
            for a in tokens:
                for b in tokens:
                    diff = abs(ref(a, b) - fast(a, b))
                    if diff > worst:
                        worst = diff
            assert worst <= TOLERANCE, f"{name}: max |fast - reference| = {worst}"

    def test_name_pairs_all_measures(self):
        names = golden()["names"]
        # full cross product of names is ~80k pairs per measure; a stride
        # sample keeps the suite fast while still covering every name
        sample = names[::3]
        for name, ref, fast in STRING_MEASURES:
            for a in sample:
                for b in sample:
                    assert abs(ref(a, b) - fast(a, b)) <= TOLERANCE, (name, a, b)

    def test_monge_elkan_token_lists(self):
        lists = golden()["token_lists"]
        assert len(lists) >= 40
        for a in lists:
            for b in lists:
                diff = abs(reference.monge_elkan(a, b) - kernels.monge_elkan(a, b))
                assert diff <= TOLERANCE, (a, b)

    def test_score_pairs_matches_singles(self):
        tokens = golden()["tokens"][:60]
        pairs = [(a, b) for a in tokens for b in tokens[:10]]
        for measure, _, fast in STRING_MEASURES:
            batch = kernels.score_pairs(pairs, measure=measure)
            assert batch == [fast(a, b) for a, b in pairs]

    def test_score_pairs_cutoff_decisions_identical(self):
        """With a cutoff, the batch path may return bounds instead of
        exact values — but accept/reject at the cutoff never changes."""
        tokens = golden()["tokens"][:80]
        pairs = [(a, b) for a in tokens for b in tokens[:12]]
        cutoff = 0.85
        bounded = kernels.score_pairs(pairs, measure="jaro_winkler", cutoff=cutoff)
        exact = [reference.jaro_winkler_similarity(a, b) for a, b in pairs]
        for (a, b), got, want in zip(pairs, bounded, exact):
            assert (got >= cutoff) == (want >= cutoff), (a, b, got, want)
            if want >= cutoff:
                assert abs(got - want) <= TOLERANCE


class TestEngineEquivalence:
    """The engine scores through the kernels; its matrix must match the
    frozen matrix of the reference-measure engine."""

    def test_kernel_run_bit_identical(
        self, orders_graph, notice_graph, assert_engine_golden
    ):
        run = HarmonyEngine().match(orders_graph, notice_graph)
        assert_engine_golden("orders_notice/directional", run.matrix, TOLERANCE)
