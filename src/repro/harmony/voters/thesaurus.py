"""Thesaurus voter: name comparison after synonym expansion.

Section 4: *"Another matcher expands the elements' names using a
thesaurus."*  Names whose tokens are pairwise synonyms (``vendor`` /
``supplier``) score highly even with zero lexical overlap.
"""

from __future__ import annotations

from typing import List

from ...core.elements import SchemaElement
from .base import MatchContext, MatchVoter, calibrate


class ThesaurusVoter(MatchVoter):
    """Best-synonym-match token alignment.

    For each token of the shorter name, find the best token of the other
    name under synonym equivalence (1.0 if synonyms/equal, else 0), then
    average.  Purely a synonym signal: lexical similarity is the
    NameVoter's job, so near-miss strings contribute nothing here.
    """

    name = "thesaurus"

    def score(self, source: SchemaElement, target: SchemaElement, context: MatchContext) -> float:
        thesaurus = context.thesaurus
        tokens_a = context.features_of(source).expanded
        tokens_b = context.features_of(target).expanded
        if not tokens_a or not tokens_b:
            return 0.0

        def aligned(xs: List[str], ys: List[str]) -> float:
            hits = sum(1 for x in xs if any(thesaurus.are_synonyms(x, y) for y in ys))
            return hits / len(xs)

        overlap = (aligned(tokens_a, tokens_b) + aligned(tokens_b, tokens_a)) / 2.0
        if overlap == 0.0:
            return 0.0  # abstain: no synonym evidence either way
        return calibrate(overlap, zero_point=0.25, full_point=0.95, negative_floor=0.0)
