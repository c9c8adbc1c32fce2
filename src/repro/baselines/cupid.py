"""Cupid-style matcher (Madhavan, Bernstein & Rahm, VLDB 2001).

Cupid's signature idea: weighted similarity
``wsim = w · ssim + (1 − w) · lsim`` where *lsim* is linguistic (name
tokens under a thesaurus) and *ssim* is structural, computed bottom-up —
two non-leaf elements are similar to the degree that their *leaf sets*
are similar, and leaf similarity feeds on datatype compatibility plus the
linguistic measure.
"""

from __future__ import annotations

from typing import List

from ..core.elements import ElementKind, SchemaElement
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..harmony.voters.base import kinds_comparable
from ..loaders.base import types_compatible
from ..text.kernels import MongeElkanKernel
from ..text.stemmer import stem
from ..text.thesaurus import Thesaurus
from ..text.tokenize import split_identifier
from .base import Matcher


class CupidStyleMatcher(Matcher):
    name = "cupid-style"

    def __init__(
        self,
        structure_weight: float = 0.5,
        thesaurus: Thesaurus = None,
    ) -> None:
        if not 0.0 <= structure_weight <= 1.0:
            raise ValueError("structure_weight must be in [0,1]")
        self.structure_weight = structure_weight
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus.default()
        #: memoized Monge-Elkan around the thesaurus token measure — the
        #: bottom-up ``_ssim`` recursion re-scores the same token pairs
        #: constantly
        self._monge_elkan = MongeElkanKernel(self._token_sim)

    # -- linguistic similarity ------------------------------------------------------

    def _tokens(self, element: SchemaElement) -> List[str]:
        tokens = []
        for token in split_identifier(element.name):
            tokens.append(self.thesaurus.expand_abbreviation(token))
        return tokens

    def _token_sim(self, a: str, b: str) -> float:
        if a == b or stem(a) == stem(b):
            return 1.0
        if self.thesaurus.are_synonyms(a, b):
            return 0.9
        return 0.0

    def _lsim(self, s: SchemaElement, t: SchemaElement) -> float:
        return self._monge_elkan.similarity(self._tokens(s), self._tokens(t))

    # -- structural similarity (bottom-up over leaf sets) ----------------------------

    def _leaf_sim(self, s: SchemaElement, t: SchemaElement) -> float:
        lsim = self._lsim(s, t)
        type_bonus = 0.0
        if s.kind is ElementKind.ATTRIBUTE and t.kind is ElementKind.ATTRIBUTE:
            type_bonus = 0.3 if types_compatible(s.datatype, t.datatype) else -0.2
        return max(0.0, min(1.0, 0.7 * lsim + type_bonus))

    def _ssim(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        s: SchemaElement,
        t: SchemaElement,
    ) -> float:
        leaves_s = [e for e in source.subtree(s.element_id) if not source.children(e.element_id)]
        leaves_t = [e for e in target.subtree(t.element_id) if not target.children(e.element_id)]
        if not leaves_s or not leaves_t:
            return self._lsim(s, t)
        # fraction of leaves with a strong counterpart on the other side
        threshold = 0.5

        def coverage(xs, ys) -> float:
            hits = 0
            for x in xs:
                if any(self._leaf_sim(x, y) >= threshold for y in ys):
                    hits += 1
            return hits / len(xs)

        return (coverage(leaves_s, leaves_t) + coverage(leaves_t, leaves_s)) / 2.0

    # -- matching --------------------------------------------------------------------

    def match(self, source: SchemaGraph, target: SchemaGraph) -> MappingMatrix:
        matrix = MappingMatrix.from_schemas(source, target)
        source_root = source.root.element_id
        target_root = target.root.element_id
        for s in source:
            if s.element_id == source_root or s.kind is ElementKind.KEY:
                continue
            for t in target:
                if t.element_id == target_root or t.kind is ElementKind.KEY:
                    continue
                if not kinds_comparable(s.kind, t.kind):
                    continue
                lsim = self._lsim(s, t)
                if s.is_container and t.is_container:
                    ssim = self._ssim(source, target, s, t)
                    wsim = self.structure_weight * ssim + (1 - self.structure_weight) * lsim
                else:
                    wsim = self._leaf_sim(s, t)
                if wsim > 0.0:
                    matrix.set_confidence(s.element_id, t.element_id, min(0.99, wsim))
        return matrix
