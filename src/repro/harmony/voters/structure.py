"""Structure voter: positional evidence from name paths and leaf sets.

Complements similarity flooding (which propagates other voters' scores
through the graph) with direct structural measures:

* **path similarity** — the Monge-Elkan similarity of the two elements'
  root-to-element name paths; elements living under similarly-named
  ancestors get a boost;
* **leaf-context similarity** — for containers, the Jaccard overlap of
  the (stemmed) leaf-attribute names below each element; two entities
  whose attribute sets line up are probably the same concept, whatever
  their own names are.
"""

from __future__ import annotations

from ...core.elements import SchemaElement
from .base import MatchContext, MatchVoter, calibrate


class StructureVoter(MatchVoter):
    name = "structure"

    def score(self, source: SchemaElement, target: SchemaElement, context: MatchContext) -> float:
        features_s = context.features_of(source)
        features_t = context.features_of(target)
        path_sim = context.sim.monge_elkan(
            features_s.path_tokens, features_t.path_tokens
        )
        if source.is_container and target.is_container:
            leaves_s = features_s.leaf_tokens
            leaves_t = features_t.leaf_tokens
            if leaves_s and leaves_t:
                leaf_sim = context.sim.jaccard_similarity(leaves_s, leaves_t)
                similarity = 0.5 * path_sim + 0.5 * leaf_sim
            else:
                similarity = path_sim
        else:
            similarity = path_sim
        return calibrate(similarity, zero_point=0.4, full_point=0.95, negative_floor=-0.3)
