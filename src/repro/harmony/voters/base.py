"""Match-voter framework.

Section 4: *"several match voters are invoked, each of which identifies
correspondences using a different strategy...  For each [source element,
target element] pair, each match voter establishes a confidence score in
the range (-1, +1) where -1 indicates that there is definitely no
correspondence, +1 indicates a definite correspondence and 0 indicates
complete uncertainty."*

Voters share a :class:`MatchContext` holding the two schema graphs, the
linguistic resources (thesaurus, TF-IDF corpus over all documentation) and
the per-element :class:`ElementFeatures` records of a :class:`FeatureStore`,
so each voter stays small and stateless.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from ...core.graph import SchemaGraph
from ...embed import EmbedConfig, EmbeddingSnapshot, HashEmbedder, resolve_embed_backend
from ...text import kernels
from ...text.stemmer import stem, stem_all
from ...text.stopwords import remove_stop_words
from ...text.tfidf import CorpusSnapshot, TfIdfCorpus, preprocess
from ...text.tfidf_sparse import SparseTfIdf
from ...text.thesaurus import Thesaurus
from ...text.tokenize import ngrams, split_identifier


class ElementFeatures:
    """What the name, thesaurus, acronym and structure voters and the
    blocker derive from one element alone, computed once per graph
    revision instead of once per scored pair."""

    __slots__ = ("split", "expanded", "name_tokens", "path_tokens",
                 "leaf_tokens", "blocking_keys")

    def __init__(
        self, graph: SchemaGraph, element: SchemaElement, thesaurus: Thesaurus
    ) -> None:
        #: raw identifier split of the name (the acronym voter's tokens)
        self.split: List[str] = split_identifier(element.name)
        expansions = [thesaurus.expand_abbreviation(t) for t in self.split]
        #: abbreviation-expanded split tokens, digits dropped (the
        #: thesaurus voter's tokens)
        self.expanded: List[str] = [t for t in expansions if not t.isdigit()]
        words: List[str] = []
        for expansion in expansions:
            words.extend(split_identifier(expansion) or [expansion])
        #: stemmed, stop-word-free, abbreviation-expanded name tokens
        self.name_tokens: List[str] = stem_all(remove_stop_words(words)) or words
        #: stemmed tokens of the root-to-element name path (root excluded)
        self.path_tokens: List[str] = [
            stem(t)
            for name in graph.path(element.element_id)[1:]
            for t in split_identifier(name)
        ]
        #: stemmed name tokens of the leaf descendants below the element
        self.leaf_tokens: FrozenSet[str] = frozenset(
            stem(token)
            for descendant in graph.subtree(element.element_id)[1:]
            if not graph.children(descendant.element_id)
            for token in split_identifier(descendant.name)
        )
        #: ``(key-config signature, sorted keys)``, filled by the blocker
        self.blocking_keys: Optional[Tuple[Tuple, List[str]]] = None


class FeatureStore:
    """Per-element feature tables, one per (graph, revision, thesaurus).

    An engine owns one store and hands it to every context it builds, so
    a schema matched against many partners (N-way integration) is
    featurized once, not once per pair.  Graphs are held weakly: a
    long-lived engine does not pin every graph it has matched.  A table
    is rebuilt, empty, when its graph's revision or the thesaurus moves;
    :meth:`carry` moves an evolved graph's still-valid records over.
    """

    def __init__(self) -> None:
        #: graph → (stamp, element id → record)
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: the built-in thesaurus for contexts given none — one object,
        #: so tables keyed on it keep hitting
        self.default_thesaurus = Thesaurus.default()
        #: tables built cold / carried over from an evolution
        self.builds = 0
        self.patches = 0

    def __reduce__(self):
        # a cache, not state: a pickled engine arrives with a cold store
        return (FeatureStore, ())

    def __len__(self) -> int:
        return len(self._tables)

    def table(
        self, graph: SchemaGraph, thesaurus: Thesaurus
    ) -> Dict[str, ElementFeatures]:
        """The element-id → record table of *graph* as it is now."""
        stamp = (graph.revision, thesaurus, thesaurus.revision)
        entry = self._tables.get(graph)
        if entry is None or entry[0] != stamp:
            entry = (stamp, {})
            self._tables[graph] = entry
            self.builds += 1
        return entry[1]

    def carry(
        self,
        old: SchemaGraph,
        old_revision: int,
        new: SchemaGraph,
        stale: set,
        thesaurus: Thesaurus,
    ) -> None:
        """Seed *new*'s table with *old*'s records (as of *old_revision*)
        except the *stale* element ids — the evolution closure."""
        if new is old and new.revision == old_revision:
            return  # unchanged side: its table is already current
        entry = self._tables.get(old)
        if entry is None or entry[0] != (old_revision, thesaurus, thesaurus.revision):
            return
        records = {k: v for k, v in entry[1].items() if k not in stale}
        self._tables[new] = ((new.revision, thesaurus, thesaurus.revision), records)
        self.patches += 1


class MatchContext:
    """Shared state for one matching problem (one source/target pair).

    The TF-IDF corpus is built over the union of both schemata's
    documentation, so inverse-document-frequency reflects which words
    discriminate *within this problem* — exactly the corpus the
    bag-of-words voter needs.
    """

    def __init__(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        thesaurus: Optional[Thesaurus] = None,
        corpus_snapshot: Optional[CorpusSnapshot] = None,
        embed_backend: str = "python",
        embed_config: Optional[EmbedConfig] = None,
        embedding_snapshot: Optional[EmbeddingSnapshot] = None,
        features: Optional[FeatureStore] = None,
    ) -> None:
        self.source = source
        self.target = target
        #: where per-element records live: the engine's store, so they
        #: outlive this context, or a private one
        self.features = features if features is not None else FeatureStore()
        self.thesaurus = (
            thesaurus if thesaurus is not None
            else self.features.default_thesaurus
        )
        #: the string-measure namespace voters score through: the
        #: memoized kernels, held to the reference ``repro.text.similarity``
        #: at 1e-12 by tests/text/test_kernels_differential.py
        self.sim = kernels
        self.corpus = TfIdfCorpus()
        #: the sparse TF-IDF engine: the documentation voter scores
        #: through one postings-driven ``all_pairs`` sweep instead of a
        #: dict cosine per pair (held to ``TfIdfCorpus.cosine`` at 1e-12
        #: by tests/text/test_tfidf_sparse_differential.py)
        self.sparse = SparseTfIdf(self.corpus)
        #: cross-schema similarity table from ``SparseTfIdf.all_pairs``;
        #: pairs absent from it have cosine exactly 0.0.  Invalidated by
        #: either corpus revision counter moving.
        self._pair_sims: Optional[Dict[Tuple[str, str], float]] = None
        self._pair_sims_rev: Optional[Tuple[int, int]] = None
        #: dense-embedding state (``repro.embed``): the embedder is built
        #: lazily on first :meth:`embedding_of` call, vectors are memoized
        #: per (graph name, element id) and invalidated by
        #: :meth:`patch_side` for the evolution closure.  A shared
        #: :class:`EmbeddingSnapshot` (N-way matching) serves
        #: pre-computed vectors, except for elements an evolution has
        #: since touched.
        self._embed_backend_selector = embed_backend
        self._embed_config = embed_config or EmbedConfig()
        self._embedder: Optional[HashEmbedder] = None
        self._embeddings: Dict[Tuple[str, str], List[float]] = {}
        self._embedding_snapshot = embedding_snapshot
        self._stale_snapshot_docs: set = set()
        #: cross-run voter-score memo: (voter name, source id, target id) →
        #: score.  Only populated when the engine reuses the context across
        #: refinement rounds; the engine owns invalidation.
        self.score_cache: Dict[Tuple[str, str, str], float] = {}
        self._source_docs: FrozenSet[str] = frozenset()
        source_docs = set()
        # with a shared CorpusSnapshot (N-way matching ships one per
        # worker) the documents arrive pre-preprocessed — bit-identical
        # to running the pipeline here, term order included
        for graph in (source, target):
            for element in graph:
                if element.documentation:
                    doc = self._doc_id(graph, element)
                    if corpus_snapshot is not None and doc in corpus_snapshot:
                        self.corpus.add_document_counts(
                            doc, corpus_snapshot.counts(doc))
                    else:
                        self.corpus.add_document(doc, element.documentation)
                    if graph is source:
                        source_docs.add(doc)
        self._source_docs = frozenset(source_docs)
        self.rebind(source, target)

    def is_current(self, source: SchemaGraph, target: SchemaGraph) -> bool:
        """Whether this context still describes *source* and *target*.

        True only for the same graph objects with no structural mutation
        since the context was built.
        """
        return (
            source is self.source
            and target is self.target
            and self._built_for == (source.revision, target.revision)
        )

    def patch_side(self, side, new_graph, closure_ids, delta) -> None:
        """Invalidate exactly the caches a schema evolution touched.

        *closure_ids* is the engine's evolution closure for this side
        (``repro.harmony.engine.evolution_closure``); *delta* the
        :class:`~repro.harmony.engine.GraphDelta`.  The new graph's
        feature table keeps every record outside the closure, and the
        TF-IDF corpus is patched in place —
        documents removed, replaced or added only where documentation
        actually changed, so the corpus revision (and with it every
        cosine memo) moves only when IDFs really shift.  Because the
        sparse TF-IDF engine interns terms from the *sorted* vocabulary,
        the patched corpus scores bit-identically to a freshly built one.

        Call once per side, then :meth:`rebind`.  The engine owns the
        voter-score cache; it prunes that separately.
        """
        old_graph = self.source if side == "source" else self.target
        graph_name = old_graph.name
        removed = delta.removed
        stale = set(closure_ids) | removed
        self.features.carry(
            old_graph, self._built_for[side == "target"], new_graph, stale,
            self.thesaurus)
        for element_id in stale:
            self._embeddings.pop((graph_name, element_id), None)
        if self._embedding_snapshot is not None:
            # the shared snapshot predates the evolution: vectors for the
            # touched closure must be re-hashed, not served stale
            for element_id in stale:
                self._stale_snapshot_docs.add(f"{graph_name}::{element_id}")
        for element_id in removed:
            doc = f"{graph_name}::{element_id}"
            if doc in self.corpus:
                self.corpus.remove_document(doc)
        for element_id in sorted(delta.doc_changed):
            element = new_graph.get(element_id)
            if element is None:
                continue
            doc = f"{graph_name}::{element_id}"
            if element.documentation:
                self.corpus.add_document(doc, element.documentation)
            elif doc in self.corpus:
                self.corpus.remove_document(doc)
        if side == "source":
            docs = {d for d in self._source_docs if d in self.corpus}
            for element_id in delta.doc_changed:
                doc = f"{graph_name}::{element_id}"
                if doc in self.corpus:
                    docs.add(doc)
            self._source_docs = frozenset(docs)

    def rebind(self, source: SchemaGraph, target: SchemaGraph) -> None:
        """Point the context at the (possibly new) graph objects after
        :meth:`patch_side` has been applied for both sides."""
        self.source = source
        self.target = target
        #: graph revisions at build time — is_current() compares against
        #: these so a mutated schema forces a context rebuild.
        self._built_for = (source.revision, target.revision)
        self._source_features = self.features.table(source, self.thesaurus)
        self._target_features = self.features.table(target, self.thesaurus)

    @staticmethod
    def _doc_id(graph: SchemaGraph, element: SchemaElement) -> str:
        return f"{graph.name}::{element.element_id}"

    def doc_id(self, graph: SchemaGraph, element: SchemaElement) -> str:
        return self._doc_id(graph, element)

    def cosine(self, doc_a: str, doc_b: str) -> float:
        """Documentation cosine, served from the ``all_pairs`` table.

        One postings sweep scores every cross-schema pair sharing
        vocabulary, and absent pairs are exactly 0.0.  The table is
        rebuilt when the corpus's learned word weights move
        (``weights_revision``) or the document set changes
        (``revision``), mirroring the engine's score-cache invalidation
        rule for ``uses_word_weights`` voters.
        """
        table = self.warm_pair_sims()
        value = table.get((doc_a, doc_b))
        if value is None:
            value = table.get((doc_b, doc_a))
        if value is not None:
            kernels.note_cache_event("cosine", hit=True)
            return value
        kernels.note_cache_event("cosine", hit=False)
        if (doc_a in self._source_docs) != (doc_b in self._source_docs):
            # cross-schema pair missing from the table: shares no term
            return 0.0
        # same-group lookup (self-match, within-schema probes): the table
        # never holds these, so fall back to the sorted-merge cosine.
        return self.sparse.cosine(doc_a, doc_b)

    def warm_pair_sims(self) -> Dict[Tuple[str, str], float]:
        """Build (or reuse) the sparse cross-schema similarity table.

        The documentation voter calls this from ``prepare`` so the one
        ``all_pairs`` sweep happens before (possibly parallel) scoring.
        """
        revision = (self.corpus.weights_revision, self.corpus.revision)
        if self._pair_sims is None or self._pair_sims_rev != revision:
            source_docs = self._source_docs
            self._pair_sims = self.sparse.all_pairs(
                group_of=lambda doc: doc in source_docs
            )
            self._pair_sims_rev = revision
        return self._pair_sims

    def graph_of(self, element: SchemaElement) -> SchemaGraph:
        """Which of the two graphs owns this element."""
        if element.element_id in self.source and self.source.get(element.element_id) is element:
            return self.source
        if element.element_id in self.target and self.target.get(element.element_id) is element:
            return self.target
        # fall back to id membership (copies of elements)
        if element.element_id in self.source:
            return self.source
        return self.target

    def features_of(
        self, element: SchemaElement, graph: Optional[SchemaGraph] = None
    ) -> ElementFeatures:
        """The element's feature record (built on first use per graph
        revision); *graph* defaults to :meth:`graph_of`."""
        if graph is None:
            graph = self.graph_of(element)
        if graph is self.source:
            table = self._source_features
        elif graph is self.target:
            table = self._target_features
        else:
            table = self.features.table(graph, self.thesaurus)
        record = table.get(element.element_id)
        if record is None:
            record = ElementFeatures(graph, element, self.thesaurus)
            table[element.element_id] = record
        return record

    @property
    def embedder(self) -> HashEmbedder:
        """The context's hash-projection embedder, resolved lazily so
        contexts that never touch embeddings pay nothing."""
        if self._embedder is None:
            self._embedder = HashEmbedder(
                self._embed_config,
                resolve_embed_backend(self._embed_backend_selector),
            )
        return self._embedder

    def embedding_features(
        self, graph: SchemaGraph, element: SchemaElement
    ) -> List[str]:
        """The lexical feature multiset one element hashes into.

        Mirrors the blocking index's key namespaces so ANN retrieval
        sees the same evidence as the inverted index, fused into one
        vector: name tokens ride the standard pipeline
        (:attr:`ElementFeatures.name_tokens`: abbreviation expansion →
        stop words → stemming) plus their thesaurus synonyms and
        character n-grams (subword robustness: ``lname``/``lastname`` share mass),
        documentation contributes its preprocessed terms, the
        containment parent its name tokens (generic attribute names
        under similar entities stay near) and containers their leaf
        attribute tokens.  Deliberately independent of the TF-IDF
        corpus composition, so the same element embeds identically in
        every context and in the N-way :class:`EmbeddingSnapshot`.
        """
        config = self._embed_config
        features: List[str] = []
        for token in self.features_of(element, graph).name_tokens:
            # tokens twice: exact-name evidence outweighs subword grams,
            # and integer counts keep backend parity bit-exact
            features.append(f"t:{token}")
            features.append(f"t:{token}")
            for synonym in self.thesaurus.synonyms(token):
                # same t: namespace as tokens — a synonym of A must land
                # on the token of B, like the inverted index's n: keys
                features.append(f"t:{synonym.lower()}")
        # grams over the raw (unstemmed) name, like the g: keys: stems
        # destroy the shared suffixes of pairs like version~revision
        for gram in sorted(set(ngrams(element.name, config.token_ngram))):
            features.append(f"g:{gram}")
        if config.use_documentation and element.documentation:
            for term in preprocess(element.documentation):
                features.append(f"d:{term}")
        parent = graph.parent(element.element_id)
        if parent is not None and parent.element_id != graph.root.element_id:
            for token in self.features_of(parent, graph).name_tokens:
                features.append(f"p:{token}")
        if element.kind in CONTAINER_KINDS:
            for token in self.features_of(element, graph).leaf_tokens:
                features.append(f"l:{token}")
        return features

    def embedding_of(
        self, graph: SchemaGraph, element: SchemaElement
    ) -> List[float]:
        """The element's L2-normalised hash-projection vector, memoized.

        Served from the shared N-way snapshot when one covers this
        element (and no evolution has touched it), hashed on demand
        otherwise.  All-zero vectors mean "no lexical evidence at all".
        """
        key = (graph.name, element.element_id)
        vector = self._embeddings.get(key)
        if vector is None:
            snapshot = self._embedding_snapshot
            doc = f"{graph.name}::{element.element_id}"
            if (
                snapshot is not None
                and doc in snapshot
                and doc not in self._stale_snapshot_docs
            ):
                vector = snapshot.vector(doc)
            else:
                vector = self.embedder.embed(
                    self.embedding_features(graph, element)
                )
            self._embeddings[key] = vector
        return vector

    def warm_embeddings(
        self, graph: SchemaGraph, elements: List[SchemaElement]
    ) -> None:
        """Memoize vectors for *elements* in one batched backend call.

        The ANN blocking path warms a whole schema side at once so the
        numpy backend pays one ``bincount`` instead of one call per
        element; snapshot-served and already-memoized elements are
        skipped.  Results are identical to element-at-a-time
        :meth:`embedding_of` calls.
        """
        missing: List[Tuple[Tuple[str, str], SchemaElement]] = []
        snapshot = self._embedding_snapshot
        for element in elements:
            key = (graph.name, element.element_id)
            if key in self._embeddings:
                continue
            doc = f"{graph.name}::{element.element_id}"
            if (
                snapshot is not None
                and doc in snapshot
                and doc not in self._stale_snapshot_docs
            ):
                self._embeddings[key] = snapshot.vector(doc)
            else:
                missing.append((key, element))
        if missing:
            vectors = self.embedder.embed_batch(
                [self.embedding_features(graph, element)
                 for _, element in missing]
            )
            for (key, _), vector in zip(missing, vectors):
                self._embeddings[key] = vector

    def candidate_pairs(self) -> List[Tuple[SchemaElement, SchemaElement]]:
        """All (source, target) pairs worth scoring.

        Roots are excluded and only kind-compatible pairs are generated:
        containers match containers, attributes match attributes, domains
        match domains.  This is the pruning every practical matcher applies
        before scoring an n×m space.
        """
        pairs: List[Tuple[SchemaElement, SchemaElement]] = []
        source_root = self.source.root.element_id
        target_root = self.target.root.element_id
        for s in self.source:
            if s.element_id == source_root or s.kind is ElementKind.KEY:
                continue
            for t in self.target:
                if t.element_id == target_root or t.kind is ElementKind.KEY:
                    continue
                if kinds_comparable(s.kind, t.kind):
                    pairs.append((s, t))
        return pairs


def kinds_comparable(a: ElementKind, b: ElementKind) -> bool:
    """Can elements of these kinds plausibly correspond?

    Containers correspond to containers (a relational TABLE can match an
    XML ELEMENT — Section 3.2's relational→XML example), attributes to
    attributes, domains to domains, values to values.
    """
    if a is b:
        return True
    if a in CONTAINER_KINDS and b in CONTAINER_KINDS:
        return True
    return False


def calibrate(
    similarity: float,
    zero_point: float = 0.35,
    full_point: float = 0.95,
    negative_floor: float = -0.5,
) -> float:
    """Map a [0,1] similarity into a (-1,+1) voter score.

    Similarities at or above *full_point* become +1-ish certainty; at
    *zero_point* the voter has no evidence (score 0); below it the score
    descends linearly to *negative_floor* — weak negative evidence, never
    a definite -1, because absence of lexical similarity alone should not
    veto a correspondence.
    """
    similarity = max(0.0, min(1.0, similarity))
    if similarity >= full_point:
        return 1.0
    if similarity >= zero_point:
        return (similarity - zero_point) / (full_point - zero_point)
    if zero_point == 0:
        return 0.0
    return (zero_point - similarity) / zero_point * negative_floor


class MatchVoter(ABC):
    """One matching strategy.

    ``score`` returns a confidence in [-1, +1]; 0 means "no evidence" —
    the merger then gives this voter no say on that pair.
    """

    #: Stable identifier used in merger weights and benchmark output.
    name: str = "voter"

    #: Whether the voter's scores depend on the corpus's learned word
    #: weights (Section 4.3) — the engine's cross-run score cache
    #: invalidates these voters' entries when the weights change.
    uses_word_weights: bool = False

    @abstractmethod
    def score(
        self,
        source: SchemaElement,
        target: SchemaElement,
        context: MatchContext,
    ) -> float:
        """Score one (source, target) pair under this strategy."""

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        """Whether this voter has anything to say about this pair at all."""
        return True

    def prepare(self, context: MatchContext) -> None:
        """One-time per-problem setup hook (default: nothing)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
