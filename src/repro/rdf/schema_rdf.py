"""Conversions between the core model and its RDF representation.

Section 5.1: the blackboard's *"basic contents ... are schema graphs and
mapping matrices"*, stored as RDF so that any element can be annotated.
These functions define the canonical triple layout:

* a schema is an ``iw:Schema`` resource with ``iw:hasElement`` links;
* each element is an ``iw:SchemaElement`` with ``iw:name``, ``iw:kind``,
  ``iw:type`` and ``iw:documentation`` annotations;
* structural edges reuse the controlled edge vocabulary
  (``iw:contains-attribute`` etc.);
* a matrix is an ``iw:MappingMatrix`` with row/column resources carrying
  ``iw:variable-name`` / ``iw:code`` / ``iw:is-complete``, and cell
  resources carrying ``iw:confidence-score`` / ``iw:is-user-defined``.

The IRI scheme is deterministic so that graph → RDF → graph round-trips
and deltas are stable across workbench instances.
"""

from __future__ import annotations

import urllib.parse
from typing import Dict, List, Optional, Tuple

from ..core.correspondence import Correspondence
from ..core.elements import ElementKind, SchemaElement
from ..core.errors import StoreError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from .namespace import IW_NS, Namespace
from .store import TripleStore
from .term import IRI, Literal, literal
from .triple import Triple
from . import vocabulary as V

SCHEMA_BASE = Namespace("http://mitre.org/iw/schema/")
ELEMENT_BASE = Namespace("http://mitre.org/iw/element/")
MATRIX_BASE = Namespace("http://mitre.org/iw/matrix/")


def _quote(name: str) -> str:
    return urllib.parse.quote(name, safe="")


def schema_iri(schema_name: str) -> IRI:
    return SCHEMA_BASE.term(_quote(schema_name))


def element_iri(schema_name: str, element_id: str) -> IRI:
    return ELEMENT_BASE.term(f"{_quote(schema_name)}/{_quote(element_id)}")


def matrix_iri(matrix_name: str) -> IRI:
    return MATRIX_BASE.term(_quote(matrix_name))


def row_iri(matrix_name: str, element_id: str) -> IRI:
    return MATRIX_BASE.term(f"{_quote(matrix_name)}/row/{_quote(element_id)}")


def column_iri(matrix_name: str, element_id: str) -> IRI:
    return MATRIX_BASE.term(f"{_quote(matrix_name)}/col/{_quote(element_id)}")


def cell_iri(matrix_name: str, source_id: str, target_id: str) -> IRI:
    return MATRIX_BASE.term(
        f"{_quote(matrix_name)}/cell/{_quote(source_id)}/{_quote(target_id)}"
    )


# -- schema graph -> RDF ------------------------------------------------------

def schema_to_rdf(graph: SchemaGraph, store: TripleStore) -> IRI:
    """Write a schema graph into the store; returns the schema's IRI.

    The whole graph lands via one :meth:`TripleStore.add_many` bulk
    mutation, so transaction logs and other batch listeners pay one
    callback per schema load instead of one per triple.
    """
    s_iri = schema_iri(graph.name)
    triples: List[Triple] = [
        Triple(s_iri, V.RDF_TYPE, V.SCHEMA_CLASS),
        Triple(s_iri, V.NAME, literal(graph.name)),
    ]
    element_iris: Dict[str, IRI] = {}
    for element in graph:
        e_iri = element_iri(graph.name, element.element_id)
        element_iris[element.element_id] = e_iri
        triples.append(Triple(s_iri, V.HAS_ELEMENT, e_iri))
        triples.append(Triple(e_iri, V.RDF_TYPE, V.ELEMENT_CLASS))
        triples.append(Triple(e_iri, V.NAME, literal(element.name)))
        triples.append(Triple(e_iri, V.KIND, literal(element.kind.value)))
        if element.datatype:
            triples.append(Triple(e_iri, V.TYPE, literal(element.datatype)))
        if element.documentation:
            triples.append(Triple(e_iri, V.DOCUMENTATION, literal(element.documentation)))
        for key, value in element.annotations.items():
            if isinstance(value, (str, int, float, bool)):
                triples.append(
                    Triple(e_iri, IW_NS.term(f"annotation-{_quote(key)}"), literal(value))
                )
    triples.append(Triple(s_iri, V.HAS_ROOT, element_iris[graph.root.element_id]))
    for edge in graph.edges:
        predicate = V.EDGE_LABEL_TO_IRI.get(edge.label, IW_NS.term(_quote(edge.label)))
        triples.append(Triple(element_iris[edge.subject], predicate, element_iris[edge.object]))
    store.add_many(triples)
    return s_iri


def _schema_slices(
    graph: SchemaGraph,
) -> "Tuple[Dict[object, Dict[IRI, List[object]]], int]":
    """The canonical schema layout as ``{subject: {predicate: [objects]}}``.

    The schema-side mirror of :func:`_matrix_slices`: the single source
    of truth for the schema→RDF shape that both :func:`schema_triples`
    (which flattens it) and the delta branch of :func:`serialize_schema`
    (which diffs it against the store's index slices without
    materializing a :class:`Triple` per statement) build on.  Returns
    the nested slices plus the total statement count.
    """
    s_iri = schema_iri(graph.name)
    qname = _quote(graph.name)
    term = ELEMENT_BASE.term
    slices: Dict[object, Dict[IRI, List[object]]] = {}
    total = 0

    m_slice: Dict[IRI, List[object]] = slices.setdefault(s_iri, {})
    m_slice[V.RDF_TYPE] = [V.SCHEMA_CLASS]
    m_slice[V.NAME] = [literal(graph.name)]
    has_elements = m_slice.setdefault(V.HAS_ELEMENT, [])
    total += 2
    element_iris: Dict[str, IRI] = {}
    for element in graph:
        e_iri = term(f"{qname}/{_quote(element.element_id)}")
        element_iris[element.element_id] = e_iri
        has_elements.append(e_iri)
        e_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.ELEMENT_CLASS],
            V.NAME: [literal(element.name)],
            V.KIND: [literal(element.kind.value)],
        }
        total += 4
        if element.datatype:
            e_slice[V.TYPE] = [literal(element.datatype)]
            total += 1
        if element.documentation:
            e_slice[V.DOCUMENTATION] = [literal(element.documentation)]
            total += 1
        for key, value in element.annotations.items():
            if isinstance(value, (str, int, float, bool)):
                e_slice[IW_NS.term(f"annotation-{_quote(key)}")] = [literal(value)]
                total += 1
        slices[e_iri] = e_slice
    m_slice[V.HAS_ROOT] = [element_iris[graph.root.element_id]]
    total += 1
    for edge in graph.edges:
        predicate = V.EDGE_LABEL_TO_IRI.get(edge.label, IW_NS.term(_quote(edge.label)))
        e_slice = slices[element_iris[edge.subject]]
        objs = e_slice.get(predicate)
        if objs is None:
            objs = e_slice[predicate] = []
        objs.append(element_iris[edge.object])
        total += 1
    if not has_elements:
        del m_slice[V.HAS_ELEMENT]
    return slices, total


def schema_triples(graph: SchemaGraph) -> List[Triple]:
    """The canonical triple layout of a schema, as one list.

    Flattens :func:`_schema_slices`, so it is content-identical (as a
    set) to what :func:`schema_to_rdf` writes and to what the delta
    serializer diffs.
    """
    slices, _total = _schema_slices(graph)
    triples: List[Triple] = []
    append = triples.append
    for subject, by_pred in slices.items():
        for predicate, objs in by_pred.items():
            for obj in objs:
                append(Triple(subject, predicate, obj))
    return triples


def remove_schema(store: TripleStore, schema_name: str) -> int:
    """Remove a schema and all its element triples.

    Also strips triples *pointing at* the schema or its elements
    (matrix row/column links, third-party annotations), so nothing
    dangles.  Returns the number of triples removed; zero if no such
    schema is stored.
    """
    s_iri = schema_iri(schema_name)
    element_iris = [
        obj for obj in store.objects(s_iri, V.HAS_ELEMENT)
        if isinstance(obj, IRI)
    ]
    removed = store.remove_matching(subject=s_iri)
    for e_iri in element_iris:
        removed += store.remove_matching(subject=e_iri)
        removed += store.remove_matching(obj=e_iri)
    removed += store.remove_matching(obj=s_iri)
    return removed


def _dirty_schema_elements(previous: SchemaGraph, graph: SchemaGraph) -> set:
    """Element ids whose RDF subject slices may differ between versions.

    A lightweight mirror of the harmony engine's ``graph_delta`` kept
    local so :mod:`repro.rdf` never imports :mod:`repro.harmony`:
    added/removed ids, attribute-level changes (name, kind, datatype,
    documentation, annotations), and the *subjects* of added or removed
    edges (edge triples live in the subject element's slice).
    """
    old_ids = set(previous.element_ids)
    new_ids = set(graph.element_ids)
    dirty = old_ids ^ new_ids
    for element_id in old_ids & new_ids:
        old = previous.element(element_id)
        new = graph.element(element_id)
        if (
            old.name != new.name
            or old.kind != new.kind
            or old.datatype != new.datatype
            or old.documentation != new.documentation
            or old.annotations != new.annotations
        ):
            dirty.add(element_id)
    old_edges = {(e.subject, e.label, e.object) for e in previous.edges}
    new_edges = {(e.subject, e.label, e.object) for e in graph.edges}
    for subject, _label, _obj in old_edges ^ new_edges:
        dirty.add(subject)
    return dirty


def serialize_schema(
    graph: SchemaGraph,
    store: TripleStore,
    delta: bool = False,
    previous: Optional[SchemaGraph] = None,
) -> IRI:
    """Schema serialization with an O(delta) re-serialization path.

    Both modes are idempotent and produce the same stored schema state
    as :func:`schema_to_rdf`:

    * **bulk** (``delta=False``) — remove any stored schema of the same
      name, then land the precomputed triple list in one ``add_many``;
    * **delta** (``delta=True``) — diff the desired layout against the
      stored subject slices and only remove the stale / add the fresh
      statements.  When *previous* (the graph version currently in the
      store) is given, the diff is restricted to the elements that
      actually changed between the versions — the evolve→serialize hot
      path touches O(delta) subjects instead of every element.  Unlike
      the bulk mode, *inbound* triples pointing at surviving elements
      (matrix links, third-party annotations) are preserved.

    *previous* must faithfully describe the stored version: a stale
    *previous* can leave superseded triples behind (callers like
    ``evolve_and_rematch`` pass the version they just read).
    """
    stats = _SERIALIZATION_STATS
    s_iri = schema_iri(graph.name)
    if not delta:
        removed = 0
        if V.SCHEMA_CLASS in store.objects(s_iri, V.RDF_TYPE):
            removed = remove_schema(store, graph.name)
        desired = schema_triples(graph)
        store.add_many(desired)
        stats["schema_bulk_serializations"] += 1
        stats["schema_triples_written"] += len(desired)
        stats["schema_triples_removed"] += removed
        return s_iri

    desired_slices, total = _schema_slices(graph)
    exists = V.SCHEMA_CLASS in store.objects(s_iri, V.RDF_TYPE)
    if previous is not None and previous.name != graph.name:
        previous = None
    subject_slice = store.subject_slice
    dropped_iris: List[IRI]
    if previous is not None and exists:
        dirty = _dirty_schema_elements(previous, graph)
        subjects = {s_iri}
        subjects.update(element_iri(graph.name, eid) for eid in dirty)
        dropped_iris = [
            element_iri(graph.name, eid)
            for eid in previous.element_ids
            if eid not in graph
        ]
    else:
        subjects = set(desired_slices)
        stored_elements = [
            obj for obj in store.objects(s_iri, V.HAS_ELEMENT)
            if isinstance(obj, IRI)
        ]
        subjects.update(stored_elements)
        dropped_iris = [e for e in stored_elements if e not in desired_slices]

    fresh: List[Triple] = []
    stale: List[Triple] = []
    fresh_append = fresh.append
    stale_append = stale.append
    reconcile = [s for s in desired_slices if s in subjects]
    reconcile.extend(s for s in subjects if s not in desired_slices)
    for subject in reconcile:
        desired_slice = desired_slices.get(subject)
        stored = subject_slice(subject)
        if desired_slice:
            for predicate, objs in desired_slice.items():
                have = stored.get(predicate) if stored else None
                if have is None:
                    for obj in objs:
                        fresh_append(Triple(subject, predicate, obj))
                else:
                    for obj in objs:
                        if obj not in have:
                            fresh_append(Triple(subject, predicate, obj))
        if stored:
            for predicate, objs in stored.items():
                want = desired_slice.get(predicate) if desired_slice else None
                gone = objs - set(want) if want else objs
                for obj in gone:
                    stale_append(Triple(subject, predicate, obj))
    stale.sort(key=Triple.sort_key)
    store.remove_many(stale)
    inbound_removed = 0
    for e_iri in dropped_iris:
        inbound_removed += store.remove_matching(obj=e_iri)
    store.add_many(fresh)
    stats["schema_delta_serializations"] += 1
    stats["schema_triples_written"] += len(fresh)
    stats["schema_triples_removed"] += len(stale) + inbound_removed
    stats["schema_triples_unchanged"] += total - len(fresh)
    return s_iri


def rdf_to_schema(store: TripleStore, schema_name: str) -> SchemaGraph:
    """Reconstruct a schema graph from its triples."""
    s_iri = schema_iri(schema_name)
    if V.SCHEMA_CLASS not in store.objects(s_iri, V.RDF_TYPE):
        raise StoreError(f"no schema named {schema_name!r} in the store")
    graph = SchemaGraph(schema_name)
    iri_to_id: Dict[IRI, str] = {}
    for obj in store.objects(s_iri, V.HAS_ELEMENT):
        assert isinstance(obj, IRI)
        name_lit = store.object(obj, V.NAME)
        kind_lit = store.object(obj, V.KIND)
        type_lit = store.object(obj, V.TYPE)
        doc_lit = store.object(obj, V.DOCUMENTATION)
        element_id = urllib.parse.unquote(obj.value.rsplit("/", 1)[-1])
        annotations = {}
        for predicate, values in store.describe(obj).items():
            prefix = IW_NS.base + "annotation-"
            if predicate.value.startswith(prefix):
                key = urllib.parse.unquote(predicate.value[len(prefix):])
                lit = values[0]
                if isinstance(lit, Literal):
                    annotations[key] = lit.to_python()
        graph.add_element(
            SchemaElement(
                element_id=element_id,
                name=name_lit.to_python() if isinstance(name_lit, Literal) else element_id,
                kind=ElementKind(kind_lit.to_python()) if isinstance(kind_lit, Literal) else ElementKind.ELEMENT,
                datatype=type_lit.to_python() if isinstance(type_lit, Literal) else None,
                documentation=doc_lit.to_python() if isinstance(doc_lit, Literal) else "",
                annotations=annotations,
            )
        )
        iri_to_id[obj] = element_id
    for e_iri, element_id in iri_to_id.items():
        for predicate, values in store.describe(e_iri).items():
            label = V.IRI_TO_EDGE_LABEL.get(predicate)
            if label is None:
                continue
            for value in values:
                if isinstance(value, IRI) and value in iri_to_id:
                    graph.add_edge(element_id, label, iri_to_id[value])
    return graph


def schemas_in_store(store: TripleStore) -> List[str]:
    """Names of all schemas present in the store."""
    names = []
    for subject in store.subjects(V.RDF_TYPE, V.SCHEMA_CLASS):
        lit = store.object(subject, V.NAME)
        if isinstance(lit, Literal):
            names.append(lit.lexical)
    return sorted(names)


# -- mapping matrix -> RDF --------------------------------------------------------

#: process-wide bulk/delta matrix-serialization counters; surfaced via
#: :meth:`HarmonyEngine.fastpath_stats` and asserted in perf_smoke.py
_SERIALIZATION_STATS = {
    "matrix_bulk_serializations": 0,
    "matrix_delta_serializations": 0,
    "matrix_triples_written": 0,
    "matrix_triples_removed": 0,
    "matrix_triples_unchanged": 0,
    "schema_bulk_serializations": 0,
    "schema_delta_serializations": 0,
    "schema_triples_written": 0,
    "schema_triples_removed": 0,
    "schema_triples_unchanged": 0,
}


def serialization_stats() -> Dict[str, int]:
    """A snapshot of the matrix/schema-serialization counters."""
    return dict(_SERIALIZATION_STATS)


def reset_serialization_stats() -> None:
    for key in _SERIALIZATION_STATS:
        _SERIALIZATION_STATS[key] = 0


def _matrix_slices(
    matrix: MappingMatrix,
) -> "Tuple[Dict[object, Dict[IRI, List[object]]], int]":
    """The canonical matrix layout as ``{subject: {predicate: [objects]}}``.

    This is the single source of truth for the matrix→RDF shape.  Both
    :func:`matrix_triples` (which flattens it) and the delta branch of
    :func:`serialize_matrix` (which diffs it against the store's index
    slices without materializing a :class:`Triple` per statement) build
    on it, so bulk and delta serialization can never drift apart.

    The matrix name is quoted once and every row/column identifier is
    interned in a dict, so the cell loop — the bulk of a big matrix —
    reuses the quoted ids instead of re-quoting three per cell.  Returns
    the nested slices plus the total statement count.
    """
    qname = _quote(matrix.name)
    m_iri = matrix_iri(matrix.name)
    slices: Dict[object, Dict[IRI, List[object]]] = {}
    total = 0

    def _slot(subject: object, predicate: IRI) -> List[object]:
        by_pred = slices.get(subject)
        if by_pred is None:
            by_pred = slices[subject] = {}
        objs = by_pred.get(predicate)
        if objs is None:
            objs = by_pred[predicate] = []
        return objs

    m_slice: Dict[IRI, List[object]] = slices.setdefault(m_iri, {})
    m_slice[V.RDF_TYPE] = [V.MATRIX_CLASS]
    m_slice[V.NAME] = [literal(matrix.name)]
    total += 2
    if matrix.code:
        m_slice[V.CODE] = [literal(matrix.code)]
        total += 1
    quoted_ids: Dict[str, str] = {}

    def _qid(element_id: str) -> str:
        quoted = quoted_ids.get(element_id)
        if quoted is None:
            quoted = quoted_ids[element_id] = _quote(element_id)
        return quoted

    term = MATRIX_BASE.term
    row_iris: Dict[str, IRI] = {}
    col_iris: Dict[str, IRI] = {}
    has_rows = m_slice.setdefault(V.HAS_ROW, [])
    for element_id in matrix.row_ids:
        header = matrix.row(element_id)
        r_iri = term(f"{qname}/row/{_qid(element_id)}")
        row_iris[element_id] = r_iri
        has_rows.append(r_iri)
        r_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.ROW_CLASS],
            V.ROW_ELEMENT: [element_iri(header.schema_name, element_id)],
            V.NAME: [literal(element_id)],
            V.IS_COMPLETE: [literal(header.is_complete)],
        }
        total += 5
        if header.variable_name:
            r_slice[V.VARIABLE_NAME] = [literal(header.variable_name)]
            total += 1
        slices[r_iri] = r_slice
    has_columns = m_slice.setdefault(V.HAS_COLUMN, [])
    for element_id in matrix.column_ids:
        header = matrix.column(element_id)
        c_iri = term(f"{qname}/col/{_qid(element_id)}")
        col_iris[element_id] = c_iri
        has_columns.append(c_iri)
        c_slice: Dict[IRI, List[object]] = {
            V.RDF_TYPE: [V.COLUMN_CLASS],
            V.COLUMN_ELEMENT: [element_iri(header.schema_name, element_id)],
            V.NAME: [literal(element_id)],
            V.IS_COMPLETE: [literal(header.is_complete)],
        }
        total += 5
        if header.code:
            c_slice[V.CODE] = [literal(header.code)]
            total += 1
        slices[c_iri] = c_slice
    has_cells = m_slice.setdefault(V.HAS_CELL, [])
    rdf_type, cell_class = V.RDF_TYPE, V.CELL_CLASS
    cell_row, cell_column = V.CELL_ROW, V.CELL_COLUMN
    confidence_score, is_user_defined = V.CONFIDENCE_SCORE, V.IS_USER_DEFINED
    for cell in matrix.cells():
        source_id, target_id = cell.source_id, cell.target_id
        c_iri = term(f"{qname}/cell/{_qid(source_id)}/{_qid(target_id)}")
        r_iri = row_iris.get(source_id)
        if r_iri is None:
            r_iri = term(f"{qname}/row/{_qid(source_id)}")
        col_iri_ = col_iris.get(target_id)
        if col_iri_ is None:
            col_iri_ = term(f"{qname}/col/{_qid(target_id)}")
        has_cells.append(c_iri)
        slices[c_iri] = {
            rdf_type: [cell_class],
            cell_row: [r_iri],
            cell_column: [col_iri_],
            confidence_score: [literal(float(cell.confidence))],
            is_user_defined: [literal(cell.is_user_defined)],
        }
        total += 6
    for predicate in (V.HAS_ROW, V.HAS_COLUMN, V.HAS_CELL):
        if not m_slice[predicate]:
            del m_slice[predicate]
    return slices, total


def matrix_triples(matrix: MappingMatrix) -> List[Triple]:
    """The canonical triple layout of a matrix, as one list.

    Flattens :func:`_matrix_slices`, so it is byte-identical in content
    to what the delta serializer diffs.  Shared by :func:`matrix_to_rdf`
    and :func:`serialize_matrix`.
    """
    slices, total = _matrix_slices(matrix)
    triples: List[Triple] = []
    append = triples.append
    for subject, by_pred in slices.items():
        for predicate, objs in by_pred.items():
            for obj in objs:
                append(Triple(subject, predicate, obj))
    return triples


def _matrix_part_iris(store: TripleStore, m_iri: IRI) -> List[IRI]:
    """The row/column/cell resources a stored matrix links to."""
    parts: List[IRI] = []
    for predicate in (V.HAS_ROW, V.HAS_COLUMN, V.HAS_CELL):
        parts.extend(
            obj for obj in store.objects(m_iri, predicate)
            if isinstance(obj, IRI)
        )
    return parts


def remove_matrix(store: TripleStore, matrix_name: str) -> int:
    """Remove a matrix and all its row/column/cell triples.

    Also strips triples *pointing at* the parts (annotations on cells),
    so nothing dangles.  Returns the number of triples removed; zero if
    no such matrix is stored.
    """
    m_iri = matrix_iri(matrix_name)
    parts = _matrix_part_iris(store, m_iri)
    removed = store.remove_matching(subject=m_iri)
    for part in parts:
        removed += store.remove_matching(subject=part)
        removed += store.remove_matching(obj=part)
    return removed


def matrix_to_rdf(matrix: MappingMatrix, store: TripleStore) -> IRI:
    """Write a mapping matrix into the store; returns the matrix IRI.

    Idempotent: a previously stored matrix of the same name is removed
    first (:func:`remove_matrix`), so re-serializing after a rematch can
    never leave superseded cell triples behind.
    """
    m_iri = matrix_iri(matrix.name)
    if V.MATRIX_CLASS in store.objects(m_iri, V.RDF_TYPE):
        remove_matrix(store, matrix.name)
    store.add_many(matrix_triples(matrix))
    return m_iri


def serialize_matrix(
    matrix: MappingMatrix, store: TripleStore, delta: bool = False
) -> IRI:
    """Bulk matrix serialization (the path every match write takes).

    Both modes are idempotent and produce the same stored matrix state
    as :func:`matrix_to_rdf`:

    * **bulk** (``delta=False``) — remove any stored matrix of the same
      name, then land the precomputed triple list in one ``add_many``;
    * **delta** (``delta=True``) — diff the desired triples against the
      currently stored matrix subjects and only remove the stale / add
      the fresh ones, so re-serializing after a rematch touches changed
      cells alone.  Unlike the bulk mode, *inbound* triples pointing at
      surviving parts (e.g. annotations on cells) are preserved.
    """
    stats = _SERIALIZATION_STATS
    m_iri = matrix_iri(matrix.name)
    if not delta:
        desired = matrix_triples(matrix)
        removed = 0
        if V.MATRIX_CLASS in store.objects(m_iri, V.RDF_TYPE):
            removed = remove_matrix(store, matrix.name)
        store.add_many(desired)
        stats["matrix_bulk_serializations"] += 1
        stats["matrix_triples_written"] += len(desired)
        stats["matrix_triples_removed"] += removed
        return m_iri

    # diff the desired layout against the store at the term level: each
    # (subject, predicate) index slice is compared as a set of objects,
    # so no Triple is materialized for statements that are staying put —
    # only the actual fresh/stale statements pay construction cost
    desired_slices, total = _matrix_slices(matrix)
    subject_slice = store.subject_slice
    fresh: List[Triple] = []
    fresh_append = fresh.append
    for subject, by_pred in desired_slices.items():
        stored = subject_slice(subject)
        if stored:
            for predicate, objs in by_pred.items():
                have = stored.get(predicate)
                if have is None:
                    for obj in objs:
                        fresh_append(Triple(subject, predicate, obj))
                else:
                    for obj in objs:
                        if obj not in have:
                            fresh_append(Triple(subject, predicate, obj))
        else:
            for predicate, objs in by_pred.items():
                for obj in objs:
                    fresh_append(Triple(subject, predicate, obj))
    subjects = {m_iri}
    subjects.update(_matrix_part_iris(store, m_iri))
    stale: List[Triple] = []
    for subject in subjects:
        desired_slice = desired_slices.get(subject)
        stored = subject_slice(subject)
        for predicate, objs in stored.items():
            want = desired_slice.get(predicate) if desired_slice else None
            gone = objs - set(want) if want else objs
            for obj in gone:
                stale.append(Triple(subject, predicate, obj))
    stale.sort(key=Triple.sort_key)
    store.remove_many(stale)
    store.add_many(fresh)
    stats["matrix_delta_serializations"] += 1
    stats["matrix_triples_written"] += len(fresh)
    stats["matrix_triples_removed"] += len(stale)
    stats["matrix_triples_unchanged"] += total - len(fresh)
    return m_iri


def write_cell(store: TripleStore, matrix_name: str, cell: Correspondence) -> IRI:
    """Write (or refresh) one mapping cell's triples."""
    c_iri = cell_iri(matrix_name, cell.source_id, cell.target_id)
    m_iri = matrix_iri(matrix_name)
    store.add(m_iri, V.HAS_CELL, c_iri)
    store.add(c_iri, V.RDF_TYPE, V.CELL_CLASS)
    store.add(c_iri, V.CELL_ROW, row_iri(matrix_name, cell.source_id))
    store.add(c_iri, V.CELL_COLUMN, column_iri(matrix_name, cell.target_id))
    store.set_value(c_iri, V.CONFIDENCE_SCORE, literal(float(cell.confidence)))
    store.set_value(c_iri, V.IS_USER_DEFINED, literal(cell.is_user_defined))
    return c_iri


def rdf_to_matrix(store: TripleStore, matrix_name: str) -> MappingMatrix:
    """Reconstruct a mapping matrix from its triples."""
    m_iri = matrix_iri(matrix_name)
    if V.MATRIX_CLASS not in store.objects(m_iri, V.RDF_TYPE):
        raise StoreError(f"no mapping matrix named {matrix_name!r} in the store")
    matrix = MappingMatrix(matrix_name)
    code = store.object(m_iri, V.CODE)
    if isinstance(code, Literal):
        matrix.code = code.lexical

    def _schema_of(element_ref: Optional[object]) -> str:
        if isinstance(element_ref, IRI) and element_ref in ELEMENT_BASE:
            path = ELEMENT_BASE.local_name(element_ref)
            return urllib.parse.unquote(path.split("/", 1)[0])
        return ""

    for r in store.objects(m_iri, V.HAS_ROW):
        assert isinstance(r, IRI)
        name = store.object(r, V.NAME)
        element_id = name.lexical if isinstance(name, Literal) else ""
        header = matrix.add_row(element_id, schema_name=_schema_of(store.object(r, V.ROW_ELEMENT)))
        complete = store.object(r, V.IS_COMPLETE)
        header.is_complete = bool(complete.to_python()) if isinstance(complete, Literal) else False
        variable = store.object(r, V.VARIABLE_NAME)
        if isinstance(variable, Literal):
            header.variable_name = variable.lexical
    for c in store.objects(m_iri, V.HAS_COLUMN):
        assert isinstance(c, IRI)
        name = store.object(c, V.NAME)
        element_id = name.lexical if isinstance(name, Literal) else ""
        header = matrix.add_column(element_id, schema_name=_schema_of(store.object(c, V.COLUMN_ELEMENT)))
        complete = store.object(c, V.IS_COMPLETE)
        header.is_complete = bool(complete.to_python()) if isinstance(complete, Literal) else False
        code_lit = store.object(c, V.CODE)
        if isinstance(code_lit, Literal):
            header.code = code_lit.lexical
    for cl in store.objects(m_iri, V.HAS_CELL):
        assert isinstance(cl, IRI)
        path = MATRIX_BASE.local_name(cl)
        parts = path.split("/")
        # <matrix>/cell/<source>/<target>
        if len(parts) != 4 or parts[1] != "cell":
            raise StoreError(f"malformed cell IRI {cl}")
        source_id = urllib.parse.unquote(parts[2])
        target_id = urllib.parse.unquote(parts[3])
        conf = store.object(cl, V.CONFIDENCE_SCORE)
        user = store.object(cl, V.IS_USER_DEFINED)
        confidence = float(conf.to_python()) if isinstance(conf, Literal) else 0.0
        user_defined = bool(user.to_python()) if isinstance(user, Literal) else False
        matrix.set_confidence(source_id, target_id, confidence, user_defined=user_defined)
    return matrix


def matrices_in_store(store: TripleStore) -> List[str]:
    names = []
    for subject in store.subjects(V.RDF_TYPE, V.MATRIX_CLASS):
        lit = store.object(subject, V.NAME)
        if isinstance(lit, Literal):
            names.append(lit.lexical)
    return sorted(names)
