"""The integration blackboard (Section 5.1).

*"The integration blackboard (IB) is a shared repository for information
relevant to schema integration that is intended to be accessed by multiple
tools, including schemata, mappings, and their component elements."*

Everything lives as RDF triples in one :class:`~repro.rdf.TripleStore`;
this class is the typed facade tools use: put/get schema graphs and
mapping matrices, cell-level updates, the shared focus context
(Section 5.1.3), and durable save/load so a blackboard can be *"shared
across multiple workbench instances"*.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.correspondence import Correspondence
from ..core.errors import StoreError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..rdf import schema_rdf
from ..rdf.durability import DurableStore
from ..rdf.namespace import IW_NS
from ..rdf.store import TripleStore
from ..rdf.serialize import from_ntriples, to_ntriples
from ..rdf.term import IRI, Literal, literal
from ..rdf import vocabulary as V

#: Well-known subject carrying workbench-wide state (focus, etc.).
_WORKBENCH = IW_NS.workbench


class IntegrationBlackboard:
    """Typed access to the shared RDF repository.

    By default the repository is memory-only.  Passing ``durable=`` (a
    directory path) puts a :class:`~repro.rdf.durability.DurableStore`
    underneath instead: every mutation is write-ahead logged, the
    directory is recovered on open (so a session survives a crash or
    restart), :meth:`checkpoint` compacts the log, and the WAL frame
    stream can feed read-only replicas.  ``fsync`` and
    ``auto_checkpoint_bytes`` pass through to the durable layer.
    """

    def __init__(
        self,
        store: Optional[TripleStore] = None,
        durable: Optional[str] = None,
        fsync: str = "commit",
        auto_checkpoint_bytes: Optional[int] = None,
    ) -> None:
        if durable is not None:
            if store is not None:
                raise StoreError(
                    "pass either store= or durable=, not both — a durable "
                    "blackboard owns its recovered store")
            self.durability: Optional[DurableStore] = DurableStore(
                durable, fsync=fsync,
                auto_checkpoint_bytes=auto_checkpoint_bytes,
            )
            self.store = self.durability.store
        else:
            self.durability = None
            self.store = store if store is not None else TripleStore()

    # -- schemata -----------------------------------------------------------------

    def put_schema(
        self,
        graph: SchemaGraph,
        delta: bool = False,
        previous: Optional[SchemaGraph] = None,
    ) -> IRI:
        """Write (or replace) a schema graph.

        With ``delta=True`` the write goes through
        :func:`~repro.rdf.schema_rdf.serialize_schema`'s diffing path:
        only statements that actually changed relative to the stored
        version are touched, and passing *previous* (the stored
        version, as ``evolve_and_rematch`` does) narrows the diff to
        the changed elements — O(delta) instead of O(schema).
        """
        if delta:
            return schema_rdf.serialize_schema(
                graph, self.store, delta=True, previous=previous
            )
        if graph.name in self.schema_names():
            self.remove_schema(graph.name)
        return schema_rdf.schema_to_rdf(graph, self.store)

    def get_schema(self, name: str) -> SchemaGraph:
        return schema_rdf.rdf_to_schema(self.store, name)

    def has_schema(self, name: str) -> bool:
        return name in self.schema_names()

    def schema_names(self) -> List[str]:
        return schema_rdf.schemas_in_store(self.store)

    def remove_schema(self, name: str) -> int:
        """Remove a schema and all its element triples."""
        return schema_rdf.remove_schema(self.store, name)

    # -- mapping matrices ---------------------------------------------------------------

    def put_matrix(self, matrix: MappingMatrix, delta: bool = False) -> IRI:
        """Write (or replace) a whole mapping matrix.

        With ``delta=True`` (what every match write uses) the write
        diffs against the stored cell set and touches only changed
        triples — idempotent either way, never leaving stale cells
        behind.  ``delta=False`` suits whole-object loads.
        """
        return schema_rdf.serialize_matrix(matrix, self.store, delta=delta)

    def get_matrix(self, name: str) -> MappingMatrix:
        return schema_rdf.rdf_to_matrix(self.store, name)

    def has_matrix(self, name: str) -> bool:
        return name in self.matrix_names()

    def matrix_names(self) -> List[str]:
        return schema_rdf.matrices_in_store(self.store)

    def remove_matrix(self, name: str) -> int:
        return schema_rdf.remove_matrix(self.store, name)

    # -- cell-level updates (what match tools write) --------------------------------------

    def update_cell(
        self,
        matrix_name: str,
        source_id: str,
        target_id: str,
        confidence: float,
        user_defined: bool = False,
    ) -> Correspondence:
        """Write one cell's confidence directly into the triple layout."""
        cell = Correspondence(source_id, target_id)
        if user_defined:
            if confidence >= 1.0:
                cell.accept()
            else:
                cell.reject()
        else:
            cell.suggest(confidence)
        schema_rdf.write_cell(self.store, matrix_name, cell)
        return cell

    def cell_confidence(
        self, matrix_name: str, source_id: str, target_id: str
    ) -> Optional[Tuple[float, bool]]:
        """Read one cell: (confidence, is_user_defined), or None."""
        c_iri = schema_rdf.cell_iri(matrix_name, source_id, target_id)
        conf = self.store.object(c_iri, V.CONFIDENCE_SCORE)
        if not isinstance(conf, Literal):
            return None
        user = self.store.object(c_iri, V.IS_USER_DEFINED)
        return (
            float(conf.to_python()),
            bool(user.to_python()) if isinstance(user, Literal) else False,
        )

    def set_row_variable(self, matrix_name: str, source_id: str, variable: str) -> None:
        r_iri = schema_rdf.row_iri(matrix_name, source_id)
        self.store.set_value(r_iri, V.VARIABLE_NAME, literal(variable))

    def set_column_code(self, matrix_name: str, target_id: str, code: str) -> None:
        c_iri = schema_rdf.column_iri(matrix_name, target_id)
        self.store.set_value(c_iri, V.CODE, literal(code))

    def set_matrix_code(self, matrix_name: str, code: str) -> None:
        m_iri = schema_rdf.matrix_iri(matrix_name)
        self.store.set_value(m_iri, V.CODE, literal(code))

    # -- shared focus context (Section 5.1.3) ------------------------------------------------

    def set_focus(self, element_id: Optional[str]) -> None:
        """Share the engineer's current sub-schema focus across tools."""
        self.store.remove_matching(subject=_WORKBENCH, predicate=V.FOCUS)
        if element_id is not None:
            self.store.add(_WORKBENCH, V.FOCUS, literal(element_id))

    def get_focus(self) -> Optional[str]:
        value = self.store.object(_WORKBENCH, V.FOCUS)
        if isinstance(value, Literal):
            return value.lexical
        return None

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Compact the durable layer (snapshot + WAL truncate)."""
        if self.durability is None:
            raise StoreError("checkpoint() requires a durable blackboard")
        self.durability.checkpoint()

    def close(self) -> None:
        """Flush and release the durable layer (no-op when in-memory)."""
        if self.durability is not None:
            self.durability.close()

    def dumps(self) -> str:
        """Serialize the whole blackboard as N-Triples."""
        return to_ntriples(self.store)

    @classmethod
    def loads(cls, text: str) -> "IntegrationBlackboard":
        return cls(store=from_ntriples(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "IntegrationBlackboard":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return (
            f"IntegrationBlackboard(schemas={len(self.schema_names())}, "
            f"matrices={len(self.matrix_names())}, triples={len(self.store)})"
        )
