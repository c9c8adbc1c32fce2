"""The mapping library (Section 5.1.3).

*"The blackboard should maintain a library of mappings, partly to
facilitate mapping reuse, but also as a resource for some matching
tools."*

The library stores finished mapping matrices tagged with their schema
pair, supports lookup and *composition-based reuse*: if A→B and B→C are
in the library, :meth:`compose` derives a candidate A→C matrix; and
:meth:`suggest_for` turns past accepted correspondences into warm-start
suggestions for a new matrix over the same schemata (the "resource for
matching tools").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.correspondence import clamp_confidence
from ..core.matrix import MappingMatrix
from ..rdf.schema_rdf import matrix_iri
from ..rdf.term import Literal, literal
from ..rdf import vocabulary as V
from .blackboard import IntegrationBlackboard


@dataclass(frozen=True)
class LibraryEntry:
    matrix_name: str
    source_schema: str
    target_schema: str


class MappingLibrary:
    """Registry of reusable mappings over one blackboard."""

    def __init__(self, blackboard: IntegrationBlackboard) -> None:
        self.blackboard = blackboard

    def add(self, matrix: MappingMatrix, source_schema: str, target_schema: str) -> LibraryEntry:
        """Store a matrix in the library, tagged with its schema pair."""
        self.blackboard.put_matrix(matrix)
        m_iri = matrix_iri(matrix.name)
        self.blackboard.store.set_value(m_iri, V.SOURCE_SCHEMA, literal(source_schema))
        self.blackboard.store.set_value(m_iri, V.TARGET_SCHEMA, literal(target_schema))
        return LibraryEntry(matrix.name, source_schema, target_schema)

    def entries(self) -> List[LibraryEntry]:
        out = []
        for name in self.blackboard.matrix_names():
            m_iri = matrix_iri(name)
            source = self.blackboard.store.object(m_iri, V.SOURCE_SCHEMA)
            target = self.blackboard.store.object(m_iri, V.TARGET_SCHEMA)
            if isinstance(source, Literal) and isinstance(target, Literal):
                out.append(LibraryEntry(name, source.lexical, target.lexical))
        return sorted(out, key=lambda e: e.matrix_name)

    def find(
        self, source_schema: Optional[str] = None, target_schema: Optional[str] = None
    ) -> List[LibraryEntry]:
        return [
            entry
            for entry in self.entries()
            if (source_schema is None or entry.source_schema == source_schema)
            and (target_schema is None or entry.target_schema == target_schema)
        ]

    # -- reuse ----------------------------------------------------------------------

    def suggest_for(
        self, source_schema: str, target_schema: str, matrix: MappingMatrix
    ) -> int:
        """Warm-start a fresh matrix from past accepted links over the same
        schema pair.  Past user decisions arrive as machine *suggestions*
        at high-but-not-certain confidence — the engineer re-confirms.
        Returns the number of suggestions written."""
        written = 0
        for entry in self.find(source_schema, target_schema):
            past = self.blackboard.get_matrix(entry.matrix_name)
            for cell in past.accepted():
                if (
                    matrix.has_row(cell.source_id)
                    and matrix.has_column(cell.target_id)
                    and not matrix.cell(cell.source_id, cell.target_id).is_decided
                ):
                    matrix.set_confidence(cell.source_id, cell.target_id, 0.9)
                    written += 1
        return written

    def compose(
        self,
        first: str,
        second: str,
        name: Optional[str] = None,
        threshold: float = 0.0,
    ) -> MappingMatrix:
        """Derive A→C from stored A→B and B→C matrices.

        Composite confidence is the product of the link confidences (only
        positive links compose); composed cells are machine suggestions.
        """
        matrix_ab = self.blackboard.get_matrix(first)
        matrix_bc = self.blackboard.get_matrix(second)
        composed = MappingMatrix(name or f"{first}|{second}")
        bc_by_source: Dict[str, List] = {}
        for cell in matrix_bc.cells():
            if cell.confidence > threshold:
                bc_by_source.setdefault(cell.source_id, []).append(cell)
        for ab_cell in matrix_ab.cells():
            if ab_cell.confidence <= threshold:
                continue
            for bc_cell in bc_by_source.get(ab_cell.target_id, []):
                composed.add_row(ab_cell.source_id)
                composed.add_column(bc_cell.target_id)
                confidence = clamp_confidence(
                    min(0.99, ab_cell.confidence * bc_cell.confidence)
                )
                existing = composed.cell(ab_cell.source_id, bc_cell.target_id)
                if confidence > existing.confidence:
                    existing.suggest(confidence)
        return composed
