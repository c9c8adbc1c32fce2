"""Interactive match session: the workflow around the engine (Section 4.3).

A :class:`MatchSession` owns the matrix for one matching problem and
exposes what the Harmony GUI exposes: draw/accept/reject links, re-run the
engine (which learns from the feedback), mark sub-trees complete, and read
the progress bar.

Marking a sub-tree complete follows the paper exactly: *"it accepts every
link pertaining to that sub-tree as accepted (if currently visible), or
rejected (otherwise).  Once a link has been accepted or rejected, the
engine will not try to modify that link."*
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.correspondence import Correspondence
from ..core.errors import MappingError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from .engine import HarmonyEngine, MatchRun
from .filters import ConfidenceFilter, FilterSet, LinkFilter


class MatchSession:
    """One engineer's iterative matching of one source/target pair."""

    def __init__(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        engine: Optional[HarmonyEngine] = None,
        matrix: Optional[MappingMatrix] = None,
        on_change: Optional[Callable[[Correspondence], None]] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.engine = engine if engine is not None else HarmonyEngine()
        self.matrix = matrix if matrix is not None else MappingMatrix.from_schemas(source, target)
        self.runs: List[MatchRun] = []
        #: default visibility threshold used by mark_subtree_complete
        self.visibility = ConfidenceFilter(threshold=0.0)
        self._on_change = on_change

    # -- engine ------------------------------------------------------------------

    def run_engine(self) -> MatchRun:
        """(Re-)run Harmony; user decisions feed the learning loop."""
        run = self.engine.match(self.source, self.target, matrix=self.matrix)
        self.runs.append(run)
        return run

    # -- manual link editing ---------------------------------------------------------

    def draw_link(self, source_id: str, target_id: str) -> Correspondence:
        """The engineer draws a link by hand → accepted, confidence +1."""
        cell = self.matrix.set_confidence(source_id, target_id, 1.0, user_defined=True)
        self._changed(cell)
        return cell

    def accept(self, source_id: str, target_id: str) -> Correspondence:
        cell = self.matrix.set_confidence(source_id, target_id, 1.0, user_defined=True)
        self._changed(cell)
        return cell

    def reject(self, source_id: str, target_id: str) -> Correspondence:
        cell = self.matrix.set_confidence(source_id, target_id, -1.0, user_defined=True)
        self._changed(cell)
        return cell

    def _changed(self, cell: Correspondence) -> None:
        if self._on_change is not None:
            self._on_change(cell)

    # -- sub-tree completion (Section 4.3) ----------------------------------------------

    def mark_subtree_complete(
        self,
        element_id: str,
        side: str = "source",
        visible: Optional[LinkFilter] = None,
    ) -> Tuple[int, int]:
        """Mark a sub-tree complete.

        Every *visible* link touching the sub-tree is accepted; every other
        (undecided) link touching it is rejected; the sub-tree's rows (or
        columns) are flagged ``is-complete``.  Returns (accepted, rejected)
        counts.
        """
        if side not in ("source", "target"):
            raise MappingError("side must be 'source' or 'target'")
        graph = self.source if side == "source" else self.target
        members = {e.element_id for e in graph.subtree(element_id)}
        visible = visible if visible is not None else self.visibility

        accepted = rejected = 0
        for cell in list(self.matrix.cells()):
            anchor = cell.source_id if side == "source" else cell.target_id
            if anchor not in members or cell.is_decided:
                continue
            if visible.admits(cell):
                cell.accept()
                accepted += 1
            else:
                cell.reject()
                rejected += 1
            self._changed(cell)
        for member in members:
            if side == "source" and self.matrix.has_row(member):
                self.matrix.mark_row_complete(member)
            elif side == "target" and self.matrix.has_column(member):
                self.matrix.mark_column_complete(member)
        return accepted, rejected

    # -- views ------------------------------------------------------------------------

    def links(self, filters: Optional[FilterSet] = None) -> List[Correspondence]:
        """The currently displayable links, under the given filters."""
        cells = list(self.matrix.cells())
        if filters is None:
            return [c for c in cells if self.visibility.admits(c)]
        return filters.visible_links(cells, self.source, self.target)

    def progress(self) -> float:
        """The GUI progress bar (Section 4.3)."""
        return self.matrix.progress()

    @property
    def is_complete(self) -> bool:
        return self.matrix.is_complete

    def final_correspondences(self) -> List[Correspondence]:
        """The accepted links — what flows on to the mapping phase."""
        return self.matrix.accepted()
