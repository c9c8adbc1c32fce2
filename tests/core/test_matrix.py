"""Tests for repro.core.matrix (the Figure 3 structure)."""

import pytest

from repro.core import MappingError, MappingMatrix


class TestAxes:
    def test_from_schemas_excludes_roots(self, purchase_order_graph, shipping_notice_graph):
        matrix = MappingMatrix.from_schemas(purchase_order_graph, shipping_notice_graph)
        assert "po" not in matrix.row_ids
        assert "sn" not in matrix.column_ids
        assert "po/purchaseOrder/shipTo" in matrix.row_ids
        assert "sn/shippingInfo/total" in matrix.column_ids

    def test_add_row_idempotent(self):
        matrix = MappingMatrix()
        header1 = matrix.add_row("a")
        header2 = matrix.add_row("a")
        assert header1 is header2
        assert matrix.row_ids == ["a"]

    def test_missing_axis_raises(self):
        matrix = MappingMatrix()
        with pytest.raises(MappingError):
            matrix.row("nope")
        with pytest.raises(MappingError):
            matrix.column("nope")

    def test_remove_row_drops_cells(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        matrix.set_confidence("a", "x", 0.5)
        matrix.remove_row("a")
        assert matrix.row_ids == []
        assert list(matrix.cells()) == []

    def test_has_row_and_column_track_axes(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        assert matrix.has_row("a") and not matrix.has_row("x")
        assert matrix.has_column("x") and not matrix.has_column("a")
        matrix.remove_row("a")
        matrix.remove_column("x")
        assert not matrix.has_row("a") and not matrix.has_column("x")


class TestCells:
    def test_cell_materializes_on_demand(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        assert matrix.peek("a", "x") is None
        cell = matrix.cell("a", "x")
        assert cell.confidence == 0.0
        assert matrix.peek("a", "x") is cell

    def test_cell_requires_axes(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        with pytest.raises(MappingError):
            matrix.cell("a", "missing")
        with pytest.raises(MappingError):
            matrix.cell("missing", "x")

    def test_set_confidence_machine(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        cell = matrix.set_confidence("a", "x", 0.8)
        assert cell.confidence == 0.8
        assert not cell.is_user_defined

    def test_set_confidence_user_must_be_certain(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        with pytest.raises(MappingError):
            matrix.set_confidence("a", "x", 0.5, user_defined=True)

    def test_machine_never_overwrites_user(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_column("x")
        matrix.set_confidence("a", "x", 1.0, user_defined=True)
        matrix.set_confidence("a", "x", 0.2)
        assert matrix.cell("a", "x").confidence == 1.0

    def test_links_threshold(self, figure3_matrix):
        strong = figure3_matrix.links(threshold=0.5)
        pairs = {c.pair for c in strong}
        assert ("po/purchaseOrder/shipTo", "sn/shippingInfo") in pairs
        assert all(c.confidence > 0.5 for c in strong)

    def test_accepted_and_rejected(self, figure3_matrix):
        accepted = {c.pair for c in figure3_matrix.accepted()}
        assert ("po/purchaseOrder/shipTo/firstName", "sn/shippingInfo/name") in accepted
        assert ("po/purchaseOrder/shipTo/subtotal", "sn/shippingInfo/total") in accepted
        rejected = figure3_matrix.rejected()
        assert all(c.confidence == -1.0 for c in rejected)
        assert len(rejected) == 6

    def test_undecided(self, figure3_matrix):
        undecided = figure3_matrix.undecided()
        assert all(not c.is_decided for c in undecided)
        assert len(undecided) == 3  # the shipTo row's machine suggestions


class TestProgress:
    def test_empty_matrix_complete(self):
        assert MappingMatrix().progress() == 1.0

    def test_progress_counts_both_axes(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_row("b")
        matrix.add_column("x")
        matrix.add_column("y")
        assert matrix.progress() == 0.0
        matrix.mark_row_complete("a")
        matrix.mark_column_complete("x")
        assert matrix.progress() == pytest.approx(0.5)
        matrix.mark_row_complete("b")
        matrix.mark_column_complete("y")
        assert matrix.is_complete

    def test_unmark(self):
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.mark_row_complete("a")
        matrix.mark_row_complete("a", complete=False)
        assert matrix.progress() == 0.0


class TestAnnotations:
    def test_figure3_annotations(self, figure3_matrix):
        assert figure3_matrix.row("po/purchaseOrder/shipTo").variable_name == "$shipto"
        code = figure3_matrix.column("sn/shippingInfo/name").code
        assert "concat" in code
        assert figure3_matrix.code.startswith("let $shipto")

    def test_copy_is_deep(self, figure3_matrix):
        clone = figure3_matrix.copy()
        clone.set_row_variable("po/purchaseOrder/shipTo", "$other")
        clone.cell("po/purchaseOrder/shipTo", "sn/shippingInfo").suggest(0.1)
        assert figure3_matrix.row("po/purchaseOrder/shipTo").variable_name == "$shipto"
        assert figure3_matrix.cell(
            "po/purchaseOrder/shipTo", "sn/shippingInfo"
        ).confidence == 0.8

    def test_to_text_contains_confidences(self, figure3_matrix):
        text = figure3_matrix.to_text()
        assert "+0.8m" in text
        assert "+1.0u" in text


class TestSetCells:
    def _matrix(self) -> MappingMatrix:
        matrix = MappingMatrix()
        matrix.add_row("a")
        matrix.add_row("b")
        matrix.add_column("x")
        matrix.add_column("y")
        return matrix

    def test_bulk_write_equals_per_cell_suggest(self):
        batched = self._matrix()
        reference = self._matrix()
        entries = [("a", "x", 0.7), ("a", "y", -0.2), ("b", "x", 0.0)]
        written = batched.set_cells(entries)
        for source_id, target_id, confidence in entries:
            reference.set_confidence(source_id, target_id, confidence)
        assert written == 3
        assert {
            (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
            for c in batched.cells()
        } == {
            (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
            for c in reference.cells()
        }

    def test_user_decisions_survive_bulk_write(self):
        matrix = self._matrix()
        matrix.set_confidence("a", "x", 1.0, user_defined=True)
        written = matrix.set_cells([("a", "x", 0.3), ("a", "y", 0.3)])
        assert written == 1
        assert matrix.cell("a", "x").confidence == 1.0
        assert matrix.cell("a", "x").is_user_defined
        assert matrix.cell("a", "y").confidence == 0.3

    def test_unknown_axis_raises(self):
        matrix = self._matrix()
        with pytest.raises(MappingError):
            matrix.set_cells([("nope", "x", 0.5)])
        with pytest.raises(MappingError):
            matrix.set_cells([("a", "nope", 0.5)])

    def test_out_of_range_confidence_raises(self):
        matrix = self._matrix()
        with pytest.raises(MappingError):
            matrix.set_cells([("a", "x", 1.5)])

    def test_accepts_generator(self):
        matrix = self._matrix()
        written = matrix.set_cells(
            (row, col, 0.1) for row in ("a", "b") for col in ("x", "y")
        )
        assert written == 4
        assert matrix.cell_count() == 4
