"""Tests for the SQL DDL loader."""

import pytest

from repro.core import ElementKind, LoaderError
from repro.loaders import load_sql, tokenize_sql


class TestTokenizer:
    def test_basic_tokens(self):
        tokens, comments = tokenize_sql("CREATE TABLE t (a INT);")
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", "ident", "ident", "punct", "ident", "ident", "punct", "punct"]

    def test_comments_collected_with_lines(self):
        tokens, comments = tokenize_sql("-- first\nCREATE TABLE t (a INT); /* block */")
        assert (1, "first") in comments
        assert any("block" in c for _, c in comments)

    def test_string_literals(self):
        tokens, _ = tokenize_sql("COMMENT ON TABLE t IS 'it''s quoted';")
        strings = [t.value for t in tokens if t.kind == "string"]
        assert strings == ["it's quoted"]

    def test_quoted_identifiers(self):
        tokens, _ = tokenize_sql('CREATE TABLE "My Table" (x INT);')
        assert any(t.value == "My Table" for t in tokens)

    def test_unexpected_character(self):
        with pytest.raises(LoaderError):
            tokenize_sql("CREATE TABLE t (a INT) €;")


class TestBasicParsing:
    def test_tables_and_columns(self, orders_graph):
        tables = {t.name for t in orders_graph.elements_of_kind(ElementKind.TABLE)}
        assert tables == {"purchase_order", "customer"}
        columns = {c.name for c in orders_graph.children("orders/customer")}
        assert columns == {"cust_id", "first_name", "last_name"}

    def test_types_normalized(self, orders_graph):
        assert orders_graph.element("orders/purchase_order/po_id").datatype == "integer"
        assert orders_graph.element("orders/purchase_order/subtotal").datatype == "decimal"
        assert orders_graph.element("orders/purchase_order/status").datatype == "string"
        assert orders_graph.element("orders/purchase_order/order_date").datatype == "date"

    def test_native_type_preserved(self, orders_graph):
        element = orders_graph.element("orders/purchase_order/subtotal")
        assert element.annotation("native_type") == "decimal(10,2)"

    def test_nullability(self, orders_graph):
        assert orders_graph.element("orders/purchase_order/cust_id").annotation("nullable") is False
        assert orders_graph.element("orders/purchase_order/status").annotation("nullable") is True

    def test_comments_become_documentation(self, orders_graph):
        assert "Given name" in orders_graph.element("orders/customer/first_name").documentation
        assert "Orders placed" in orders_graph.element("orders/purchase_order").documentation

    def test_no_tables_rejected(self):
        with pytest.raises(LoaderError):
            load_sql("SELECT 1;")

    @pytest.mark.parametrize("ddl,line", [
        ("CREATE TABLE t (a INT, a INT);", 1),
        ("CREATE TABLE t (\n  a INT,\n  b INT,\n  a TEXT\n);", 4),
        ("CREATE TABLE t (a INT);\nCREATE TABLE t (b INT);", 2),
    ], ids=["column", "column-on-later-line", "table"])
    def test_duplicate_definition_is_a_loader_error(self, ddl, line):
        with pytest.raises(LoaderError, match="duplicate") as raised:
            load_sql(ddl)
        assert raised.value.line == line

    def test_graph_validates(self, orders_graph):
        assert orders_graph.validate() == []


class TestKeysAndReferences:
    def test_inline_primary_key(self, orders_graph):
        keys = orders_graph.out_edges("orders/purchase_order", "has-key")
        assert len(keys) == 1
        key_attrs = orders_graph.out_edges(keys[0].object, "key-attribute")
        assert [e.object for e in key_attrs] == ["orders/purchase_order/po_id"]

    def test_inline_references(self, orders_graph):
        refs = orders_graph.out_edges("orders/purchase_order/cust_id", "references")
        assert [e.object for e in refs] == ["orders/customer/cust_id"]

    def test_table_level_constraints(self):
        ddl = """
        CREATE TABLE child (
            a INT, b INT, t_id INT,
            PRIMARY KEY (a, b),
            UNIQUE (b),
            FOREIGN KEY (t_id) REFERENCES parent (id) ON DELETE CASCADE,
            CHECK (a > 0)
        );
        CREATE TABLE parent (id INT PRIMARY KEY);
        """
        graph = load_sql(ddl, "s")
        key = graph.out_edges("s/child", "has-key")[0]
        key_attrs = {e.object for e in graph.out_edges(key.object, "key-attribute")}
        assert key_attrs == {"s/child/a", "s/child/b"}
        refs = graph.out_edges("s/child/t_id", "references")
        assert [e.object for e in refs] == ["s/parent/id"]

    def test_forward_reference_resolved(self):
        """FK can reference a table defined later in the script."""
        ddl = """
        CREATE TABLE a (x INT REFERENCES b(y));
        CREATE TABLE b (y INT PRIMARY KEY);
        """
        graph = load_sql(ddl, "s")
        assert graph.out_edges("s/a/x", "references")[0].object == "s/b/y"

    def test_named_constraint(self):
        ddl = "CREATE TABLE t (a INT, CONSTRAINT pk_t PRIMARY KEY (a));"
        graph = load_sql(ddl, "s")
        assert graph.out_edges("s/t", "has-key")


class TestCommentOnStatements:
    def test_comment_on_overrides_inline(self):
        ddl = """
        CREATE TABLE t (
            a INT -- inline doc
        );
        COMMENT ON COLUMN t.a IS 'Authoritative definition.';
        COMMENT ON TABLE t IS 'The t table.';
        """
        graph = load_sql(ddl, "s")
        assert graph.element("s/t/a").documentation == "Authoritative definition."
        assert graph.element("s/t").documentation == "The t table."

    def test_comment_on_unknown_table_ignored(self):
        ddl = """
        CREATE TABLE t (a INT);
        COMMENT ON TABLE ghost IS 'nothing';
        """
        graph = load_sql(ddl, "s")
        assert "s/t" in graph


class TestDialectTolerance:
    def test_if_not_exists(self):
        graph = load_sql("CREATE TABLE IF NOT EXISTS t (a INT);", "s")
        assert "s/t" in graph

    def test_defaults_and_checks(self):
        ddl = "CREATE TABLE t (a INT DEFAULT 5, b VARCHAR(8) DEFAULT 'x' CHECK (b <> ''));"
        graph = load_sql(ddl, "s")
        assert graph.element("s/t/a").annotation("default") == "5"

    def test_unsupported_statements_skipped(self):
        ddl = """
        DROP TABLE IF EXISTS old;
        CREATE INDEX idx ON t (a);
        CREATE TABLE t (a INT);
        """
        graph = load_sql(ddl, "s")
        assert "s/t" in graph

    def test_schema_qualified_names(self):
        graph = load_sql("CREATE TABLE myschema.t (a INT);", "s")
        assert "s/t" in graph

    def test_inline_column_comment_keyword(self):
        graph = load_sql("CREATE TABLE t (a INT COMMENT 'col doc');", "s")
        assert graph.element("s/t/a").documentation == "col doc"
