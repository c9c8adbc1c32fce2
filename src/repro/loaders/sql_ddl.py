"""SQL DDL loader: a hand-written tokenizer and recursive-descent parser.

Parses the CREATE TABLE dialect common to the systems the paper targets,
plus ``COMMENT ON`` statements — Section 2 stresses that documentation
matters, and in SQL it arrives via comments.  Supported surface:

* ``CREATE TABLE name (col type [constraints], ..., table constraints)``
* column constraints: ``NOT NULL``, ``NULL``, ``PRIMARY KEY``, ``UNIQUE``,
  ``DEFAULT <literal>``, ``REFERENCES table (col)``, ``CHECK (...)``
* table constraints: ``PRIMARY KEY (...)``, ``UNIQUE (...)``,
  ``FOREIGN KEY (...) REFERENCES table (...)``, ``CHECK (...)``,
  ``CONSTRAINT name <constraint>``
* ``COMMENT ON TABLE t IS '...'`` and ``COMMENT ON COLUMN t.c IS '...'``
* ``--`` line comments and ``/* */`` block comments become documentation
  when they immediately precede a table or column definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.elements import ElementKind, SchemaElement
from ..core.errors import LoaderError
from ..core.graph import (
    HAS_KEY,
    KEY_ATTRIBUTE,
    REFERENCES,
    SchemaGraph,
)
from .base import SchemaLoader, normalize_type

# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<line_comment>--[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<string>'(?:[^']|'')*')
  | (?P<quoted_ident>"[^"]+"|`[^`]+`|\[[^\]]+\])
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<punct>[(),.;*=<>+-])
  | (?P<space>\s+)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str      # 'ident', 'string', 'number', 'punct', 'comment'
    value: str     # normalized value (idents upper-cased in .upper)
    line: int

    @property
    def upper(self) -> str:
        return self.value.upper()


def tokenize_sql(text: str) -> Tuple[List[Token], List[Tuple[int, str]]]:
    """Tokenize DDL; returns (tokens, comments) where comments keep their
    line numbers so they can be attached as documentation."""
    tokens: List[Token] = []
    comments: List[Tuple[int, str]] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LoaderError(f"unexpected character {text[pos]!r}", line=line)
        kind = match.lastgroup
        value = match.group(0)
        if kind == "space":
            pass
        elif kind == "line_comment":
            comments.append((line, value[2:].strip()))
        elif kind == "block_comment":
            body = value[2:-2].strip()
            comments.append((line, " ".join(body.split())))
        elif kind == "string":
            tokens.append(Token("string", value[1:-1].replace("''", "'"), line))
        elif kind == "quoted_ident":
            tokens.append(Token("ident", value[1:-1], line))
        elif kind == "number":
            tokens.append(Token("number", value, line))
        elif kind == "ident":
            tokens.append(Token("ident", value, line))
        else:
            tokens.append(Token("punct", value, line))
        line += value.count("\n")
        pos = match.end()
    return tokens, comments


# -- parser -------------------------------------------------------------------

@dataclass
class _Column:
    name: str
    datatype: str
    nullable: bool = True
    is_primary: bool = False
    is_unique: bool = False
    default: Optional[str] = None
    references: Optional[Tuple[str, str]] = None  # (table, column)
    line: int = 0
    documentation: str = ""


@dataclass
class _Table:
    name: str
    columns: List[_Column] = field(default_factory=list)
    primary_key: List[str] = field(default_factory=list)
    unique_keys: List[List[str]] = field(default_factory=list)
    foreign_keys: List[Tuple[List[str], str, List[str]]] = field(default_factory=list)
    line: int = 0
    documentation: str = ""

    def column(self, name: str) -> Optional[_Column]:
        for col in self.columns:
            if col.name.lower() == name.lower():
                return col
        return None


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- primitives -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            last = self._tokens[-1] if self._tokens else None
            raise LoaderError("unexpected end of input", line=last.line if last else 0)
        self._index += 1
        return token

    def _expect(self, value: str) -> Token:
        token = self._next()
        if token.upper != value.upper():
            raise LoaderError(
                f"expected {value!r}, found {token.value!r}", line=token.line
            )
        return token

    def _accept(self, value: str) -> bool:
        token = self._peek()
        if token is not None and token.upper == value.upper():
            self._index += 1
            return True
        return False

    def _at_keyword(self, *values: str) -> bool:
        token = self._peek()
        return token is not None and token.upper in {v.upper() for v in values}

    def _skip_balanced_parens(self) -> str:
        """Consume a '('-balanced region, returning its raw text."""
        self._expect("(")
        depth = 1
        parts: List[str] = []
        while depth > 0:
            token = self._next()
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth -= 1
                if depth == 0:
                    break
            parts.append(token.value)
        return " ".join(parts)

    def _identifier(self) -> Token:
        token = self._next()
        if token.kind != "ident":
            raise LoaderError(
                f"expected identifier, found {token.value!r}", line=token.line
            )
        return token

    def _qualified_name(self) -> str:
        """name or schema.name — keeps only the last component."""
        name = self._identifier().value
        while self._accept("."):
            name = self._identifier().value
        return name

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> Tuple[List[_Table], List[Tuple[str, Optional[str], str]]]:
        tables: List[_Table] = []
        comment_stmts: List[Tuple[str, Optional[str], str]] = []
        while self._peek() is not None:
            if self._at_keyword("CREATE"):
                self._next()
                if self._at_keyword("TABLE"):
                    self._next()
                    tables.append(self._create_table())
                else:
                    self._skip_statement()
            elif self._at_keyword("COMMENT"):
                comment_stmts.append(self._comment_on())
            else:
                self._skip_statement()
        return tables, comment_stmts

    def _skip_statement(self) -> None:
        while True:
            token = self._peek()
            if token is None:
                return
            self._index += 1
            if token.value == ";":
                return
            if token.value == "(":
                self._index -= 1
                self._skip_balanced_parens()

    def _create_table(self) -> _Table:
        if self._at_keyword("IF"):
            self._next()
            self._expect("NOT")
            self._expect("EXISTS")
        start = self._peek()
        name = self._qualified_name()
        table = _Table(name=name, line=start.line if start else 0)
        self._expect("(")
        while True:
            if self._at_keyword("PRIMARY", "UNIQUE", "FOREIGN", "CHECK", "CONSTRAINT", "KEY"):
                self._table_constraint(table)
            else:
                table.columns.append(self._column_def(table))
            if self._accept(","):
                continue
            self._expect(")")
            break
        # trailing options (ENGINE=... etc.) up to the semicolon
        self._skip_statement()
        return table

    def _column_def(self, table: _Table) -> _Column:
        name_token = self._identifier()
        type_token = self._identifier()
        datatype = type_token.value
        token = self._peek()
        if token is not None and token.value == "(":
            args = self._skip_balanced_parens().replace(" ", "")
            datatype = f"{datatype}({args})"
        column = _Column(name=name_token.value, datatype=datatype, line=name_token.line)
        while True:
            if self._accept("NOT"):
                self._expect("NULL")
                column.nullable = False
            elif self._accept("NULL"):
                column.nullable = True
            elif self._at_keyword("PRIMARY"):
                self._next()
                self._expect("KEY")
                column.is_primary = True
                table.primary_key = [column.name]
            elif self._accept("UNIQUE"):
                column.is_unique = True
            elif self._accept("DEFAULT"):
                column.default = self._next().value
            elif self._accept("REFERENCES"):
                ref_table = self._qualified_name()
                ref_column = ""
                if self._peek() is not None and self._peek().value == "(":
                    ref_column = self._skip_balanced_parens().strip()
                column.references = (ref_table, ref_column)
            elif self._accept("CHECK"):
                self._skip_balanced_parens()
            elif self._at_keyword("AUTO_INCREMENT", "AUTOINCREMENT", "IDENTITY"):
                self._next()
            elif self._accept("COMMENT"):
                token = self._next()
                column.documentation = token.value
            elif self._accept("CONSTRAINT"):
                self._identifier()  # constraint name; the constraint follows
            else:
                break
        return column

    def _table_constraint(self, table: _Table) -> None:
        if self._accept("CONSTRAINT"):
            self._identifier()
        if self._accept("PRIMARY"):
            self._expect("KEY")
            cols = self._skip_balanced_parens()
            table.primary_key = _split_columns(cols)
            for col_name in table.primary_key:
                column = table.column(col_name)
                if column is not None:
                    column.is_primary = True
        elif self._accept("UNIQUE"):
            self._accept("KEY")
            if self._peek() is not None and self._peek().kind == "ident":
                self._identifier()  # index name
            cols = self._skip_balanced_parens()
            table.unique_keys.append(_split_columns(cols))
        elif self._accept("FOREIGN"):
            self._expect("KEY")
            local = _split_columns(self._skip_balanced_parens())
            self._expect("REFERENCES")
            ref_table = self._qualified_name()
            remote: List[str] = []
            if self._peek() is not None and self._peek().value == "(":
                remote = _split_columns(self._skip_balanced_parens())
            table.foreign_keys.append((local, ref_table, remote))
            while self._at_keyword("ON"):
                self._next()   # ON
                self._next()   # DELETE / UPDATE
                self._next()   # CASCADE / RESTRICT / SET
                self._accept("NULL")
                self._accept("DEFAULT")
        elif self._accept("CHECK"):
            self._skip_balanced_parens()
        elif self._accept("KEY"):
            if self._peek() is not None and self._peek().kind == "ident":
                self._identifier()
            self._skip_balanced_parens()
        else:
            token = self._peek()
            raise LoaderError(
                f"unsupported table constraint near {token.value!r}",
                line=token.line if token else 0,
            )

    def _comment_on(self) -> Tuple[str, Optional[str], str]:
        """COMMENT ON TABLE t IS '...'; COMMENT ON COLUMN t.c IS '...'"""
        self._expect("COMMENT")
        self._expect("ON")
        kind = self._next().upper
        if kind == "TABLE":
            table = self._qualified_name()
            self._expect("IS")
            text = self._next().value
            self._accept(";")
            return (table, None, text)
        if kind == "COLUMN":
            first = self._identifier().value
            parts = [first]
            while self._accept("."):
                parts.append(self._identifier().value)
            if len(parts) < 2:
                raise LoaderError("COMMENT ON COLUMN needs table.column")
            self._expect("IS")
            text = self._next().value
            self._accept(";")
            return (".".join(parts[:-1]).split(".")[-1], parts[-1], text)
        raise LoaderError(f"unsupported COMMENT ON {kind}")


def _split_columns(raw: str) -> List[str]:
    return [c.strip() for c in raw.split(",") if c.strip()]


# -- loader -------------------------------------------------------------------

class SqlDdlLoader(SchemaLoader):
    """Loads relational schemata from SQL DDL text.

    The resulting graph uses the paper's relational layout: a DATABASE
    element under the schema root, ``contains-table`` edges to TABLE
    elements, ``contains-attribute`` edges to column ATTRIBUTEs, KEY
    elements via ``has-key``/``key-attribute``, and ``references`` edges
    for foreign keys.
    """

    format_name = "sql"

    def load(self, text: str, schema_name: Optional[str] = None) -> SchemaGraph:
        tokens, comments = tokenize_sql(text)
        tables, comment_stmts = _Parser(tokens).parse()
        if not tables:
            raise LoaderError("no CREATE TABLE statements found")
        name = schema_name or "database"
        graph = SchemaGraph.create(name)
        db_id = f"{name}/db"
        graph.add_child(
            name,
            SchemaElement(db_id, name, ElementKind.DATABASE),
            label="contains-element",
        )

        comment_by_line = _CommentIndex(comments)
        table_ids = {}
        for table in tables:
            table_id = f"{name}/{table.name}"
            if table_id in graph:
                raise LoaderError(f"duplicate table {table.name!r}", line=table.line)
            table_ids[table.name.lower()] = table_id
            doc = table.documentation or comment_by_line.before(table.line)
            graph.add_child(
                db_id,
                SchemaElement(table_id, table.name, ElementKind.TABLE, documentation=doc),
            )
            for column in table.columns:
                col_id = f"{table_id}/{column.name}"
                if col_id in graph:
                    raise LoaderError(
                        f"duplicate column {column.name!r} in table {table.name!r}",
                        line=column.line,
                    )
                element = SchemaElement(
                    col_id,
                    column.name,
                    ElementKind.ATTRIBUTE,
                    datatype=normalize_type(column.datatype),
                    documentation=column.documentation or comment_by_line.before(column.line),
                )
                element.annotate("nullable", column.nullable)
                element.annotate("native_type", column.datatype.lower())
                if column.default is not None:
                    element.annotate("default", column.default)
                graph.add_child(table_id, element)
            if table.primary_key:
                key_id = f"{table_id}/#pk"
                graph.add_child(
                    table_id,
                    SchemaElement(key_id, f"{table.name}_pk", ElementKind.KEY),
                    label=HAS_KEY,
                )
                for col_name in table.primary_key:
                    col_id = f"{table_id}/{_match_column(table, col_name)}"
                    if col_id.split("/")[-1]:
                        graph.add_edge(key_id, KEY_ATTRIBUTE, col_id)

        # second pass: foreign keys (tables must all exist first)
        for table in tables:
            table_id = table_ids[table.name.lower()]
            for column in table.columns:
                if column.references is not None:
                    ref_table, ref_column = column.references
                    target = self._fk_target(graph, table_ids, ref_table, ref_column)
                    if target:
                        graph.add_edge(f"{table_id}/{column.name}", REFERENCES, target)
            for local, ref_table, remote in table.foreign_keys:
                for i, col_name in enumerate(local):
                    ref_column = remote[i] if i < len(remote) else ""
                    target = self._fk_target(graph, table_ids, ref_table, ref_column)
                    actual = _match_column(table, col_name)
                    if target and actual:
                        graph.add_edge(f"{table_id}/{actual}", REFERENCES, target)

        # COMMENT ON statements override inline comments
        for table_name, column_name, doc in comment_stmts:
            table_id = table_ids.get(table_name.lower())
            if table_id is None:
                continue
            if column_name is None:
                graph.element(table_id).documentation = doc
            else:
                for element in graph.children(table_id):
                    if element.name.lower() == column_name.lower():
                        element.documentation = doc
        return graph

    @staticmethod
    def _fk_target(graph, table_ids, ref_table: str, ref_column: str) -> Optional[str]:
        table_id = table_ids.get(ref_table.lower())
        if table_id is None:
            return None
        if ref_column:
            for element in graph.children(table_id):
                if element.name.lower() == ref_column.strip().lower():
                    return element.element_id
        return table_id


def _match_column(table: _Table, name: str) -> str:
    column = table.column(name)
    return column.name if column is not None else name


class _CommentIndex:
    """Attach ``--``/``/* */`` comments to the definition on the next line."""

    def __init__(self, comments: List[Tuple[int, str]]) -> None:
        self._by_line = {}
        for line, text in comments:
            if text:
                self._by_line[line] = text

    def before(self, line: int) -> str:
        """The comment attached to a definition at *line*: a trailing
        comment on the same line, or the comment block immediately above."""
        if line in self._by_line:
            return self._by_line.pop(line)
        parts: List[str] = []
        probe = line - 1
        while probe in self._by_line:
            parts.append(self._by_line.pop(probe))
            probe -= 1
        return " ".join(reversed(parts))


def load_sql(text: str, schema_name: Optional[str] = None) -> SchemaGraph:
    """Convenience wrapper: parse DDL text into a schema graph."""
    return SqlDdlLoader().load(text, schema_name=schema_name)
