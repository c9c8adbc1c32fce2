"""Shared fixtures: the paper's Figure 2/3 schemas and friends."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import ElementKind, MappingMatrix, SchemaElement, SchemaGraph
from repro.loaders import load_registry, load_sql, load_xsd
from repro.registry import RegistryProfile, generate_registry

#: Matrices ``HarmonyEngine(EngineConfig(flooding=...))`` wrote before
#: the engine lost its reference match path (dict TF-IDF cosine,
#: ``repro.text.similarity`` measures, uncompiled flooding fixpoints).
#: Keys are ``"<pair>/<flooding mode>"`` with pairs ``orders_notice``
#: (the fixtures below) and ``registry_small`` (:func:`registry_pair`);
#: values are ``[source_id, target_id, confidence]`` rows.  Frozen: the
#: production path is checked against it, so never regenerate it from
#: that path.
GOLDEN_ENGINE_PATH = os.path.join(
    os.path.dirname(__file__), "golden_engine_matrices.json")


@pytest.fixture
def purchase_order_graph() -> SchemaGraph:
    """The Figure 2 source schema: purchaseOrder with shipTo details."""
    graph = SchemaGraph.create("po")
    graph.add_child(
        "po",
        SchemaElement("po/purchaseOrder", "purchaseOrder", ElementKind.ELEMENT,
                      documentation="A purchase order placed by a customer."),
        label="contains-element",
    )
    graph.add_child(
        "po/purchaseOrder",
        SchemaElement("po/purchaseOrder/shipTo", "shipTo", ElementKind.ELEMENT,
                      documentation="The party the order ships to."),
        label="contains-element",
    )
    for name, datatype, doc in [
        ("firstName", "string", "Given name of the recipient."),
        ("lastName", "string", "Family name of the recipient."),
        ("subtotal", "decimal", "Sum of item prices before tax."),
    ]:
        graph.add_child(
            "po/purchaseOrder/shipTo",
            SchemaElement(f"po/purchaseOrder/shipTo/{name}", name,
                          ElementKind.ATTRIBUTE, datatype=datatype, documentation=doc),
        )
    return graph


@pytest.fixture
def shipping_notice_graph() -> SchemaGraph:
    """The Figure 2 target schema: shippingInfo with name and total."""
    graph = SchemaGraph.create("sn")
    graph.add_child(
        "sn",
        SchemaElement("sn/shippingInfo", "shippingInfo", ElementKind.ELEMENT,
                      documentation="Shipping information for a purchase order."),
        label="contains-element",
    )
    for name, datatype, doc in [
        ("name", "string", "Family name and given name of the recipient."),
        ("total", "decimal", "Total charge computed from the subtotal."),
    ]:
        graph.add_child(
            "sn/shippingInfo",
            SchemaElement(f"sn/shippingInfo/{name}", name,
                          ElementKind.ATTRIBUTE, datatype=datatype, documentation=doc),
        )
    return graph


@pytest.fixture
def figure3_matrix(purchase_order_graph, shipping_notice_graph) -> MappingMatrix:
    """The Figure 3 mapping matrix, annotations included."""
    matrix = MappingMatrix.from_schemas(purchase_order_graph, shipping_notice_graph)
    # machine suggestions from the figure's first row
    matrix.set_confidence("po/purchaseOrder/shipTo", "sn/shippingInfo", 0.8)
    matrix.set_confidence("po/purchaseOrder/shipTo", "sn/shippingInfo/name", -0.4)
    matrix.set_confidence("po/purchaseOrder/shipTo", "sn/shippingInfo/total", -0.6)
    # user decisions from the remaining rows
    matrix.set_confidence("po/purchaseOrder/shipTo/firstName", "sn/shippingInfo", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/firstName", "sn/shippingInfo/name", 1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/firstName", "sn/shippingInfo/total", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/lastName", "sn/shippingInfo", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/lastName", "sn/shippingInfo/name", 1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/lastName", "sn/shippingInfo/total", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/subtotal", "sn/shippingInfo", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/subtotal", "sn/shippingInfo/name", -1.0, user_defined=True)
    matrix.set_confidence("po/purchaseOrder/shipTo/subtotal", "sn/shippingInfo/total", 1.0, user_defined=True)
    # variable bindings and column code, as in the figure
    matrix.set_row_variable("po/purchaseOrder/shipTo", "$shipto")
    matrix.set_row_variable("po/purchaseOrder/shipTo/firstName", "$fName")
    matrix.set_row_variable("po/purchaseOrder/shipTo/lastName", "$lName")
    matrix.set_row_variable("po/purchaseOrder/shipTo/subtotal", "$shipto/subtotal")
    matrix.set_column_code("sn/shippingInfo/name", 'concat($lName, concat(", ", $fName))')
    matrix.set_column_code("sn/shippingInfo/total", "data($shipto/subtotal) * 1.05")
    matrix.code = "let $shipto := $purchOrd/shipTo return <shippingInfo>...</shippingInfo>"
    return matrix


ORDERS_DDL = """
-- Orders placed by customers of the supply system.
CREATE TABLE purchase_order (
    po_id INTEGER PRIMARY KEY,
    cust_id INTEGER NOT NULL REFERENCES customer(cust_id),
    order_date DATE,                 -- Date the order was placed.
    subtotal DECIMAL(10,2),          -- Sum of line prices before tax.
    status VARCHAR(10)
);
CREATE TABLE customer (
    cust_id INTEGER PRIMARY KEY,
    first_name VARCHAR(40),          -- Given name of the customer.
    last_name VARCHAR(40)            -- Family name of the customer.
);
"""

NOTICE_XSD = """<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
 <xs:element name="shippingNotice">
  <xs:annotation><xs:documentation>Notice sent when an order ships.</xs:documentation></xs:annotation>
  <xs:complexType><xs:sequence>
    <xs:element name="orderNumber" type="xs:integer">
      <xs:annotation><xs:documentation>The unique order number being shipped.</xs:documentation></xs:annotation>
    </xs:element>
    <xs:element name="recipientName">
     <xs:complexType><xs:sequence>
      <xs:element name="firstName" type="xs:string">
       <xs:annotation><xs:documentation>Given name of the recipient.</xs:documentation></xs:annotation>
      </xs:element>
      <xs:element name="lastName" type="xs:string">
       <xs:annotation><xs:documentation>Family name of the recipient.</xs:documentation></xs:annotation>
      </xs:element>
     </xs:sequence></xs:complexType>
    </xs:element>
    <xs:element name="total" type="xs:decimal">
      <xs:annotation><xs:documentation>Total charge from the subtotal plus tax.</xs:documentation></xs:annotation>
    </xs:element>
  </xs:sequence></xs:complexType>
 </xs:element>
</xs:schema>
"""


@pytest.fixture
def orders_graph() -> SchemaGraph:
    return load_sql(ORDERS_DDL, "orders")


@pytest.fixture
def notice_graph() -> SchemaGraph:
    return load_xsd(NOTICE_XSD, "notice")


@pytest.fixture
def orders_ddl_text() -> str:
    return ORDERS_DDL


@pytest.fixture
def notice_xsd_text() -> str:
    return NOTICE_XSD


@pytest.fixture
def registry_pair():
    """A small registry-generated schema pair (11 and 20 elements)."""
    profile = RegistryProfile(model_count=2, elements_per_model=3,
                              attributes_per_element=4,
                              domain_values_per_attribute=0.5)
    loaded = load_registry(
        generate_registry(seed=7, scale=1.0, profile=profile, name="golden"))
    return loaded.schemas[0], loaded.schemas[1]


@pytest.fixture
def assert_engine_golden():
    """``check(case, matrix, tolerance)``: *matrix* holds exactly the
    golden cells of *case*, each confidence within *tolerance*."""
    with open(GOLDEN_ENGINE_PATH) as handle:
        golden = json.load(handle)

    def check(case, matrix, tolerance):
        want = {(s, t): value for s, t, value in golden[case]}
        got = {(c.source_id, c.target_id): c.confidence
               for c in matrix.cells()}
        assert got.keys() == want.keys(), case
        for pair, value in want.items():
            assert abs(got[pair] - value) <= tolerance, (case, pair)

    return check
