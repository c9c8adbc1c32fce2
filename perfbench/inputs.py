"""Seeded inputs of the ``interactive`` and ``served_mix`` workloads
(``registry_nway`` uses ``family_workload`` from
``benchmarks/nway_workload.py``).

Everything here is a pure function of the ``--seed`` the benchmark is
given; the program under test only ever sees the generated schemas.

* :func:`interactive_pairs` — registry-style ER models of 120-135
  elements (from :func:`repro.registry.generate_registry`) perturbed by
  this module's own generator into a target schema plus its true
  alignment, and a next version of each source for the evolve step.
  The generator keeps every element id unique: ``repro.eval.
  generate_scenario`` raises ``DuplicateElementError`` on about a
  quarter of registry-sized models (see README.md, known defects), and
  the benchmark must not pick seeds around that.
* the served-mix DDL/XSD texts and their true links.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.core.graph import SchemaGraph
from repro.loaders.er_model import ErModelLoader
from repro.registry.generator import RegistryProfile, generate_registry
from repro.text.thesaurus import DEFAULT_ABBREVIATIONS, Thesaurus
from repro.text.tokenize import split_identifier

Pair = Tuple[str, str]

#: interactive source sizes, elements (targets come out ~5-15% smaller),
#: and of those, attributes: registry models of one size still range from
#: ~45 to ~75 attributes (the rest are coding-scheme values), and the
#: match cost follows the mix, so both are held in a band
MIN_ELEMENTS, MAX_ELEMENTS = 120, 136
MIN_ATTRIBUTES, MAX_ATTRIBUTES = 55, 65

_SHORT_FORM: Dict[str, str] = {}
for _short, _full in sorted(DEFAULT_ABBREVIATIONS.items()):
    if _full not in _SHORT_FORM or len(_short) < len(_SHORT_FORM[_full]):
        _SHORT_FORM[_full] = _short


@dataclass
class InteractivePair:
    """One engineer's matching problem: two schemas, the truth, and the
    next version of the source for the evolution step."""

    source: SchemaGraph
    target: SchemaGraph
    truth: Set[Pair]
    evolved_source: SchemaGraph
    #: element ids the evolution adds / removes (the checks compare the
    #: matrix axes against these)
    evolved_added: Set[str]
    evolved_removed: Set[str]


class _Unique:
    """Hands out names unique within one scope (case-insensitive, since
    distinct spellings can collapse to one id after a convention flip)."""

    def __init__(self) -> None:
        self._used: Set[str] = set()

    def __call__(self, name: str) -> str:
        candidate, suffix = name, 2
        while candidate.lower() in self._used:
            candidate = f"{name}{suffix}"
            suffix += 1
        self._used.add(candidate.lower())
        return candidate


def _perturb_name(name: str, rng: random.Random, thesaurus: Thesaurus) -> str:
    tokens = split_identifier(name) or [name]
    out = []
    for token in tokens:
        replaced = token
        if rng.random() < 0.35:
            synonyms = sorted(thesaurus.synonyms(token) - {token})
            if synonyms:
                replaced = synonyms[rng.randrange(len(synonyms))]
        if replaced == token and rng.random() < 0.2:
            replaced = _SHORT_FORM.get(token, token)
        out.append(replaced)
    if rng.random() < 0.5:
        return "_".join(out)
    return out[0] + "".join(t.title() for t in out[1:])


def _paraphrase(doc: str, rng: random.Random) -> str:
    words = doc.rstrip(".").split()
    kept = [w for w in words if rng.random() < 0.7] or words[:3]
    if len(kept) > 2 and rng.random() < 0.5:
        pivot = rng.randrange(1, len(kept))
        kept = kept[pivot:] + kept[:pivot]
    text = " ".join(kept)
    return (text[:1].upper() + text[1:] + ".") if text else ""


def _perturb_model(base: Dict[str, Any], rng: random.Random,
                   thesaurus: Thesaurus) -> Tuple[Dict[str, Any], Set[Pair]]:
    """The target model and the true (source id, target id) links."""
    src, tgt = base["name"], base["name"] + "_t"
    model: Dict[str, Any] = {"name": tgt, "entities": [], "domains": []}
    truth: Set[Pair] = set()
    domain_names: Dict[str, str] = {}
    unique_domain = _Unique()
    for domain in base.get("domains", []):
        codes = [v for v in domain["values"] if rng.random() < 0.8]
        if len(codes) < 2:
            continue
        name = unique_domain(_perturb_name(domain["name"], rng, thesaurus))
        domain_names[domain["name"]] = name
        model["domains"].append({
            "name": name, "type": domain.get("type", "string"),
            "values": [
                {"code": v["code"],
                 **({"documentation": _paraphrase(v["documentation"], rng)}
                    if v.get("documentation") else {})}
                for v in codes],
        })
        truth.add((f"{src}/domain:{domain['name']}", f"{tgt}/domain:{name}"))
        for v in codes:
            truth.add((f"{src}/domain:{domain['name']}/{v['code']}",
                       f"{tgt}/domain:{name}/{v['code']}"))
    unique_entity = _Unique()
    for entity in base["entities"]:
        entity_name = unique_entity(_perturb_name(entity["name"], rng, thesaurus))
        new_entity: Dict[str, Any] = {"name": entity_name, "attributes": []}
        if entity.get("documentation"):
            new_entity["documentation"] = _paraphrase(entity["documentation"], rng)
        truth.add((f"{src}/{entity['name']}", f"{tgt}/{entity_name}"))
        unique_attr = _Unique()
        for attr in entity["attributes"]:
            if rng.random() < 0.1:
                continue
            attr_name = unique_attr(_perturb_name(attr["name"], rng, thesaurus))
            new_attr: Dict[str, Any] = {"name": attr_name,
                                        "type": attr.get("type", "string")}
            if attr.get("documentation"):
                new_attr["documentation"] = _paraphrase(attr["documentation"], rng)
            if attr.get("domain") in domain_names:
                new_attr["domain"] = domain_names[attr["domain"]]
            new_entity["attributes"].append(new_attr)
            truth.add((f"{src}/{entity['name']}/{attr['name']}",
                       f"{tgt}/{entity_name}/{attr_name}"))
        if rng.random() < 0.4:
            new_entity["attributes"].append({
                "name": unique_attr("auxiliary_code"), "type": "string",
                "documentation": "Reserved for future use by the target system."})
        model["entities"].append(new_entity)
    return model, truth


def _evolve_model(base: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """The next version of a source: two attributes renamed, one
    dropped, three added, two redocumented (the §5.3 change mix)."""
    model = copy.deepcopy(base)
    slots = [(e, a) for e in range(len(model["entities"]))
             for a in range(len(model["entities"][e]["attributes"]))]
    picks = rng.sample(slots, min(5, len(slots)))
    for e, a in picks[:2]:
        attr = model["entities"][e]["attributes"][a]
        attr["name"] = attr["name"] + "Revised"
    for e, a in picks[2:4]:
        attr = model["entities"][e]["attributes"][a]
        attr["documentation"] = (attr.get("documentation", "")
                                 + " Revised in the next release.").strip()
    for e, a in picks[4:5]:
        attr = model["entities"][e]["attributes"][a]
        if not attr.get("key"):
            attr["drop"] = True
    for entity in model["entities"]:
        entity["attributes"] = [a for a in entity["attributes"]
                                if not a.pop("drop", False)]
    for i in range(3):
        entity = model["entities"][rng.randrange(len(model["entities"]))]
        entity["attributes"].append({
            "name": f"releaseNote{i}", "type": "string",
            "documentation": "Free-text note added in the next release."})
    return model


def _model_size(model: Dict[str, Any]) -> int:
    """Element count of the graph a model loads into (root, entities,
    attributes, primary keys, domains, codes)."""
    size = 1
    for entity in model["entities"]:
        attrs = entity["attributes"]
        size += 1 + len(attrs) + any(a.get("key") for a in attrs)
    for domain in model.get("domains", []):
        size += 1 + len(domain["values"])
    return size


def interactive_pairs(seed: int, count: int) -> List[InteractivePair]:
    """*count* pairs whose sources fall in the element and attribute
    bands (so pair sessions are alike and a run's median session is
    steady across seeds)."""
    rng = random.Random(seed)
    thesaurus = Thesaurus.default()
    loader = ErModelLoader()
    pairs: List[InteractivePair] = []
    batch = 0
    while len(pairs) < count:
        registry = generate_registry(
            seed=seed * 1009 + batch, scale=1.0,
            profile=RegistryProfile.compact(
                40, elements_per_model=10, attributes_per_element=8),
            name="interactive")
        batch += 1
        for base in registry["models"]:
            if len(pairs) == count:
                break
            attributes = sum(len(e["attributes"]) for e in base["entities"])
            if not (MIN_ELEMENTS <= _model_size(base) < MAX_ELEMENTS
                    and MIN_ATTRIBUTES <= attributes < MAX_ATTRIBUTES):
                continue
            base = dict(base, name=f"s{len(pairs):03d}_{base['name']}")
            source = loader.load_dict(base)
            target_model, truth = _perturb_model(base, rng, thesaurus)
            target = loader.load_dict(target_model)
            truth = {(s, t) for s, t in truth if s in source and t in target}
            evolved = loader.load_dict(_evolve_model(base, rng))
            old_ids, new_ids = set(source.element_ids), set(evolved.element_ids)
            pairs.append(InteractivePair(
                source=source, target=target, truth=truth,
                evolved_source=evolved,
                evolved_added=new_ids - old_ids,
                evolved_removed=old_ids - new_ids))
    return pairs


# -- the served mix -----------------------------------------------------------

ORDERS_DDL = """
CREATE TABLE orders (
  po_number INT PRIMARY KEY,
  customer VARCHAR(40),
  ship_date DATE,
  total DECIMAL(10, 2)
);
CREATE TABLE order_lines (
  line_id INT PRIMARY KEY,
  po_number INT REFERENCES orders(po_number),
  sku VARCHAR(20),
  quantity INT
);
"""

#: the next DDL version a served session reloads (the wire evolve path)
ORDERS_DDL_V2 = ORDERS_DDL + """
CREATE TABLE carriers (
  carrier_id INT PRIMARY KEY,
  carrier_name VARCHAR(40)
);
"""

NOTICE_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shippingNotice">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="poNo" type="xs:integer"/>
        <xs:element name="recipientName" type="xs:string"/>
        <xs:element name="arrivalDate" type="xs:date"/>
        <xs:element name="amountDue" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
"""

#: the true orders -> notice attribute links
SERVED_TRUTH: Set[Pair] = {
    ("orders/orders/po_number", "notice/shippingNotice/poNo"),
    ("orders/orders/customer", "notice/shippingNotice/recipientName"),
    ("orders/orders/ship_date", "notice/shippingNotice/arrivalDate"),
    ("orders/orders/total", "notice/shippingNotice/amountDue"),
}
