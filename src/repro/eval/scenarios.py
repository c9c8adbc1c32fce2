"""Synthetic matching scenarios with known ground truth.

A scenario takes a base ER model (the "source") and derives a plausibly
independent "target" schema by controlled perturbation — synonym renames,
abbreviations, naming-convention changes, documentation paraphrase,
attribute drops and noise additions — while recording the true alignment.
The knobs mirror the paper's pragmatic considerations so the ablation
benches can sweep them:

* ``documentation`` — both sides documented / source only / none
  (Section 2: documentation is usually available; A1/A4 sweep this);
* ``keep_domains`` — coding schemes present or stripped (A5);
* ``attach_instances`` — sample values present or absent (Section 2:
  instance data is often unavailable; A4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.graph import SchemaGraph
from ..loaders.er_model import ErModelLoader
from ..text.thesaurus import DEFAULT_ABBREVIATIONS, Thesaurus
from ..text.tokenize import split_identifier
from .base_models import BASE_MODELS
from .groundtruth import Alignment

DOC_BOTH = "both"
DOC_SOURCE_ONLY = "source-only"
DOC_NONE = "none"


@dataclass
class ScenarioConfig:
    """Perturbation knobs."""

    seed: int = 7
    #: probability a name token is replaced by a thesaurus synonym
    synonym_rate: float = 0.35
    #: probability a name token is abbreviated (quantity → qty)
    abbreviation_rate: float = 0.2
    #: probability an element name flips naming convention (camel → snake)
    convention_flip_rate: float = 0.5
    #: probability an attribute is dropped from the target
    drop_rate: float = 0.1
    #: noise attributes added per entity (expected)
    noise_attributes: float = 0.7
    #: documentation availability (see module docstring)
    documentation: str = DOC_BOTH
    #: fraction of documentation words kept when paraphrasing
    paraphrase_keep: float = 0.7
    #: keep coding-scheme domains in the target
    keep_domains: bool = True
    #: fraction of a domain's codes preserved in the target
    domain_code_keep: float = 0.8
    #: attach shared instance samples to aligned attributes
    attach_instances: bool = False
    instance_sample_size: int = 12


@dataclass
class Scenario:
    """One matching problem with its reference alignment."""

    name: str
    source: SchemaGraph
    target: SchemaGraph
    alignment: Alignment
    config: ScenarioConfig


# -- name perturbation ------------------------------------------------------------

_REVERSE_ABBREVIATIONS: Dict[str, str] = {}
for _short, _full in DEFAULT_ABBREVIATIONS.items():
    # prefer the shortest abbreviation per full form
    if _full not in _REVERSE_ABBREVIATIONS or len(_short) < len(_REVERSE_ABBREVIATIONS[_full]):
        _REVERSE_ABBREVIATIONS[_full] = _short


def _perturb_name(name: str, rng: random.Random, config: ScenarioConfig,
                  thesaurus: Thesaurus) -> str:
    tokens = split_identifier(name)
    new_tokens: List[str] = []
    for token in tokens:
        replaced = token
        if rng.random() < config.synonym_rate:
            synonyms = sorted(thesaurus.synonyms(token) - {token})
            if synonyms:
                replaced = synonyms[rng.randrange(len(synonyms))]
        if replaced == token and rng.random() < config.abbreviation_rate:
            replaced = _REVERSE_ABBREVIATIONS.get(token, token)
        new_tokens.append(replaced)
    if not new_tokens:
        return name
    if rng.random() < config.convention_flip_rate:
        return "_".join(new_tokens)  # snake_case
    return new_tokens[0] + "".join(t.title() for t in new_tokens[1:])  # camelCase


def _unique(name: str, used: set) -> str:
    """*name*, or *name* plus the smallest numeric suffix (from 2) not in
    *used*: two names can perturb to the same string in one scope, and
    element ids must stay unique.  Deterministic — no random draws."""
    candidate, suffix = name, 2
    while candidate in used:
        candidate, suffix = f"{name}{suffix}", suffix + 1
    used.add(candidate)
    return candidate


def _paraphrase(doc: str, rng: random.Random, config: ScenarioConfig) -> str:
    """Keep most content words, vary the phrasing slightly."""
    words = doc.rstrip(".").split()
    kept = [w for w in words if rng.random() < config.paraphrase_keep]
    if not kept:
        kept = words[:3]
    if rng.random() < 0.5 and len(kept) > 2:
        # rotate a clause to vary word order
        pivot = rng.randrange(1, len(kept))
        kept = kept[pivot:] + kept[:pivot]
    fillers = ["recorded", "value", "for", "this", "element"]
    while rng.random() < 0.3:
        kept.append(fillers[rng.randrange(len(fillers))])
    text = " ".join(kept)
    return text[0].upper() + text[1:] + "."


_VALUE_POOLS = {
    "integer": lambda rng, i: str(rng.randrange(1, 10_000)),
    "decimal": lambda rng, i: f"{rng.uniform(1, 5000):.2f}",
    "float": lambda rng, i: f"{rng.uniform(0, 100):.3f}",
    "date": lambda rng, i: f"200{rng.randrange(6)}-{rng.randrange(1,13):02d}-{rng.randrange(1,29):02d}",
    "datetime": lambda rng, i: f"2006-{rng.randrange(1,13):02d}-{rng.randrange(1,29):02d}T{rng.randrange(24):02d}:00:00",
    "boolean": lambda rng, i: rng.choice(["true", "false"]),
    "string": lambda rng, i: rng.choice(
        ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    ) + str(i),
}


def _instance_values(rng: random.Random, datatype: str, count: int) -> List[str]:
    generator = _VALUE_POOLS.get(datatype or "string", _VALUE_POOLS["string"])
    return [generator(rng, i) for i in range(count)]


# -- scenario generation ----------------------------------------------------------------


def generate_scenario(
    base: Dict[str, Any],
    config: Optional[ScenarioConfig] = None,
    name: Optional[str] = None,
) -> Scenario:
    """Derive a (source, target, alignment) triple from a base ER model."""
    config = config or ScenarioConfig()
    rng = random.Random(config.seed)
    thesaurus = Thesaurus.default()
    # work on a private copy: perturbation annotates it (instance samples)
    # and the caller's base model must stay pristine
    import copy

    source_dict = copy.deepcopy(base)
    if config.documentation == DOC_NONE:
        source_dict = _strip_docs(source_dict, strip=True)
    source_name = base["name"]
    target_name = f"{source_name}_prime"

    target_dict: Dict[str, Any] = {"name": target_name, "entities": [], "domains": []}
    alignment = Alignment()
    domain_name_map: Dict[str, str] = {}
    target_docs = config.documentation == DOC_BOTH
    # names taken per scope (domains, entities); a domain whose codes
    # are all dropped frees its name again
    domain_names: set = set()
    entity_names: set = set()

    for domain in source_dict.get("domains", []):
        if not config.keep_domains:
            continue
        new_domain_name = _unique(
            _perturb_name(domain["name"], rng, config, thesaurus), domain_names)
        domain_name_map[domain["name"]] = new_domain_name
        values = []
        for value in domain.get("values", []):
            code = value["code"] if isinstance(value, dict) else value
            if rng.random() > config.domain_code_keep:
                continue
            entry: Dict[str, str] = {"code": code}
            if target_docs and isinstance(value, dict) and value.get("documentation"):
                entry["documentation"] = _paraphrase(value["documentation"], rng, config)
            values.append(entry)
        if len(values) < 2:  # a scheme needs at least two codes to be one
            domain_names.discard(new_domain_name)
            continue
        new_domain = {"name": new_domain_name, "type": domain.get("type", "string"),
                      "values": values}
        if target_docs and domain.get("documentation"):
            new_domain["documentation"] = _paraphrase(domain["documentation"], rng, config)
        target_dict["domains"].append(new_domain)
        alignment.add(
            f"{source_name}/domain:{domain['name']}",
            f"{target_name}/domain:{new_domain_name}",
        )
        for value in values:  # preserved codes correspond value-to-value
            alignment.add(
                f"{source_name}/domain:{domain['name']}/{value['code']}",
                f"{target_name}/domain:{new_domain_name}/{value['code']}",
            )

    noise_counter = 0
    for entity in source_dict.get("entities", []):
        new_entity_name = _unique(
            _perturb_name(entity["name"], rng, config, thesaurus), entity_names)
        attribute_names: set = set()
        new_entity: Dict[str, Any] = {"name": new_entity_name, "attributes": []}
        if target_docs and entity.get("documentation"):
            new_entity["documentation"] = _paraphrase(entity["documentation"], rng, config)
        alignment.add(f"{source_name}/{entity['name']}",
                      f"{target_name}/{new_entity_name}")
        for attribute in entity.get("attributes", []):
            if rng.random() < config.drop_rate and not attribute.get("key"):
                continue
            new_attr_name = _unique(
                _perturb_name(attribute["name"], rng, config, thesaurus),
                attribute_names)
            new_attr: Dict[str, Any] = {
                "name": new_attr_name,
                "type": attribute.get("type", "string"),
            }
            if attribute.get("key"):
                new_attr["key"] = True
            if target_docs and attribute.get("documentation"):
                new_attr["documentation"] = _paraphrase(attribute["documentation"], rng, config)
            domain_ref = attribute.get("domain")
            if domain_ref and config.keep_domains and domain_ref in domain_name_map:
                mapped = domain_name_map[domain_ref]
                if any(d["name"] == mapped for d in target_dict["domains"]):
                    new_attr["domain"] = mapped
            if config.attach_instances:
                shared = _instance_values(
                    rng, attribute.get("type", "string"), config.instance_sample_size
                )
                attribute.setdefault("instance_values", shared)
                # target sees an overlapping (not identical) sample
                overlap = shared[: int(len(shared) * 0.7)]
                extra = _instance_values(rng, attribute.get("type", "string"), 4)
                new_attr["instance_values"] = overlap + extra
            new_entity["attributes"].append(new_attr)
            alignment.add(
                f"{source_name}/{entity['name']}/{attribute['name']}",
                f"{target_name}/{new_entity_name}/{new_attr_name}",
            )
        # noise attributes: exist only in the target
        while rng.random() < config.noise_attributes / (1 + config.noise_attributes):
            noise_counter += 1
            new_entity["attributes"].append(
                {"name": _unique(f"auxiliary{noise_counter}", attribute_names),
                 "type": "string",
                 "documentation": "Reserved for future use by the target system."
                 if target_docs else ""}
            )
            break
        target_dict["entities"].append(new_entity)

    loader = ErModelLoader()
    source_graph = loader.load_dict(source_dict)
    target_graph = loader.load_dict(target_dict)
    # prune alignment pairs whose elements were lost to perturbation edge cases
    alignment = alignment.restrict(
        source_ids=source_graph.element_ids, target_ids=target_graph.element_ids
    )
    return Scenario(
        name=name or f"{source_name}->{target_name}",
        source=source_graph,
        target=target_graph,
        alignment=alignment,
        config=config,
    )


def _strip_docs(model: Dict[str, Any], strip: bool) -> Dict[str, Any]:
    if not strip:
        return model
    import copy

    clone = copy.deepcopy(model)
    clone.pop("documentation", None)
    for entity in clone.get("entities", []) + clone.get("relationships", []):
        entity.pop("documentation", None)
        for attribute in entity.get("attributes", []):
            attribute.pop("documentation", None)
    for domain in clone.get("domains", []):
        domain.pop("documentation", None)
        for value in domain.get("values", []):
            if isinstance(value, dict):
                value.pop("documentation", None)
    return clone


def standard_suite(
    seeds: Tuple[int, ...] = (7, 19, 42),
    config: Optional[ScenarioConfig] = None,
) -> List[Scenario]:
    """The default evaluation suite: every base model × every seed."""
    config = config or ScenarioConfig()
    scenarios = []
    for model_name, factory in sorted(BASE_MODELS.items()):
        for seed in seeds:
            scenario_config = replace(config, seed=seed)
            scenarios.append(
                generate_scenario(
                    factory(), scenario_config, name=f"{model_name}@{seed}"
                )
            )
    return scenarios
