"""The mapping tool — our stand-in for the commercial mapper (AquaLogic).

Section 5.3's case study couples Harmony (matching) with a mapping tool
that supports *"manual mapping and automatic code generation"*.  This
module is that tool's model layer: a :class:`MappingSpec` collects the
piecemeal transformations of tasks 4–7 (domain, attribute, entity,
identity) per target entity, and :class:`MappingTool` offers the
operations the GUI would offer — drafting a spec from accepted
correspondences, binding row variables, editing column code — against the
shared mapping matrix.

Executing a spec is :mod:`repro.codegen.executable`'s job; emitting
XQuery-style text is :mod:`repro.codegen.xquery`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..core.correspondence import Correspondence
from ..core.elements import ElementKind, SchemaElement
from ..core.errors import MappingError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from .attribute_transforms import AttributeTransform, ScalarTransform
from .entity_transforms import DirectEntity, EntityTransform
from .expressions import Environment
from .identity import IdentityRule, KeyIdentity, SkolemFunction


@dataclass
class AttributeMapping:
    """One target attribute and the transform computing it."""

    target_attribute: str       # target element id
    transform: AttributeTransform
    #: local name used as the key in output rows (defaults from the id)
    output_name: str = ""

    def __post_init__(self) -> None:
        if not self.output_name:
            self.output_name = self.target_attribute.rsplit("/", 1)[-1]


@dataclass
class EntityMapping:
    """Everything needed to populate one target entity."""

    target_entity: str          # target element id
    entity_transform: EntityTransform
    attributes: List[AttributeMapping] = field(default_factory=list)
    identity: Optional[IdentityRule] = None

    def attribute_for(self, target_attribute: str) -> Optional[AttributeMapping]:
        for mapping in self.attributes:
            if mapping.target_attribute == target_attribute:
                return mapping
        return None


@dataclass
class MappingSpec:
    """A complete logical mapping: source schema(s) → target schema."""

    name: str
    source_schema: str
    target_schema: str
    entities: List[EntityMapping] = field(default_factory=list)
    lookup_tables: Dict[str, Dict[Any, Any]] = field(default_factory=dict)
    #: variable name → source attribute local name (Figure 3's row
    #: ``variable-name`` annotations, resolved for execution)
    variable_bindings: Dict[str, str] = field(default_factory=dict)

    def entity_for(self, target_entity: str) -> Optional[EntityMapping]:
        for mapping in self.entities:
            if mapping.target_entity == target_entity:
                return mapping
        return None

    def environment(self) -> Environment:
        """A fresh evaluation environment with lookup tables registered."""
        env = Environment()
        for name, table in self.lookup_tables.items():
            env.register_lookup(name, table)
        return env


class MappingTool:
    """The mapper's operations over one matching problem."""

    def __init__(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        matrix: Optional[MappingMatrix] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.matrix = matrix if matrix is not None else MappingMatrix.from_schemas(source, target)
        self.spec = MappingSpec(
            name=f"{source.name}->{target.name}",
            source_schema=source.name,
            target_schema=target.name,
        )

    # -- variable binding (Figure 3: rows carry variable-name) ------------------

    def bind_variable(self, source_id: str, variable: str) -> None:
        """Annotate a matrix row with the variable its element binds to."""
        self.matrix.set_row_variable(source_id, variable)
        self.spec.variable_bindings[variable.lstrip("$")] = source_id.rsplit("/", 1)[-1]

    def variable_of(self, source_id: str) -> str:
        name = self.matrix.row(source_id).variable_name
        if name:
            return name.lstrip("$")
        return source_id.rsplit("/", 1)[-1]

    # -- drafting from correspondences ---------------------------------------------

    def draft_from_matrix(self, threshold: float = 0.0) -> MappingSpec:
        """Propose a mapping spec from the matrix's accepted links.

        For each accepted container↔container link, a 1:1 entity mapping is
        drafted; each accepted attribute↔attribute link below it becomes a
        scalar copy transform referencing the row variable.  This is the
        candidate-transformation proposal a mapping tool makes when it
        hears mapping-cell events (Section 5.2.2).
        """
        accepted = [c for c in self.matrix.accepted() if c.confidence > threshold]
        entity_links: List[Correspondence] = []
        attribute_links: List[Correspondence] = []
        for link in accepted:
            source_el = self.source.get(link.source_id)
            target_el = self.target.get(link.target_id)
            if source_el is None or target_el is None:
                continue
            if source_el.is_container and target_el.is_container:
                entity_links.append(link)
            elif (
                source_el.kind is ElementKind.ATTRIBUTE
                and target_el.kind is ElementKind.ATTRIBUTE
            ):
                attribute_links.append(link)

        self.spec.entities = []
        for link in entity_links:
            entity = EntityMapping(
                target_entity=link.target_id,
                entity_transform=DirectEntity(source=link.source_id),
            )
            for attr_link in attribute_links:
                if self._under(self.source, attr_link.source_id, link.source_id) and self._under(
                    self.target, attr_link.target_id, link.target_id
                ):
                    variable = self.variable_of(attr_link.source_id)
                    entity.attributes.append(
                        AttributeMapping(
                            target_attribute=attr_link.target_id,
                            transform=ScalarTransform(code=f"${variable}"),
                        )
                    )
            entity.identity = self._propose_identity(link.source_id, entity)
            self.spec.entities.append(entity)
        self._sync_matrix_code()
        return self.spec

    @staticmethod
    def _under(graph: SchemaGraph, element_id: str, ancestor_id: str) -> bool:
        if element_id == ancestor_id:
            return True
        return any(a.element_id == ancestor_id for a in graph.ancestors(element_id))

    def _propose_identity(self, source_entity_id: str, entity: EntityMapping) -> IdentityRule:
        """Source keys when they exist (task 7's simple case), else Skolem."""
        key_attrs: List[str] = []
        for edge in self.source.out_edges(source_entity_id, "has-key"):
            for key_edge in self.source.out_edges(edge.object, "key-attribute"):
                key_attrs.append(self.variable_of(key_edge.object))
        if key_attrs:
            return KeyIdentity(attributes=key_attrs)
        args = [m.output_name for m in entity.attributes]
        name = entity.target_entity.rsplit("/", 1)[-1]
        return SkolemFunction(name=f"sk_{name}", arguments=args)

    # -- manual editing -------------------------------------------------------------

    def set_entity_transform(self, target_entity: str, transform: EntityTransform) -> EntityMapping:
        entity = self.spec.entity_for(target_entity)
        if entity is None:
            entity = EntityMapping(target_entity=target_entity, entity_transform=transform)
            self.spec.entities.append(entity)
        else:
            entity.entity_transform = transform
        self._sync_matrix_code()
        return entity

    def set_attribute_transform(
        self,
        target_entity: str,
        target_attribute: str,
        transform: AttributeTransform,
    ) -> AttributeMapping:
        """Install (or replace) the transform computing one target attribute."""
        entity = self.spec.entity_for(target_entity)
        if entity is None:
            raise MappingError(
                f"no entity mapping for {target_entity!r}; set an entity transform first"
            )
        mapping = entity.attribute_for(target_attribute)
        if mapping is None:
            mapping = AttributeMapping(target_attribute=target_attribute, transform=transform)
            entity.attributes.append(mapping)
        else:
            mapping.transform = transform
        self._sync_matrix_code()
        return mapping

    def set_identity(self, target_entity: str, rule: IdentityRule) -> None:
        entity = self.spec.entity_for(target_entity)
        if entity is None:
            raise MappingError(f"no entity mapping for {target_entity!r}")
        entity.identity = rule
        self._sync_matrix_code()

    def register_lookup(self, name: str, table: Mapping[Any, Any]) -> None:
        """Register a coding-scheme lookup table (task 4's detailed case)."""
        self.spec.lookup_tables[name] = dict(table)

    # -- matrix synchronization ------------------------------------------------------

    def _sync_matrix_code(self) -> None:
        """Mirror the spec's code snippets into the matrix's column ``code``
        annotations (Section 5.1.2's layout), so matchers and code
        generators see the mapper's work on the blackboard."""
        for entity in self.spec.entities:
            for mapping in entity.attributes:
                if self.matrix.has_column(mapping.target_attribute):
                    self.matrix.set_column_code(
                        mapping.target_attribute, mapping.transform.to_code()
                    )
            if self.matrix.has_column(entity.target_entity):
                self.matrix.set_column_code(
                    entity.target_entity, entity.entity_transform.to_code()
                )
