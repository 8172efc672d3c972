"""DTD-like schemas: sibling order plus occurrence statistics.

ViST needs a schema for two things (paper Section 2 and Section 3.4.1):

1. **Sibling order.**  "The DTD schema embodies a linear order of all
   elements/attributes defined therein.  If the DTD is not available, we
   simply use the lexicographical order."  :meth:`Schema.sibling_position`
   exposes that linear order; the sequence transform sorts siblings by it.

2. **Semantic/statistical clues.**  Dynamic scope allocation with clues
   (Eq. 1–4) needs ``p(u|x)`` — the probability that child ``u`` occurs
   under ``x`` — multiplicity information for ``x*`` children, and an
   estimate of the number of distinct values under each element/attribute.
   Those live on each :class:`ChildSpec` / :class:`ElementDecl` with
   sensible defaults derived from the declared cardinality.  The index
   itself allocates without them (:mod:`repro.labeling.dynamic`); the
   dataset generators declare them and the A-λ ablation's clue allocator
   reads them.

Schemas can be built programmatically or parsed from the DTD subset the
paper's Figure 1 uses (``<!ELEMENT a (b, c*, d?)>`` sequences and
``<!ATTLIST ...>`` declarations) via :meth:`Schema.from_dtd`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from repro.errors import SchemaError

__all__ = ["Occurs", "ChildSpec", "ElementDecl", "Schema"]


class Occurs(Enum):
    """Cardinality of a child within its parent (DTD suffixes)."""

    ONE = ""  # exactly one
    OPT = "?"  # zero or one
    MANY = "*"  # zero or more
    PLUS = "+"  # one or more


_DEFAULT_PROB = {Occurs.ONE: 1.0, Occurs.OPT: 0.5, Occurs.MANY: 0.7, Occurs.PLUS: 1.0}


@dataclass
class ChildSpec:
    """One child slot in an element declaration.

    ``prob`` is ``p(child | parent)`` — the probability that *at least one*
    occurrence appears.  ``mean_repeats`` parameterises the geometric
    multiplicity model used for ``*``/``+`` children (Section 3.4.1's
    ``p_n(x|d)``).
    """

    name: str
    occurs: Occurs = Occurs.ONE
    prob: Optional[float] = None
    mean_repeats: float = 2.0
    is_attribute: bool = False

    def __post_init__(self) -> None:
        if self.prob is None:
            self.prob = _DEFAULT_PROB[self.occurs]
        if not 0.0 <= self.prob <= 1.0:
            raise SchemaError(f"p({self.name}|parent) = {self.prob} is not in [0, 1]")
        if self.mean_repeats < 1.0:
            raise SchemaError(f"mean_repeats for {self.name} must be >= 1")

    @property
    def repeatable(self) -> bool:
        return self.occurs in (Occurs.MANY, Occurs.PLUS)

    def repeat_continue_prob(self) -> float:
        """Probability that another occurrence follows, geometric model."""
        if not self.repeatable:
            return 0.0
        return 1.0 - 1.0 / self.mean_repeats


@dataclass
class ElementDecl:
    """Declaration of one element: ordered children + value statistics."""

    name: str
    children: list[ChildSpec] = field(default_factory=list)
    has_text: bool = False
    value_cardinality: int = 64

    def child(self, name: str) -> Optional[ChildSpec]:
        for spec in self.children:
            if spec.name == name:
                return spec
        return None

    def child_position(self, name: str) -> Optional[int]:
        for i, spec in enumerate(self.children):
            if spec.name == name:
                return i
        return None


class Schema:
    """A set of element declarations rooted at ``root``."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.decls: dict[str, ElementDecl] = {}

    # -- construction -----------------------------------------------------

    def element(
        self,
        name: str,
        children: Iterable[ChildSpec] = (),
        *,
        has_text: bool = False,
        value_cardinality: int = 64,
    ) -> ElementDecl:
        """Declare (or redeclare) an element and return its declaration."""
        decl = ElementDecl(
            name,
            list(children),
            has_text=has_text,
            value_cardinality=value_cardinality,
        )
        seen: set[str] = set()
        for spec in decl.children:
            if spec.name in seen:
                raise SchemaError(
                    f"element {name!r} declares child {spec.name!r} twice"
                )
            seen.add(spec.name)
        self.decls[name] = decl
        return decl

    def get(self, name: str) -> Optional[ElementDecl]:
        return self.decls.get(name)

    def require(self, name: str) -> ElementDecl:
        decl = self.decls.get(name)
        if decl is None:
            raise SchemaError(f"element {name!r} is not declared")
        return decl

    # -- sibling order ------------------------------------------------------

    def sibling_position(self, parent: str, child: str) -> tuple[int, str]:
        """Sort key for ``child`` among the children of ``parent``.

        Declared children sort by declaration position; undeclared ones
        sort after all declared ones, lexicographically — that keeps the
        order total even for documents that stray from the schema.
        """
        decl = self.decls.get(parent)
        if decl is not None:
            pos = decl.child_position(child)
            if pos is not None:
                return (pos, "")
        return (1 << 30, child)

    # -- statistics read by clue-based labelling (the A-λ ablation) ----------

    def occurrence_prob(self, parent: str, child: str) -> float:
        """``p(child | parent)`` — paper Section 3.4.1."""
        decl = self.decls.get(parent)
        if decl is None:
            return 0.5
        spec = decl.child(child)
        return spec.prob if spec is not None else 0.1

    def value_cardinality(self, label: str) -> int:
        decl = self.decls.get(label)
        return decl.value_cardinality if decl is not None else 64

    # -- DTD parsing ----------------------------------------------------------

    _ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.\-:]+)\s+(.*?)>", re.S)
    _ATTLIST_RE = re.compile(r"<!ATTLIST\s+([\w.\-:]+)\s+(.*?)>", re.S)
    _ATT_DEF_RE = re.compile(r"([\w.\-:]+)\s+(?:CDATA|ID|IDREF|NMTOKEN)\s*(?:#\w+)?")

    @classmethod
    def from_dtd(cls, text: str, root: Optional[str] = None) -> "Schema":
        """Parse the DTD subset of paper Figure 1 into a schema.

        Supports element content models made of names with ``? * +``
        suffixes combined by ``,`` (sequence) and ``|`` (choice — each
        branch becomes an optional child in declaration order), ``EMPTY``,
        ``ANY`` and ``(#PCDATA)``.  ``ATTLIST`` attributes become leading
        children in declaration order, as in paper Figure 3 where ``ID``
        and ``Name`` attributes are nodes before sub-elements.
        """
        element_children: dict[str, list[ChildSpec]] = {}
        element_text: dict[str, bool] = {}
        order: list[str] = []
        for match in cls._ELEMENT_RE.finditer(text):
            name, model = match.group(1), match.group(2).strip()
            order.append(name)
            specs, has_text = cls._parse_content_model(name, model)
            element_children[name] = specs
            element_text[name] = has_text
        attributes: dict[str, list[ChildSpec]] = {}
        for match in cls._ATTLIST_RE.finditer(text):
            name, body = match.group(1), match.group(2)
            specs = attributes.setdefault(name, [])
            for att in cls._ATT_DEF_RE.finditer(body):
                specs.append(ChildSpec(att.group(1), Occurs.ONE, is_attribute=True))
        if not order:
            raise SchemaError("no <!ELEMENT ...> declarations found")
        schema = cls(root or order[0])
        for name in order:
            children = attributes.get(name, []) + element_children[name]
            schema.element(name, children, has_text=element_text[name])
        # Attribute-only names (ATTLIST without ELEMENT) get leaf decls.
        for name, specs in attributes.items():
            if name not in schema.decls:
                schema.element(name, specs)
        return schema

    @classmethod
    def _parse_content_model(cls, name: str, model: str) -> tuple[list[ChildSpec], bool]:
        model = model.strip()
        if model in ("EMPTY", "ANY"):
            return [], model == "ANY"
        if not (model.startswith("(") and model.rstrip("?*+").endswith(")")):
            raise SchemaError(f"unsupported content model for {name!r}: {model!r}")
        outer_suffix = model[len(model.rstrip("?*+")) :]
        inner = model.rstrip("?*+")[1:-1]
        has_text = False
        specs: list[ChildSpec] = []
        is_choice = "|" in inner and "," not in inner
        for part in re.split(r"[|,]", inner):
            part = part.strip()
            if not part:
                continue
            if part == "#PCDATA":
                has_text = True
                continue
            suffix = ""
            while part and part[-1] in "?*+":
                suffix = part[-1]
                part = part[:-1].strip()
            if not re.fullmatch(r"[\w.\-:]+", part):
                raise SchemaError(
                    f"unsupported token {part!r} in content model of {name!r}"
                )
            occurs = Occurs(suffix)
            if outer_suffix in ("*", "+"):
                occurs = Occurs.MANY
            elif is_choice or outer_suffix == "?":
                if occurs == Occurs.ONE:
                    occurs = Occurs.OPT
            specs.append(ChildSpec(part, occurs))
        return specs, has_text
