"""DTD-like schemas of the generated corpora: occurrence statistics.

A schema is what the paper's clue-based scope allocation (Section 3.4.1,
Eq. 1–4) reads: ``p(u|x)`` — the probability that child ``u`` occurs
under ``x`` — multiplicity information for ``x*`` children, and an
estimate of the number of distinct values under each element/attribute.
Those live on each :class:`ChildSpec` / :class:`ElementDecl` with
sensible defaults derived from the declared cardinality.  The dataset
generators declare them and the A-λ ablation's clue allocator reads them.

The index reads no schema: siblings sort by label (the paper's order
when no DTD is given), and the index allocates with the λ rule
(:mod:`repro.labeling.dynamic`).
"""

from __future__ import annotations

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
    """Declaration of one element: its children + value statistics."""

    name: str
    children: list[ChildSpec] = field(default_factory=list)
    has_text: bool = False
    value_cardinality: int = 64

    def child(self, name: str) -> Optional[ChildSpec]:
        for spec in self.children:
            if spec.name == name:
                return spec
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
