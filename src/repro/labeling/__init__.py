"""Scope labelling: static (RIST) and dynamic (ViST) schemes."""

from repro.labeling.dynamic import (
    DEFAULT_MAX,
    Chain,
    LambdaAllocator,
    NodeState,
    ScopeAllocator,
)
from repro.labeling.scope import Scope

__all__ = [
    "Scope",
    "Chain",
    "NodeState",
    "ScopeAllocator",
    "LambdaAllocator",
    "DEFAULT_MAX",
]
