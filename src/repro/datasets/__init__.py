"""Dataset generators: synthetic (Section 4), DBLP-like, XMark-like."""

from repro.datasets.dblp import (
    MAIER_KEY,
    RECORD_LABELS as DBLP_RECORD_LABELS,
    DblpConfig,
    DblpGenerator,
    dblp_schema,
)
from repro.datasets.schema import ChildSpec, ElementDecl, Occurs, Schema
from repro.datasets.synthetic import ROOT_LABEL, SyntheticConfig, SyntheticGenerator
from repro.datasets.xmark import (
    RECORD_LABELS as XMARK_RECORD_LABELS,
    TARGET_DATE,
    XmarkConfig,
    XmarkGenerator,
    xmark_schema,
)

__all__ = [
    "Schema",
    "ElementDecl",
    "ChildSpec",
    "Occurs",
    "SyntheticConfig",
    "SyntheticGenerator",
    "ROOT_LABEL",
    "DblpConfig",
    "DblpGenerator",
    "dblp_schema",
    "MAIER_KEY",
    "DBLP_RECORD_LABELS",
    "XmarkConfig",
    "XmarkGenerator",
    "xmark_schema",
    "TARGET_DATE",
    "XMARK_RECORD_LABELS",
]
