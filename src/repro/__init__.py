"""ViST: a dynamic index method for querying XML data by tree structures.

Reproduction of Wang, Park, Fan & Yu (SIGMOD 2003).  The public API:

* :class:`VistIndex` — the paper's contribution: a dynamically-labelled
  virtual suffix tree over B+Trees, with insertion, deletion and
  structural queries (branches, ``*``, ``//``) answered by subsequence
  matching without joins;
* :class:`RistIndex` / :class:`NaiveIndex` — the paper's intermediate and
  strawman designs (Sections 3.2–3.3);
* :class:`PathIndex` / :class:`XissIndex` — the two comparison baselines
  of the evaluation;
* document model, parser, sequence transform, XPath-subset
  parser, dataset generators and the storage substrate underneath.

Quick start::

    from repro import VistIndex, XmlNode

    index = VistIndex()
    order = XmlNode("purchase")
    order.element("seller").element("location", text="boston")
    order.element("buyer").element("location", text="newyork")
    doc_id = index.add(order)
    assert index.query("/purchase/*[location='boston']") == [doc_id]
"""

from repro.baselines import ApexIndex, PathIndex, XissIndex
from repro.datasets import (
    DblpConfig,
    DblpGenerator,
    SyntheticConfig,
    SyntheticGenerator,
    XmarkConfig,
    XmarkGenerator,
    dblp_schema,
    xmark_schema,
)
from repro.doc import (
    CorpusStats,
    XmlDocument,
    XmlNode,
    parse_document,
    parse_fragment,
    split_document,
    split_records,
)
from repro.errors import ReproError
from repro.index import NaiveIndex, RistIndex, VistIndex, verify_document
from repro.labeling import LambdaAllocator, Scope
from repro.query import QueryNode, QueryTranslator, parse_xpath
from repro.sequence import (
    Item,
    SequenceEncoder,
    StructureEncodedSequence,
    ValueHasher,
)
from repro.storage import (
    BPlusTree,
    FileDocStore,
    MemoryDocStore,
    MemoryPager,
    WalPager,
)

__version__ = "1.0.0"

__all__ = [
    "VistIndex",
    "RistIndex",
    "NaiveIndex",
    "PathIndex",
    "XissIndex",
    "ApexIndex",
    "verify_document",
    "XmlNode",
    "XmlDocument",
    "parse_document",
    "parse_fragment",
    "split_records",
    "split_document",
    "CorpusStats",
    "Item",
    "StructureEncodedSequence",
    "SequenceEncoder",
    "ValueHasher",
    "QueryNode",
    "parse_xpath",
    "QueryTranslator",
    "Scope",
    "LambdaAllocator",
    "BPlusTree",
    "MemoryPager",
    "WalPager",
    "MemoryDocStore",
    "FileDocStore",
    "SyntheticGenerator",
    "SyntheticConfig",
    "DblpGenerator",
    "DblpConfig",
    "dblp_schema",
    "XmarkGenerator",
    "XmarkConfig",
    "xmark_schema",
    "ReproError",
    "__version__",
]
