"""XML document substrate: tree model, parser, splitting, corpus statistics."""

from repro.doc.model import XmlDocument, XmlNode
from repro.doc.parser import (
    decode_xml_bytes,
    detect_xml_encoding,
    from_element_tree,
    parse_document,
    parse_document_bytes,
    parse_fragment,
)
from repro.doc.split import split_document, split_records
from repro.doc.stats import CorpusStats
from repro.doc.stream import iter_stream_records

__all__ = [
    "XmlDocument",
    "XmlNode",
    "parse_document",
    "parse_document_bytes",
    "parse_fragment",
    "from_element_tree",
    "detect_xml_encoding",
    "decode_xml_bytes",
    "iter_stream_records",
    "CorpusStats",
    "split_records",
    "split_document",
]
