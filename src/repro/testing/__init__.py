"""Correctness harness for the ViST reproduction.

Three cooperating pillars (one module each):

* :mod:`repro.testing.reference` + :mod:`repro.testing.generator` +
  :mod:`repro.testing.oracle` — the **differential oracle**: seeded
  random documents and queries, an independent in-memory XPath reference
  evaluator over the original document trees, and a driver that pins
  every index family and posting-cache configuration to the reference;
* :mod:`repro.testing.faults` — **crash-consistency fault injection**:
  a :class:`~repro.storage.wal.WalPager` subclass that deterministically
  kills the process model at every write/fsync boundary of the redo
  protocol, plus a sweep harness asserting recovery always lands on the
  committed pre- or post-state;
* :mod:`repro.testing.invariants` — **invariant checkers** for B+Tree
  structure, ViST scope containment and posting-cache coherence,
  callable from tests and from the CLI (``repro check``).

Exports resolve lazily so that ``python -m repro.testing.oracle`` does
not import the whole package twice.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "DocQueryGenerator": "repro.testing.generator",
    "reference_matches": "repro.testing.reference",
    "reference_results": "repro.testing.reference",
    "DifferentialOracle": "repro.testing.oracle",
    "Divergence": "repro.testing.oracle",
    "OracleReport": "repro.testing.oracle",
    "VistConfig": "repro.testing.oracle",
    "VIST_CONFIGS": "repro.testing.oracle",
    "ChaosConfig": "repro.testing.chaos",
    "ChaosMonkey": "repro.testing.chaos",
    "FaultyShardServer": "repro.testing.chaos",
    "CrashingWalPager": "repro.testing.faults",
    "SimulatedCrash": "repro.testing.faults",
    "FaultOutcome": "repro.testing.faults",
    "FaultSweepReport": "repro.testing.faults",
    "sweep_commit_faults": "repro.testing.faults",
    "InvariantReport": "repro.testing.invariants",
    "check_bptree": "repro.testing.invariants",
    "check_index": "repro.testing.invariants",
    "check_posting_coherence": "repro.testing.invariants",
    "check_vist_documents": "repro.testing.invariants",
    "check_vist_scopes": "repro.testing.invariants",
    "assert_invariants": "repro.testing.invariants",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)
