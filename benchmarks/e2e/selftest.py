"""Self-test of the benchmark harness, on ``--smoke`` sizes.

    python3 benchmarks/e2e/selftest.py
    python3 -m pytest benchmarks/e2e/selftest.py

Checks that every workload and metric BENCHMARK.json names is emitted
with its unit, that two runs with one seed give identical count metrics
and operation lists, and that another seed changes the operation lists.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import EXACT_UNITS  # noqa: E402
from harness import OUT, load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def suite(seed: int, trace: int, tag: str) -> dict:
    """One smoke run of the whole suite (``tag`` tells repeated runs apart)."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"selftest-{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
        "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(out.read_text())["workloads"]


def test_every_named_metric_is_emitted_with_its_unit():
    result = suite(12, 1, "a")
    assert sorted(result) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert result[workload]["failed"] == 0
        for group in ("end_to_end", "per_layer"):
            emitted = result[workload][group]
            assert sorted(emitted) == sorted(m["name"] for m in SPEC[group]), (workload, group)
            for metric in SPEC[group]:
                assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
        for metric in SPEC["end_to_end"]:
            assert result[workload]["end_to_end"][metric["name"]]["value"] > 0, metric["name"]


def test_same_seed_repeats_counts_and_operation_lists():
    first, second = suite(12, 1, "a"), suite(12, 1, "b")
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    for workload in WORKLOADS:
        assert first[workload]["ops_digest"] == second[workload]["ops_digest"], workload
        for name in exact:
            a = first[workload]["per_layer"][name]["value"]
            b = second[workload]["per_layer"][name]["value"]
            assert a == b, (workload, name, a, b)


def test_another_seed_changes_the_operation_lists():
    first, other = suite(12, 1, "a"), suite(13, 0, "c")
    changed = [w for w in WORKLOADS if first[w]["ops_digest"] != other[w]["ops_digest"]]
    # query-hot and serve-sharded cycle the fixed Table-3 set: their lists
    # are the same for every seed, only the corpus under them changes
    assert {"ingest-bulk", "query-wide-exact", "update-mix"} <= set(changed), changed


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
