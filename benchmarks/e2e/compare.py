"""Apply BENCHMARK.json's bounds to two result files of run.py --out.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (metric, workload): ``better`` / ``same`` / ``worse`` when B
moved against A by more than the metric's bound, ``unresolved`` when
either side's inter-quartile range across rounds is itself wider than
the bound (the spread is printed), or when the two runs met host speeds
too far apart for the calibration to bridge.  Exits non-zero on any
``worse`` row or on a higher error rate.
"""

from __future__ import annotations

import json
import sys

from harness import load_spec

EXACT_UNITS = ("count", "bytes")  # metrics that must repeat bit for bit
# Between two runs at one seed this metric repeats exactly, so the issue's
# 1 % holds there; BENCHMARK.json's bound must also cover what the corpora of
# the driver's ten seeds differ by.
SAME_SEED_BOUNDS = {"stored_bytes_per_input_byte": 0.01}
# Scaling by the calibration kernel holds while the host speeds of the two
# runs are this close.  Past it the kernel over-corrects: a run that met the
# box at half speed (host_factor 0.51 against 0.73) read 25 % faster than its
# twin on every time and rate of query-wide-exact.
HOST_DRIFT = 1.25
TIMED_UNITS = ("s", "ms", "1/s")


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(word, relative change of B against A, widest relative IQR)."""
    spread = max(side.get("iqr", 0.0) / side["value"] for side in (a, b))
    change = (b["value"] - a["value"]) / a["value"]
    gain = -change if better == "lower" else change
    if spread > bound:
        word = "unresolved"
    elif gain < -bound:
        word = "worse"
    elif gain > bound:
        word = "better"
    else:
        word = "same"
    return word, change, spread


def compare(a: dict, b: dict, spec: dict) -> int:
    worse = 0
    print(f"{'metric':<30}{'workload':<18}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}{'iqr':>7}  verdict")
    tighter = SAME_SEED_BOUNDS if a.get("seed") == b.get("seed") else {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        bound = tighter.get(name, metric["bound"])
        for workload in (w["name"] for w in spec["workloads"]):
            sides = [
                side["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
                for side in (a, b)
            ]
            if None in sides:
                print(f"{name:<30}{workload:<18}{'missing on one side':>40}  unresolved")
                continue
            word, change, spread = verdict(*sides, metric["better"], bound)
            speeds = [side["workloads"][workload]["info"]["host_factor"] for side in (a, b)]
            if metric["unit"] in TIMED_UNITS and max(speeds) / min(speeds) > HOST_DRIFT:
                word = "unresolved"
            worse += word == "worse"
            print(
                f"{name:<30}{workload:<18}{sides[0]['value']:>12.5g}{sides[1]['value']:>12.5g}"
                f"{change:>+9.1%}{bound:>7.0%}{spread:>7.0%}  {word}"
            )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = (side["workloads"].get(workload, {}) for side in (a, b))
        rate_a, rate_b = (w.get("failed", 0) / max(1, w.get("attempted", 0)) for w in (wa, wb))
        if rate_b > rate_a:
            worse += 1
            print(f"{'error_rate':<30}{workload:<18}{rate_a:>12.6f}{rate_b:>12.6f}  worse")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb and a.get("seed") == b.get("seed"):
            moved = [
                n for n, u in units.items()
                if u in EXACT_UNITS and la[n]["value"] != lb[n]["value"]
            ]
            state = "bit-identical" if not moved else "DIFFER: " + ", ".join(moved)
            print(f"{'count metrics':<30}{workload:<18}  {state}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    return compare(a, b, load_spec())


if __name__ == "__main__":
    sys.exit(main())
