"""The benchmark of record: one command, five workloads, every answer checked.

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1            # plus the traced run of each
    python3 benchmarks/e2e/run.py --workload query-hot --seed 7 --seconds 10 --trace 0

With ``--workload`` one workload runs in this process and the last line of
standard output is the JSON object BENCHMARK.json's contract asks for.
Without it every workload runs in a fresh subprocess of its own and the
results are printed together (and written to ``--out`` for compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import subprocess
import sys

import harness
from harness import (
    OUT,
    host_factor,
    interquartile,
    load_spec,
    percentile,
    perf,
    spin_ms,
    timed_round,
)

SETUPS = 3  # set-up is repeated and its median reported
SETUP_SPINS = 4  # calibration readings on each side of a set-up
MIN_ROUNDS = 8
MAX_ROUNDS = 400
SMOKE_ROUNDS = 3
FOLDS = 5  # interleaved subsets of the rounds, for the spread printed beside a value
TIME_UNITS = ("s", "ms", "us")


def readings(rounds: list, calibrated: bool) -> dict:
    """End-to-end readings of some rounds, at the reference host speed when
    the workload is ``calibrated``.

    Totals over every round, scaled by the ratio of means over every
    calibration reading taken in or beside them: pooling everything is
    what makes the calibration representative.
    """
    factor = host_factor([x for r in rounds for x in r["spins"]]) if calibrated else 1.0
    queries = sorted(s for r in rounds for s in r["query_s"])
    out = {
        "ops_per_s": sum(r["ops"] for r in rounds) / sum(r["ops_s"] for r in rounds) / factor,
        "query_p50_ms": percentile(queries, 50) * 1e3 * factor,
        "query_p95_ms": percentile(queries, 95) * 1e3 * factor,
        "open_first_query_ms": statistics.mean(r["first_ms"] for r in rounds) * factor,
    }
    if "update_s" in rounds[0]:  # informational: not a metric of the contract
        updates = sorted(s for r in rounds for s in r["update_s"])
        out["update_p50_ms"] = percentile(updates, 50) * 1e3 * factor
        out["update_p95_ms"] = percentile(updates, 95) * 1e3 * factor
    return out


def summarise(rounds: list, calibrated: bool) -> dict:
    """``{metric: (value, iqr)}``: the value over all rounds, the
    inter-quartile range over FOLDS interleaved subsets of them."""
    value = readings(rounds, calibrated)
    folds = [readings(rounds[f::FOLDS], calibrated) for f in range(min(FOLDS, len(rounds)))]
    return {k: (v, interquartile([fold[k] for fold in folds])) for k, v in value.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from layers import layer_metrics
    from workloads import WORKLOADS

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scratch = harness.make_scratch()
    workload = WORKLOADS[name](harness.Env(seed, smoke, scratch))
    try:
        setups = []
        for _ in range(1 if trace or smoke else SETUPS):
            workload.teardown()
            beside = [spin_ms() for _ in range(SETUP_SPINS)]
            t0 = perf()
            workload.setup()
            setup_s = perf() - t0
            beside += [spin_ms() for _ in range(SETUP_SPINS)]
            setups.append(setup_s * host_factor(beside))
        t0 = perf()
        workload.reference()
        reference_s = perf() - t0
        # the record trees and expected answers stay alive to the end: keep
        # them out of every collection the program's own garbage triggers
        gc.collect()
        gc.freeze()

        # a traced run keeps a third of the time for untraced rounds: the
        # overhead ratio needs their wall time, the probes need the rest
        budget_s = seconds / 3 if trace else seconds
        # a round's readings: the one before it, its own, the one after it
        rounds, walls, before = [], [], spin_ms()
        started = perf()
        while len(rounds) < MAX_ROUNDS:
            if smoke:
                if len(rounds) >= SMOKE_ROUNDS:
                    break
            elif len(rounds) >= MIN_ROUNDS and perf() - started >= budget_s:
                break
            result, wall = timed_round(workload.round)
            after = spin_ms()
            inner = result.get("spins", [])
            result["spins"] = [before, *inner, after]
            before = after
            rounds.append(result)
            walls.append(wall - sum(inner) / 1e3)  # the round without its own readings
        spins = [reading for r in rounds for reading in r["spins"]]

        per_layer = None
        if trace:
            tracers, traced_wall = timed_round(workload.traced_round)
            traced_spins = [before, spin_ms()]
            self_s = harness.write_trace(name, seed, traced_wall, tracers)
            workload.after_trace()
        workload.finish()
        if trace:
            per_layer = layer_metrics(workload, self_s, traced_wall)
            probe_factor = host_factor([*traced_spins, *(spin_ms() for _ in range(SETUP_SPINS))])
            for metric in per_layer:
                if units[metric] in TIME_UNITS:
                    per_layer[metric] *= probe_factor
            overhead = traced_wall / statistics.mean(walls)
            if workload.calibrated:
                overhead *= host_factor(traced_spins) / host_factor(spins)
            per_layer["obs.trace_overhead_ratio"] = overhead
            per_layer["host.spin_ms"] = statistics.mean(spins)
            per_layer["host.reference_check_s"] = reference_s
        workload.teardown()

        end_to_end = {
            "setup_s": (statistics.median(setups), interquartile(setups)),
            "peak_rss_mb": (workload.peak_rss_mb(), 0.0),
            "stored_bytes_per_input_byte": (workload.stored_ratio, 0.0),
        }
        named = {m["name"] for m in spec["end_to_end"]}
        extra = {}
        for metric, reading in summarise(rounds, workload.calibrated).items():
            (end_to_end if metric in named else extra)[metric] = reading
    finally:
        workload.teardown()
        harness.remove_tree(scratch)

    checker = workload.checker
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        metrics = {
            k: {"value": v, "unit": units[k], "iqr": iqr} for k, (v, iqr) in end_to_end.items()
        }
    return {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.first_failures,
        "metrics": metrics,
        "rounds": len(rounds),
        "info": {
            **workload.info,
            "ops_per_round": len(workload.ops),
            "ops_digest": harness.ops_digest(workload.ops),
            # calibrated times above are at the reference host speed; divide
            # by this factor for what the wall clock showed
            "calibrated": workload.calibrated,
            "host_factor": host_factor(spins),
            "spin_ms": statistics.mean(spins),
            "reference_check_s": reference_s,
            **{k: v for k, (v, _) in extra.items()},
        },
    }


def print_result(result: dict) -> None:
    mode = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  {mode}  "
          f"{result['rounds']} rounds{'  smoke' if result['smoke'] else ''}")
    for name, metric in result["metrics"].items():
        spread = f"   iqr {metric['iqr']:.4g}" if metric.get("iqr") else ""
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}{spread}")
    for key, value in result["info"].items():
        print(f"  . {key}: {value if not isinstance(value, float) else round(value, 4)}")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"  error_rate {rate:.6f}  ({result['failed']} failed of {result['attempted']} checked)")
    for failure in result["failures"]:
        print(f"  ! {failure}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()
        },
    })


def run_suite(args) -> int:
    """Every workload in a fresh subprocess of its own, results gathered."""
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    gathered: dict = {}
    failed = False
    for name in names:
        for trace in ([0, 1] if args.trace else [0]):
            detail = OUT / f"result-{name}-trace{trace}.json"
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(detail),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print("\n".join(proc.stdout.splitlines()[:-1]))  # all but the contract line
            if proc.returncode != 0 or not detail.exists():
                print(f"!! {name} (trace {trace}) exited with {proc.returncode}")
                failed = True
                continue
            result = json.loads(detail.read_text())
            entry = gathered.setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry.setdefault("failed", 0)
            entry.setdefault("attempted", 0)
            entry["failed"] += result["failed"]
            entry["attempted"] += result["attempted"]
            entry["ops_digest"] = result["info"]["ops_digest"]
            entry["info" if not trace else "info_traced"] = result["info"]
    if args.out:
        payload = {"seed": args.seed, "smoke": args.smoke, "workloads": gathered}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    errors = sum(entry.get("failed", 0) for entry in gathered.values())
    print(f"suite: {len(gathered)}/{len(names)} workloads, {errors} failed operations")
    return 1 if failed or errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1)
    parser.add_argument("--smoke", action="store_true", help="sizes / 10, three rounds")
    parser.add_argument("--out", help="also write the detailed result as JSON here")
    args = parser.parse_args(argv)
    # a terminated run still unwinds: scratch removed, server stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_suite(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_result(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
