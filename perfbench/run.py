#!/usr/bin/env python3
"""One benchmark run of the mmog-dc provisioning pipeline.

    python3 perfbench/run.py --workload paper_sweep --seed 2008 --seconds 30 --trace 0

Run from the root of a source checkout. The script builds the `perfbench`
binary (a Cargo package of its own, in this directory) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts fresh `perfbench`
processes, each one cold instance of the workload, until `--seconds` are
used up. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts instances and `failed` those whose output failed a
check. With `--trace 0` the metrics are the end-to-end medians; with
`--trace 1` every other instance records spans and the metrics are the
per-layer medians. A human-readable table goes to stderr. See README.md
in this directory for the workloads, the metrics and the checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper_sweep", "fine_churn", "scale_1m")
DEFAULT_SEED = 2008
# Fewest instances a run aggregates, even past its time budget.
MIN_INSTANCES = 3
INSTANCE_TIMEOUT_S = 100
BUILD_TIMEOUT_S = 850

# name -> unit. Timings and peak RSS are medians over the run's
# instances; the rest are exact and identical in every instance.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "over_alloc_pct": "%",
}
PER_LAYER_EXACT = {
    "sim.under_alloc_pct": "%",
    "sim.under_events": "count",
    "sim.unserved_player_ticks": "player-ticks",
    "sim.unmet_share": "ratio",
    "sim.ticks": "count",
    "sim.group_ticks": "count",
    "sim.leases_granted": "count",
    "sim.leases_released": "count",
    "faults.events": "count",
    "faults.leases_revoked": "count",
    "faults.reprovisions": "count",
    "faults.scenario_events": "count",
    "faults.migrations": "count",
    "datacenter.rejections.distance": "count",
    "datacenter.rejections.exhausted": "count",
    "datacenter.rejections.grant_failed": "count",
    "datacenter.rejections.unavailable": "count",
    "datacenter.rejections.partitioned": "count",
    "predict.train_models": "count",
    "predict.train_repeat_share": "ratio",
}
PER_LAYER_TIMED = {
    "workload.trace_gen_s": "s",
    "faults.compile_s": "s",
    "predict.train_s": "s",
    "predict.train_share_of_setup": "ratio",
    "predict.score_s": "s",
    "predict.score_p99_us": "us",
    "sim.build_s": "s",
    "sim.tick_p50_us": "us",
    "sim.tick_p99_us": "us",
    "sim.reduce_s": "s",
    "sim.settle_s": "s",
    "sim.settle_p99_us": "us",
    "sim.settle_share_of_tick": "ratio",
    "sim.skip_share": "ratio",
    "datacenter.match_calls": "count",
    "datacenter.match_s": "s",
    "datacenter.match_mean_ns": "ns",
    "datacenter.grant_share": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds perfbench; returns the binary path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: build failed: {err}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        return None
    return target / "release" / "perfbench"


def run_instance(binary, workload, seed, traced):
    """One cold instance in a fresh process: its record, or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} instance timed out")
        return None
    if done.returncode != 0:
        log(f"perfbench: {workload} instance exited {done.returncode}: "
            f"{done.stderr.strip()}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        log(f"perfbench: unreadable instance output: {err}")
        return None


def check(record, first, reference):
    """The reasons `record` fails, empty when it passes."""
    if record is None:
        return ["instance failed"]
    problems = list(record["violations"])
    if first is not None and record["exact"] != first["exact"]:
        problems.append("exact outputs differ between instances")
    if reference is not None and record["exact"] != reference:
        diff = sorted(k for k in reference
                      if record["exact"].get(k) != reference[k])
        problems.append(f"differs from reference.json in {diff}")
    return problems


def median_of(records, field, key=None):
    values = [r[field] if key is None else r[field][key] for r in records]
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help=f"store this run's exact outputs as the reference "
                         f"(seed {DEFAULT_SEED} only)")
    args = ap.parse_args()
    if args.update_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--update-reference needs --seed {DEFAULT_SEED}")

    binary = build()
    if binary is None:
        return 1
    reference = None
    if args.seed == DEFAULT_SEED and not args.update_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    records, attempted, failed, first = [], 0, 0, None
    start = time.monotonic()
    while True:
        attempted += 1
        traced = args.trace == 1 and len(records) % 2 == 1
        record = run_instance(binary, args.workload, args.seed, traced)
        problems = check(record, first, reference)
        if problems:
            failed += 1
            log(f"perfbench: check failed: {'; '.join(problems)}")
        if record is not None:
            records.append(record)
            first = first or record
            log(f"  {args.workload} seed {args.seed}"
                f"{' traced' if traced else ''}: setup {record['setup_s']:.4f} s,"
                f" run {record['run_s']:.4f} s")
        elapsed = time.monotonic() - start
        per_instance = elapsed / max(len(records), 1)
        if record is None or (attempted >= MIN_INSTANCES
                              and elapsed + per_instance / 2 >= args.seconds):
            break
    if not records:
        return 1

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace == 0:
        metrics = {
            "setup_s": median_of(plain, "setup_s"),
            "run_s": median_of(plain, "run_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "over_alloc_pct": first["exact"]["over_alloc_pct"],
        }
        units = END_TO_END
    else:
        metrics = {k: first["exact"][k] for k in PER_LAYER_EXACT}
        metrics.update({k: median_of(traced, "layers", k)
                        for k in PER_LAYER_TIMED})
        untraced_run = median_of(plain, "run_s")
        metrics["obs.trace_overhead"] = (
            median_of(traced, "run_s") / untraced_run if untraced_run else 0.0)
        units = dict(PER_LAYER_EXACT, **PER_LAYER_TIMED,
                     **{"obs.trace_overhead": "ratio"})
        target = binary.parent.parent / "perfbench-spans.json"
        target.write_text(json.dumps(
            [{"seed": r["seed"], "spans": r["spans"]} for r in traced]))

    if args.update_reference and failed == 0:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored[args.workload] = first["exact"]
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        log(f"perfbench: wrote {args.workload} to {REFERENCE.name}")

    log(f"{args.workload} seed {args.seed}: {len(records)} instances in "
        f"{time.monotonic() - start:.1f} s")
    for name, value in metrics.items():
        log(f"  {name:34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
