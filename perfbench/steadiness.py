#!/usr/bin/env python3
"""Measures how steady the benchmark is and records every run it makes.

    python3 perfbench/steadiness.py            # from the checkout root

Workload by workload, it runs each of ten seeds twice, as two
interleaved sets A and B (seed 1 A, seed 1 B, seed 2 A, ...), then one
traced run per workload and one run per workload on the held-out seed.
Each run is `perfbench/run.py` exactly as BENCHMARK.json states it. For every end-to-end metric it reports, per set, the median
and quartiles of the ten values (Python's `statistics.quantiles(n=4)`),
the spread (q3 - q1) / median, and how far set B's median moved from set
A's. A metric passes when its spread stays within its bound (set-up time
excepted) and B's median is not worse than A's by more than the bound.

Writes perfbench/steadiness/runs.jsonl (one line per run, in order) and
perfbench/steadiness/SUMMARY.md.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "steadiness"
SEEDS = list(range(1, 11))
# Never used while the benchmark was tuned; later claims must pass on it.
HELD_OUT_SEED = 7777


def run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode,
            "wall_s": round(wall, 2), "started": time.strftime("%H:%M:%S", time.gmtime(start)),
            "result": result}


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)
    log = (OUT / "runs.jsonl").open("w")
    runs = []

    def record(entry, label):
        entry["set"] = label
        runs.append(entry)
        log.write(json.dumps(entry) + "\n")
        log.flush()
        res = entry["result"] or {}
        print(f"{entry['started']} {label} {entry['workload']} seed {entry['seed']} "
              f"trace {entry['trace']}: {entry['wall_s']} s, correct {res.get('correct')}",
              file=sys.stderr, flush=True)

    for w in workloads:
        for seed in SEEDS:
            for label in ("A", "B"):
                record(run(spec, w, seed, 0), label)
    for w in workloads:
        record(run(spec, w, SEEDS[0], 1), "traced")
    for w in workloads:
        record(run(spec, w, HELD_OUT_SEED, 0), "held-out")

    lines = ["# Steadiness of the benchmark", "",
             f"Seeds {SEEDS[0]}-{SEEDS[-1]} per workload, sets A and B interleaved seed by seed, "
             f"`run_seconds` = {spec['run_seconds']}. Every run is in `runs.jsonl`.", ""]
    ok = all(r["exit"] == 0 and r["result"]["correct"] for r in runs)
    lines += [f"All {len(runs)} runs exited 0 and reported `correct: true`: {ok}.", ""]
    lines += ["| workload | metric | bound | set | median | q1 | q3 | spread | B vs A | pass |",
              "|---|---|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = {}
            for label in ("A", "B"):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if r["set"] == label and r["workload"] == w]
                per_set[label] = stats(values)
            a, b = per_set["A"], per_set["B"]
            moved = (b["median"] - a["median"]) / a["median"]
            worse = moved if m["better"] == "lower" else -moved
            for label, s in per_set.items():
                spread_ok = name == "setup_s" or s["spread"] <= bound
                passed = spread_ok and worse <= bound
                lines.append(
                    f"| {w} | {name} | {bound} | {label} | {s['median']:.6g} | {s['q1']:.6g} "
                    f"| {s['q3']:.6g} | {s['spread']:.3f} | {moved:+.3f} | {passed} |")
    lines += ["", f"## Held-out seed {HELD_OUT_SEED}", "",
              "| workload | " + " | ".join(m["name"] for m in spec["end_to_end"]) + " |",
              "|---|" + "---|" * len(spec["end_to_end"])]
    for r in runs:
        if r["set"] == "held-out":
            vals = [f"{r['result']['metrics'][m['name']]['value']:.6g}" for m in spec["end_to_end"]]
            lines.append(f"| {r['workload']} | " + " | ".join(vals) + " |")
    lines += ["", f"## Traced runs (seed {SEEDS[0]})", ""]
    for r in runs:
        if r["set"] == "traced":
            lines.append(f"### {r['workload']}")
            lines.append("")
            for k, v in r["result"]["metrics"].items():
                lines.append(f"- `{k}`: {v['value']:.6g} {v['unit']}")
            lines.append("")
    (OUT / "SUMMARY.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
