#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own bounds?
#
#   benchmark/agree.sh > benchmark/NOISE.md        (≈50 min)
#
# Runs the command of BENCHMARK.json as the driver does — every workload on
# seeds 1..10 for run_seconds each, untraced — twice over, the same seeds in
# both sets, plus one traced run per set and workload on seed 1. Prints, per
# workload and end-to-end metric, each set's median and quartiles as
# markdown, with the set's spread (interquartile range over median) next to
# a third of the bound, the steadiness the benchmark is held to. Fails unless
#   - the two sets' medians are within the metric's bound of each other,
#     whichever way they differ (a second set that reads much *better* means
#     the first was noisy);
#   - the four simulated metrics are equal, seed by seed and in the median;
#   - every per-layer count of the traced runs is equal between the sets;
#   - no op failed.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out

python3 - <<'EOF'
import json, statistics, subprocess, sys

RUNS = 10  # per set and workload, as in the driver's own procedure
LOG = "benchmark/out/agree.jsonl"
EXACT = {"sim_window_s", "sim_downtime_ms", "wire_bytes", "sim_exposure_vm_days"}

bench = json.load(open("BENCHMARK.json"))
seconds = bench["run_seconds"]
workloads = [w["name"] for w in bench["workloads"]]


def run(workload, seed, trace):
    out = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def measured(name):
    """A per-layer metric that is a timing of this run, not a count."""
    return name.endswith("_ms") or name.startswith("bench.") or name == "sim.pool.parallel_eff"


rows, counts, traced_failed = [], {}, {w: 0 for w in workloads}
with open(LOG, "w") as log:
    for s in (1, 2):
        for seed in range(1, RUNS + 1):
            for w in workloads:
                print(f"set {s} seed {seed} {w}", file=sys.stderr)
                rows.append({"set": s, "seed": seed, "workload": w, "result": run(w, seed, 0)})
                log.write(json.dumps(rows[-1]) + "\n")
                log.flush()
        for w in workloads:
            print(f"set {s} traced {w}", file=sys.stderr)
            traced = run(w, 1, 1)
            counts[s, w] = {k: v["value"] for k, v in traced["metrics"].items() if not measured(k)}
            traced_failed[w] += traced["failed"]

rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
print(f"# Noise: two sets of {RUNS} runs of the same code\n")
print(f"`benchmark/agree.sh`, {seconds} s per run, seeds 1..{RUNS} in both sets, "
      f"{nproc} hardware threads, working tree on top of `{rev or 'no git'}`.\n")
print("`spread` is the interquartile range over the median of one set "
      "(`statistics.quantiles(values, n=4)`); `sets differ` is the second set's median "
      "against the first's, and fails beyond the bound in either direction. "
      "Host-time metrics are nominal (drift-corrected) p10s.\n")
failures = []
for name in workloads:
    print(f"## {name}\n")
    print("| metric | unit | bound | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread | sets differ | bound / 3 |")
    print("|---|---|---|---|---|---|---|---|---|")
    untraced = [r for r in rows if r["workload"] == name]
    failed = sum(r["result"]["failed"] for r in untraced) + traced_failed[name]
    if failed:
        failures.append(f"{name}: {failed} failed ops")
    for m in bench["end_to_end"]:
        metric, bound = m["name"], m["bound"]
        cells, medians = [], []
        for s in (1, 2):
            values = [r["result"]["metrics"][metric]["value"] for r in untraced if r["set"] == s]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            medians.append(med)
            cells += [f"{med:.6g} [{q1:.6g}, {q3:.6g}]", f"{(q3 - q1) / med:.2%}"]
        differ = (medians[1] - medians[0]) / medians[0]
        if abs(differ) > bound:
            failures.append(f"{name} {metric}: set medians differ by {differ:+.2%} (bound {bound:.0%})")
        if metric in EXACT:
            by_seed = {}
            for r in untraced:
                by_seed.setdefault(r["seed"], set()).add(r["result"]["metrics"][metric]["value"])
            if medians[0] != medians[1] or any(len(v) != 1 for v in by_seed.values()):
                failures.append(f"{name} {metric}: simulated metric differs between sets at equal seed")
        print(f"| `{metric}` | {m['unit']} | {bound:.0%} | " + " | ".join(cells) + f" | {differ:+.2%} | {bound / 3:.2%} |")
    unequal = sorted(k for k in counts[1, name] if counts[1, name][k] != counts[2, name][k])
    if unequal:
        failures.append(f"{name}: per-layer counts differ between sets: {', '.join(unequal)}")
    print(f"\n{len(counts[1, name])} per-layer counts of a traced run on seed 1: "
          + ("**differ**" if unequal else "equal in both sets") + ".\n")
if failures:
    print("**FAIL**\n")
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print("**PASS**: the two sets' medians are within each bound of one another, simulated metrics "
      "are equal seed by seed, per-layer counts are equal, and no op failed.")
EOF
