#!/usr/bin/env bash
# Interleaved parent/change benchmark pairs — the procedure a perf claim in
# this repository is judged by (choosing-metrics §8, bench/README.md):
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> <pairs>
#
# For seeds 1…pairs it runs, in each checkout,
#   bash bench/run.sh --workload W --seed i --seconds 20 --trace 0
# alternating which side goes first, and prints every run's end-to-end
# metrics, then per metric both sides' quartiles and medians, the ratio of
# the medians, the pairs each side won and one verdict, by the `bound` and
# `better` of the parent's BENCHMARK.json:
#   regressed     the change's median is worse than the parent's by more
#                 than the bound (a fraction of the parent's median)
#   unresolved    the parent's IQR exceeds the bound, and not every change
#                 run beats every parent run
#   within bound  otherwise
#   gain          the change won at least 9/10 of the pairs and the medians
#                 differ, in its favour, by more than the parent's IQR
# It exits 1 on any `regressed` verdict, or when the change has more failed
# runs than the parent. A checkout is a directory holding the committed
# files of one commit (`git archive <commit> | tar -x -C <dir>`); each side
# builds its own benchmark binary under its own .bench_build/. Runs that
# fail, or whose last line is not {"correct":true,…,"failed":0,…}, are
# reported and counted against that side, never dropped.
set -euo pipefail
if [ $# -ne 4 ]; then
	sed -n '2,27p' "$0" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)" change="$(cd "$2" && pwd)" workload="$3" pairs="$4"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

run() { # side checkout seed
	local line
	line="$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 20 --trace 0 2>>"$out/$1.err" | tail -n 1)" || line='{"correct":false}'
	printf '%s\t%s\n' "$3" "$line" >>"$out/$1.tsv"
	printf '%s seed %s: %s\n' "$1" "$3" "$line" >&2
}

for seed in $(seq 1 "$pairs"); do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
done

python3 - "$parent/BENCHMARK.json" "$out/parent.tsv" "$out/change.tsv" "$workload" <<'EOF'
import json, statistics, sys

bench, parent_tsv, change_tsv, workload = sys.argv[1:5]
metrics = {m["name"]: m for m in json.load(open(bench))["end_to_end"]}

def load(path):
    runs = {}
    for line in open(path):
        seed, doc = line.rstrip("\n").split("\t", 1)
        try:
            doc = json.loads(doc)
        except ValueError:
            doc = {"correct": False}
        ok = doc.get("correct") is True and doc.get("failed") == 0
        runs[int(seed)] = (ok, {k: v["value"] for k, v in doc.get("metrics", {}).items()})
    return runs

sides = {"parent": load(parent_tsv), "change": load(change_tsv)}
failed = {}
for name, runs in sides.items():
    bad = [s for s, (ok, _) in sorted(runs.items()) if not ok]
    failed[name] = len(bad)
    print(f"{name}: {len(runs)} runs, {len(bad)} failed or incorrect" + (f" (seeds {bad})" if bad else ""))

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[1], q[2]

def verdict(p, c, won, pairs, bound, sign):
    """The acceptance rules; p, c are both sides' values, sign +1 when higher is better."""
    pq1, pm, pq3 = quartiles(sorted(p))
    cm = statistics.median(c)
    gain = sign * (cm - pm)  # > 0: the change's median is better
    if pairs and won >= 0.9 * pairs and gain > pq3 - pq1:
        return "gain"
    if -gain > bound * abs(pm):
        return "regressed"
    beats_every_parent_run = all(sign * (x - y) > 0 for x in c for y in p)
    if pq3 - pq1 > bound * abs(pm) and not beats_every_parent_run:
        return "unresolved"
    return "within bound"

regressed = []
print(f"\n{workload}: {len(sides['parent'])} pairs, seeds 1..{len(sides['parent'])}")
print(f"{'metric':<18}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}   per-seed values")
for metric, spec in metrics.items():
    vals = {n: {s: m[metric] for s, (ok, m) in r.items() if ok and metric in m} for n, r in sides.items()}
    if not vals["parent"] or not vals["change"]:
        continue
    for n in ("parent", "change"):
        v = [vals[n][s] for s in sorted(vals[n])]
        q1, med, q3 = quartiles(v)
        print(f"{metric:<18}{n:<8}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}   " + " ".join(f"{x:.5g}" for x in v))
    both = sorted(set(vals["parent"]) & set(vals["change"]))
    sign = 1 if spec["better"] == "higher" else -1
    won = sum(sign * (vals["change"][s] - vals["parent"][s]) > 0 for s in both)
    lost = sum(sign * (vals["change"][s] - vals["parent"][s]) < 0 for s in both)
    pm = statistics.median(vals["parent"].values())
    cm = statistics.median(vals["change"].values())
    pq1, _, pq3 = quartiles(sorted(vals["parent"].values()))
    v = verdict(list(vals["parent"].values()), list(vals["change"].values()), won, len(both), spec["bound"], sign)
    if v == "regressed":
        regressed.append(metric)
    print(f"{'':<18}{spec['better']} is better: change/parent median {cm / pm:.3f}x, change won {won}/{len(both)} pairs, "
          f"parent {lost}/{len(both)}; parent IQR {pq3 - pq1:.4g} ({(pq3 - pq1) / abs(pm):.1%} of its median), "
          f"medians differ by {abs(cm - pm):.4g}; bound {spec['bound']:.0%}: {v}\n")

if regressed or failed["change"] > failed["parent"]:
    print(f"FAIL: regressed {regressed}, failed runs change {failed['change']} vs parent {failed['parent']}")
    sys.exit(1)
EOF
