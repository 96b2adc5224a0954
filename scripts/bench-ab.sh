#!/usr/bin/env bash
# A/B of one benchmark workload between a parent commit and the working
# tree, the way the acceptance check reads it (`make bench-ab`):
#
#   scripts/bench-ab.sh <parent-sha> <workload> [pairs]
#
# The parent is cloned into $SCRATCH/ab-parent and the working tree (tracked
# and untracked files, minus ignored ones) copied to $SCRATCH/ab-change, so
# each side builds in a directory of its own as the driver's runs do. Seeds
# 1..pairs each run both sides, alternating which goes first. Every run's
# result line is kept in $SCRATCH/ab-<workload>.jsonl and summarised per
# end-to-end metric: median and quartiles of each side, the change of the
# medians, pairs won, and the driver's rules — failed operations, and the
# spread of the change's ops_per_s against 25 % of the parent's median —
# and, beside it, each side's own spread as a share of its own median, which
# tells host noise (both shares alike) from a rate that moved (the rule's
# absolute spread grows with the rate at the same relative noise).
# Run nothing else meanwhile: the benchmark uses every core of the box.
set -euo pipefail
parent=${1:?usage: bench-ab.sh <parent-sha> <workload> [pairs]}
workload=${2:?usage: bench-ab.sh <parent-sha> <workload> [pairs]}
pairs=${3:-10}
scratch=${SCRATCH:-/root/scratch}
repo=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$scratch"
if [ ! -d "$scratch/ab-parent/.git" ]; then
	git clone -q "$repo" "$scratch/ab-parent"
fi
git -C "$scratch/ab-parent" fetch -q "$repo"
git -C "$scratch/ab-parent" checkout -q --detach "$parent"
# Refresh the copy but keep its build cache.
rm -rf "$scratch/ab-build.keep"
if [ -d "$scratch/ab-change/.bench_build" ]; then mv "$scratch/ab-change/.bench_build" "$scratch/ab-build.keep"; fi
rm -rf "$scratch/ab-change"
mkdir -p "$scratch/ab-change"
if [ -d "$scratch/ab-build.keep" ]; then mv "$scratch/ab-build.keep" "$scratch/ab-change/.bench_build"; fi
(cd "$repo" && git ls-files -co --exclude-standard -z | tar -cf - --null -T -) | tar -xf - -C "$scratch/ab-change"

out="$scratch/ab-$workload.jsonl"
: > "$out"
for seed in $(seq 1 "$pairs"); do
	order="parent change"
	if [ $((seed % 2)) -eq 0 ]; then order="change parent"; fi
	for side in $order; do
		line=$(bash "$scratch/ab-$side/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -1)
		echo "$line" | jq -c --arg side "$side" --argjson seed "$seed" '. + {side: $side, seed: $seed}' >> "$out"
		echo "$line" | jq -r --arg side "$side" --argjson seed "$seed" \
			'"seed \($seed) \($side): wall_ms_p50 \(.metrics.wall_ms_p50.value) ops_per_s \(.metrics.ops_per_s.value) failed \(.failed)"' >&2
	done
done

jq -rs --slurpfile decl "$repo/BENCHMARK.json" --arg w "$workload" '
# The cut points of Python statistics.quantiles(v, n=4), as benchmark/stats.go.
def cut($i): sort as $s | length as $n |
	if $n == 1 then $s[0] else
		([[($i * ($n + 1) / 4 | floor), 1] | max, $n - 1] | min) as $j |
		($i * ($n + 1) - $j * 4) as $d | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4
	end;
def side($s): map(select(.side == $s)) | sort_by(.seed);
def r: . * 10000 | round / 10000;
side("parent") as $p | side("change") as $c |
"\($w): \($p | length) pairs, parent vs change; median (q1–q3)",
($decl[0].end_to_end[] | . as $m |
	($p | map(.metrics[$m.name].value)) as $pv | ($c | map(.metrics[$m.name].value)) as $cv |
	([range(0; $pv | length) | select(if $m.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length) as $won |
	"  \($m.name) [\($m.unit), \($m.better) is better]: \($pv | cut(2) | r) (\($pv | cut(1) | r)–\($pv | cut(3) | r)) -> \($cv | cut(2) | r) (\($cv | cut(1) | r)–\($cv | cut(3) | r))  \(if ($pv | cut(2)) != 0 then "\((($cv | cut(2)) / ($pv | cut(2)) - 1) * 1000 | round / 10) %" else "n/a" end)  won \($won)/\($pv | length)"),
"  failed operations: parent \($p | map(.failed) | add), change \($c | map(.failed) | add); incorrect runs: \([.[] | select(.correct != true)] | length)",
(($c | map(.metrics.ops_per_s.value)) as $cv | ($p | map(.metrics.ops_per_s.value) | cut(2)) as $pm |
	(($cv | cut(3)) - ($cv | cut(1))) as $iqr |
	"  spread rule: IQR of the change ops_per_s \($iqr | r) vs 25 % of the parent median \($pm * 0.25 | r): \(if $iqr <= $pm * 0.25 then "pass" else "FAIL" end)"),
([$p, $c | map(.metrics.ops_per_s.value) | ((cut(3) - cut(1)) / cut(2) * 1000 | round / 10)] as $rel |
	"  relative spread: IQR of ops_per_s as a share of its own median: parent \($rel[0]) %, change \($rel[1]) % (no rule reads this line)")
' "$out"
