#!/usr/bin/env bash
# Refresh the checked-in benchmark snapshots, one BENCH_<target>.json per
# bench target in crates/bench/benches. Every target times through the
# harness in crates/bench/src/lib.rs and writes
# {"bench": <target>, <fields>, "rows": [{id, samples, iters_per_sample,
# min_ns, median_ns, max_ns}, ...]}:
#   classify    — prefiltered-vs-naive Table 1 classification throughput.
#   cluster     — interned/triangular-vs-naive §6 clustering end to end.
#   serve       — reactor-shard throughput and latency over loopback
#                 sockets under the barrage load harness (its fields hold
#                 the barrage points; it times no routine).
#   figures     — one row per paper table/figure (DESIGN.md §4 bench ids).
#   substrates  — hash/codec, regex, DLD, shell and SSH wire microbenches.
#   ablations   — the DESIGN.md §5 design-choice ablations.
#   sessiondb   — store write and scans vs re-parsing the JSON log
#                 (~7 minutes: two 15 s re-parse baselines, 13 calls each).
# Run from the repository root: ./scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for target in classify cluster serve figures substrates ablations sessiondb; do
    echo "== bench snapshot: $target =="
    cargo bench -p honeylab-bench --bench "$target" -- --json "$PWD/BENCH_$target.json"
done
