#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
# Run from the repository root: ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: rustfmt =="
cargo fmt --all --check

echo "== tier1: release build =="
cargo build --release

echo "== tier1: tests (private TMPDIR, no scratch dirs left behind) =="
# Tests run with a TMPDIR of their own, so a test that leaves its scratch
# directory behind fails here instead of piling up in the shared one.
# Names are matched, not emptiness: tests/cli.rs shares one directory
# between parallel tests and leaves it empty.
test_tmp="$(mktemp -d)"
trap 'rm -rf "$test_tmp"' EXIT
TMPDIR="$test_tmp" cargo test -q --workspace
leaked="$(find "$test_tmp" -mindepth 1 -maxdepth 1 \( -name 'sessiondb-*' -o -name 'hswal-*' \))"
if [ -n "$leaked" ]; then
    echo "tests left scratch directories behind:"
    echo "$leaked"
    exit 1
fi

echo "== tier1: live socket suite, 10 release runs (ordering races) =="
# A race between counters, slots and shutdown may fail one run in five;
# ten runs make it fail the gate instead of slipping through.
for run in $(seq 1 10); do
    cargo test -q --release -p serve --test live > /dev/null \
        || { echo "live suite failed on run $run"; exit 1; }
done

echo "== tier1: crash suite, 10 release runs (durability ordering races) =="
# A session becomes durable on the store writer, not on the shard that
# served it; the kill points are the oracle for that moment, and one
# run per commit can miss an ordering race.
for run in $(seq 1 10); do
    cargo test -q --release --test crash > /dev/null \
        || { echo "crash suite failed on run $run"; exit 1; }
done

echo "== tier1: clippy (deny warnings) =="
cargo clippy --all-targets --workspace -- -D warnings

echo "== tier1: rustdoc (deny warnings: broken and private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier1: bench smoke (all seven targets: asserts and equivalence gates, tiny dataset, one call per id) =="
cargo bench -p honeylab-bench -- --smoke

echo "== tier1: sessiondb smoke (generate -> analyze; 1 thread == 2 threads) =="
smoke="$(mktemp -d)/smoke.hsdb"
trap 'rm -rf "$test_tmp" "$(dirname "$smoke")"' EXIT
./target/release/honeylab generate --scale 60000 --seed 5 \
    --out-format sessiondb --out "$smoke"
./target/release/honeylab analyze "$smoke" > /dev/null
# Segment partials merge in segment order whichever worker folded them,
# so the report must not depend on the worker count.
for threads in 1 2; do
    ./target/release/honeylab analyze "$smoke" --format json \
        --analysis-threads "$threads" > "$(dirname "$smoke")/threads-$threads.json"
done
cmp "$(dirname "$smoke")/threads-1.json" "$(dirname "$smoke")/threads-2.json" \
    || { echo "analyze --format json differs between 1 and 2 threads"; exit 1; }

echo "== tier1: crash-recovery smoke (serve -> kill -9 -> recover) =="
crash_dir="$(mktemp -d)"
crash_store="$crash_dir/crash.hsdb"
crash_log="$crash_dir/serve.log"
# Hold stdin open (via a FIFO the script keeps a writer on) so the
# server does not drain early; SIGKILL is the only way this instance
# ever exits. A FIFO rather than `sleep N |` keeps the server out of a
# pipeline job, so `wait` below reaps it the moment it dies instead of
# stalling on the stdin-holder.
mkfifo "$crash_dir/stdin"
./target/release/honeylab serve --ssh-port 0 --stats-secs 0 \
    --fsync-every 1 --store "$crash_store" \
    < "$crash_dir/stdin" 2> "$crash_log" &
serve_pid=$!
exec 8> "$crash_dir/stdin"
for _ in $(seq 1 100); do
    grep -q 'listening ssh on ' "$crash_log" && break
    sleep 0.1
done
addr="$(sed -n 's/^listening ssh on //p' "$crash_log" | head -1)"
[ -n "$addr" ] || { echo "serve never came up"; cat "$crash_log"; exit 1; }
./target/release/honeylab probe "$addr" --count 5
# Wait until every acknowledged session is durable (WAL-framed with
# fsync-every 1), then kill the server without any chance to clean up.
for _ in $(seq 1 100); do
    ./target/release/honeylab recover "$crash_store" --dry-run 2>&1 \
        | grep -q 'wal: 5 frame(s) replayable' && break
    sleep 0.1
done
kill -9 "$serve_pid"
wait "$serve_pid" 2> /dev/null || true
exec 8>&-
recover_out="$(./target/release/honeylab recover "$crash_store" 2>&1)"
echo "$recover_out"
echo "$recover_out" | grep -q 'recovered' \
    || { echo "recovery found nothing to replay"; exit 1; }
echo "$recover_out" | grep -Eq 'store: [1-9][0-9]* sessions .* CRCs intact' \
    || { echo "recovered store failed CRC verification"; exit 1; }
./target/release/honeylab analyze "$crash_store" > /dev/null
rm -rf "$crash_dir"

echo "== tier1: api schema goldens =="
./scripts/check_api_schema.sh

echo "== tier1: http observability smoke (serve -> curl -> SIGINT) =="
http_dir="$(mktemp -d)"
http_store="$http_dir/http.hsdb"
http_log="$http_dir/serve.log"
# Hold stdin open via a FIFO: the server treats stdin EOF as a shutdown
# request, and we want SIGINT (not a closed pipe) to end this instance.
# (Not `sleep N |`: a pipeline would make `wait` below stall on the
# stdin-holder long after the server has exited.)
mkfifo "$http_dir/stdin"
./target/release/honeylab serve --ssh-port 0 --http-port 0 \
    --stats-secs 0 --store "$http_store" \
    < "$http_dir/stdin" 2> "$http_log" &
http_pid=$!
exec 9> "$http_dir/stdin"
for _ in $(seq 1 100); do
    grep -q 'listening http on ' "$http_log" && break
    sleep 0.1
done
http_addr="$(sed -n 's/^listening http on \([0-9.:]*\) .*/\1/p' "$http_log" | head -1)"
ssh_addr="$(sed -n 's/^listening ssh on //p' "$http_log" | head -1)"
[ -n "$http_addr" ] || { echo "http plane never came up"; cat "$http_log"; exit 1; }
curl -fsS "http://$http_addr/api/health" | grep -q '"honeylab_api": "v1"' \
    || { echo "/api/health is not a v1 envelope"; exit 1; }
./target/release/honeylab probe "$ssh_addr" --count 3
for _ in $(seq 1 100); do
    curl -fsS "http://$http_addr/api/stats" | grep -q '"total_sessions": 3' && break
    sleep 0.1
done
curl -fsS "http://$http_addr/api/stats" | grep -q '"total_sessions": 3' \
    || { echo "/api/stats never reflected the probe sessions"; exit 1; }
curl -fsS "http://$http_addr/api/sessions/recent" | grep -q '"kind": "sessions_recent"' \
    || { echo "/api/sessions/recent missing"; exit 1; }
kill -INT "$http_pid"
exec 9>&-
if ! wait "$http_pid"; then
    echo "serve did not exit cleanly after SIGINT"
    cat "$http_log"
    exit 1
fi
grep -q 'final: ' "$http_log" || { echo "serve report missing"; exit 1; }
rm -rf "$http_dir"

echo "== tier1: barrage smoke (serve <- barrage; live stats == analyze) =="
bar_dir="$(mktemp -d)"
bar_store="$bar_dir/barrage.hsdb"
bar_log="$bar_dir/serve.log"
# Same FIFO trick as above: SIGINT (not stdin EOF) ends this instance.
mkfifo "$bar_dir/stdin"
./target/release/honeylab serve --ssh-port 0 --http-port 0 \
    --stats-secs 0 --store "$bar_store" \
    < "$bar_dir/stdin" 2> "$bar_log" &
bar_pid=$!
exec 7> "$bar_dir/stdin"
for _ in $(seq 1 100); do
    grep -q 'listening http on ' "$bar_log" && break
    sleep 0.1
done
bar_http="$(sed -n 's/^listening http on \([0-9.:]*\) .*/\1/p' "$bar_log" | head -1)"
bar_ssh="$(sed -n 's/^listening ssh on //p' "$bar_log" | head -1)"
[ -n "$bar_ssh" ] || { echo "serve never came up"; cat "$bar_log"; exit 1; }
bar_json="$(./target/release/honeylab barrage "$bar_ssh" \
    --sessions 200 --concurrency 16 --format json)"
echo "$bar_json" | jq -e \
    '.data.shed == 0 and .data.errors == 0 and .data.completed == .data.planned' \
    > /dev/null \
    || { echo "barrage shed or errored under smoke load"; echo "$bar_json"; exit 1; }
# The live taxonomy must converge to exactly what post-hoc analysis of
# the sealed store reports — same accumulator, two paths.
for _ in $(seq 1 100); do
    [ "$(curl -fsS "http://$bar_http/api/stats" \
        | jq '.data.taxonomy.total_sessions')" = "200" ] && break
    sleep 0.1
done
live_tax="$(curl -fsS "http://$bar_http/api/stats" | jq -S '.data.taxonomy')"
kill -INT "$bar_pid"
exec 7>&-
wait "$bar_pid" || { echo "serve did not exit cleanly"; cat "$bar_log"; exit 1; }
batch_tax="$(./target/release/honeylab analyze "$bar_store" \
    --report taxonomy --format json | jq -S '.data.taxonomy')"
if [ "$live_tax" != "$batch_tax" ]; then
    echo "live /api/stats taxonomy drifted from post-hoc analyze:"
    diff <(echo "$live_tax") <(echo "$batch_tax") || true
    exit 1
fi
rm -rf "$bar_dir"

echo "== tier1: storeless serve keeps flat memory (barrage 30,000 + 60,000 sessions) =="
# A finished connection must leave nothing behind: once 30,000 sessions
# have warmed up a storeless one-shard server, 60,000 more may grow its
# RSS by at most 2048 kB. Measured on a 2-CPU host over 5 runs, this
# code grew 656-1016 kB; a shard that kept each closed connection's
# timer until its 180 s idle deadline grew 3300-3888 kB.
flat_dir="$(mktemp -d)"
flat_log="$flat_dir/serve.log"
# Same FIFO trick as above: SIGINT (not stdin EOF) ends this instance.
mkfifo "$flat_dir/stdin"
./target/release/honeylab serve --ssh-port 0 --workers 1 --stats-secs 0 \
    < "$flat_dir/stdin" 2> "$flat_log" &
flat_pid=$!
exec 5> "$flat_dir/stdin"
for _ in $(seq 1 100); do
    grep -q 'listening ssh on ' "$flat_log" && break
    sleep 0.1
done
flat_ssh="$(sed -n 's/^listening ssh on //p' "$flat_log" | head -1)"
[ -n "$flat_ssh" ] || { echo "serve never came up"; cat "$flat_log"; exit 1; }
flat_rss() { awk '/^VmRSS:/ {print $2}' "/proc/$flat_pid/status"; }
./target/release/honeylab barrage "$flat_ssh" --sessions 30000 --rate 3000 --seed 1 \
    2> "$flat_dir/barrage.log" \
    || { echo "warm-up barrage failed"; cat "$flat_dir/barrage.log"; exit 1; }
rss_before="$(flat_rss)"
./target/release/honeylab barrage "$flat_ssh" --sessions 60000 --rate 3000 --seed 2 \
    2> "$flat_dir/barrage.log" \
    || { echo "barrage failed"; cat "$flat_dir/barrage.log"; exit 1; }
rss_after="$(flat_rss)"
kill -INT "$flat_pid"
exec 5>&-
wait "$flat_pid" || { echo "serve did not exit cleanly"; cat "$flat_log"; exit 1; }
rss_growth=$((rss_after - rss_before))
echo "VmRSS ${rss_before} kB -> ${rss_after} kB over 60,000 sessions (+${rss_growth} kB)"
if [ "$rss_growth" -gt 2048 ]; then
    echo "a storeless server's memory grew ${rss_growth} kB over 60,000 sessions (bound 2048 kB)"
    exit 1
fi
rm -rf "$flat_dir"

echo "== tier1: honeybench (metric-name drift guard, tiny replay) =="
cargo test --manifest-path honeybench/Cargo.toml

echo "== tier1: honeybench smoke (client == server counts, store rows, live == store) =="
python3 honeybench/run.py --smoke

echo "== tier1: OK =="
