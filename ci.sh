#!/usr/bin/env bash
# Tier-1 gate. Fully offline: no registry access, no network.
#
#   ./ci.sh            format + lint + build + test + golden check
#
# The golden check regenerates the abstract's headline numbers through
# the parallel runner and compares them bit-for-bit against
# results/golden/ (see README "Parallel runs, telemetry and golden
# results"). Re-record intentional changes with
#   cargo run --release -p tcor-sim -- all --update-golden
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test"
cargo test --workspace -q

echo "== golden check (headline)"
cargo run --release -q -p tcor-sim -- headline --check --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null

echo "== golden check (miss curves, single-pass engine)"
# The single-pass miss-curve engine (OPT stack profiling + banked
# policy simulation, see DESIGN.md) must reproduce every miss-curve
# figure bit-for-bit against the goldens recorded under the
# per-capacity replay engine. Drift exits 4.
cargo run --release -q -p tcor-sim -- fig1 fig11 fig12 fig13 fig13x --check \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null

echo "== golden check (study frames sharing paper cells, parallel)"
# The ablation, sweep, traversal and scaling studies memoize every
# full-system frame under its configuration, so 22 of their frames are
# the paper cells themselves. fig14 schedules the 60 cell jobs in the
# same run: at the default worker count, study frames and cell jobs
# race on the shared keys, and every table must still match the
# goldens bit-for-bit. Drift exits 4.
cargo run --release -q -p tcor-sim -- ablation sweep traversal scaling fig14 --check \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null

echo "== miss-curve engine regression gate"
# Benchmarks the single-pass engine against the per-capacity replay on
# every miss-curve experiment and fails if any speedup drops below
# 1.00x or outputs drift (this is the gate that would have caught the
# fig13x 0.94x banked-engine regression). Writes the per-experiment
# table to a scratch path; the committed BENCH_misscurves.json is
# refreshed intentionally via `bench-misscurves` without --gate.
cargo run --release -q -p tcor-sim -- bench-misscurves \
  /tmp/tcor-ci-bench-misscurves.json --gate >/dev/null

echo "== metric-conservation audit (clean, then injected counter fault)"
# The audit re-derives every headline counter from two independent
# counting sites over all 60 suite cells (see crates/obs). A clean tree
# must balance exactly; a deliberately tampered counter copy must be
# caught and mapped to the corruption exit code (5).
cargo run --release -q -p tcor-sim -- headline --audit \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null
set +e
cargo run --release -q -p tcor-sim -- --audit --inject-audit-fault \
  >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 5 ]; then
  echo "ci: FAIL: injected audit fault exited $code, expected 5 (corruption)" >&2
  exit 1
fi

echo "== fault-injection smoke (inject, then resume + golden check)"
# Seed 42 deterministically panics one scene job and one cell job
# (scene:RoK, cell:CRa/tcor64): the run must contain the failures
# (exit 3, the cell-failure code) while independent experiments
# complete, the telemetry must attribute a failure to the injector (so
# an unrelated panic cannot pass this stage), and the clean resumed run
# must re-execute only the missing experiments and still match the
# goldens bit-for-bit.
SMOKE_MANIFEST=/tmp/tcor-ci-manifest.txt
rm -f "$SMOKE_MANIFEST"
set +e
cargo run --release -q -p tcor-sim -- all --inject-faults 42 \
  --manifest "$SMOKE_MANIFEST" --telemetry /tmp/tcor-ci-telemetry.jsonl \
  >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 3 ]; then
  echo "ci: FAIL: injected-fault run exited $code, expected 3 (cell failure)" >&2
  exit 1
fi
if ! grep -q '"event":"job_failed".*"panic":"[^"]*injected fault' /tmp/tcor-ci-telemetry.jsonl; then
  echo "ci: FAIL: injected-fault run exited 3 without an injected job_failed" >&2
  exit 1
fi
cargo run --release -q -p tcor-sim -- all --resume --check \
  --manifest "$SMOKE_MANIFEST" --telemetry /tmp/tcor-ci-telemetry.jsonl \
  >/dev/null
rm -f "$SMOKE_MANIFEST"

echo "== serve smoke (daemon up, golden table over loopback, graceful exit)"
# The serving daemon must come up on an ephemeral port, answer a golden
# experiment over loopback byte-identically to results/golden/, and
# drain to exit 0 on POST /admin/shutdown.
TCOR_SIM=target/release/tcor-sim
PORT_FILE=/tmp/tcor-ci-serve-port
SERVE_OUT=/tmp/tcor-ci-serve-fig10.csv
rm -f "$PORT_FILE"
"$TCOR_SIM" serve --port 0 --workers 2 --queue-depth 16 --port-file "$PORT_FILE" \
  --telemetry /tmp/tcor-ci-serve-telemetry.jsonl >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "ci: FAIL: serve daemon never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
ADDR=$(cat "$PORT_FILE")
"$TCOR_SIM" serve-req "$ADDR" GET /health >/dev/null
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 > "$SERVE_OUT"
if ! cmp -s "$SERVE_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: served fig10 differs from results/golden/fig10.csv" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
"$TCOR_SIM" serve-req "$ADDR" POST /admin/shutdown >/dev/null
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: FAIL: serve daemon exited $code after graceful shutdown, expected 0" >&2
  exit 1
fi
rm -f "$PORT_FILE" "$SERVE_OUT"

echo "== stream smoke (chunked upload byte-identical to offline misscurves + 413 cap)"
# The streaming profile plane must answer a chunked GTr upload with
# finish curves byte-identical to the offline /v1/misscurve plane for
# both policies (streamed ≡ whole-trace, proved with cmp), refuse an
# over-limit chunk body with 413 from the head alone, and count the
# rejection in serve/body_rejected.
STREAM_OUT=/tmp/tcor-ci-stream-gtr.json
OFFLINE_OUT=/tmp/tcor-ci-offline-gtr.json
rm -f "$PORT_FILE"
"$TCOR_SIM" serve --port 0 --workers 2 --queue-depth 16 --port-file "$PORT_FILE" \
  >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "ci: FAIL: stream-smoke daemon never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
ADDR=$(cat "$PORT_FILE")
for policy in opt lru; do
  if ! "$TCOR_SIM" stream "$ADDR" --workload GTr --policy "$policy" \
      --chunk-accesses 1000 > "$STREAM_OUT" 2>/dev/null; then
    echo "ci: FAIL: chunked stream upload (policy $policy) failed" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  "$TCOR_SIM" serve-req "$ADDR" GET "/v1/misscurve/GTr/$policy" > "$OFFLINE_OUT"
  if ! cmp -s "$STREAM_OUT" "$OFFLINE_OUT"; then
    echo "ci: FAIL: streamed GTr/$policy curve differs from the offline misscurve bytes" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
done
if ! "$TCOR_SIM" stream "$ADDR" --probe-oversize 2>/dev/null; then
  echo "ci: FAIL: oversize chunk body was not refused with 413" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
if ! "$TCOR_SIM" serve-req "$ADDR" GET /metrics | grep -q 'serve/body_rejected = 1'; then
  echo "ci: FAIL: the 413 rejection did not land in serve/body_rejected" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
"$TCOR_SIM" serve-req "$ADDR" POST /admin/shutdown >/dev/null
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: FAIL: stream-smoke daemon exited $code after graceful shutdown, expected 0" >&2
  exit 1
fi
rm -f "$PORT_FILE" "$STREAM_OUT" "$OFFLINE_OUT"

echo "== restart-warm smoke (persistent cache survives a daemon restart)"
# Two daemon generations over one --cache-dir. Generation 1 computes a
# golden table into the persistent cache and dies; generation 2 must
# answer the same request from the DISK tier (X-Tcor-Cache: disk,
# asserted by serve-req --expect-cache) byte-identically to both
# generation 1's body and results/golden/ — a result computed before a
# crash is never recomputed, and never silently different, after it.
CACHE_DIR=/tmp/tcor-ci-pcache
RESTART_OUT=/tmp/tcor-ci-restart-fig10.csv
rm -rf "$CACHE_DIR"
rm -f "$PORT_FILE"
"$TCOR_SIM" serve --port 0 --workers 2 --queue-depth 16 --port-file "$PORT_FILE" \
  --cache-dir "$CACHE_DIR" \
  --telemetry /tmp/tcor-ci-serve-telemetry.jsonl >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "ci: FAIL: generation-1 daemon never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
ADDR=$(cat "$PORT_FILE")
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 --expect-cache miss > "$SERVE_OUT"
"$TCOR_SIM" serve-req "$ADDR" POST /admin/shutdown >/dev/null
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: FAIL: generation-1 daemon exited $code, expected 0" >&2
  exit 1
fi
rm -f "$PORT_FILE"
"$TCOR_SIM" serve --port 0 --workers 2 --queue-depth 16 --port-file "$PORT_FILE" \
  --cache-dir "$CACHE_DIR" \
  --telemetry /tmp/tcor-ci-serve-telemetry.jsonl >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "ci: FAIL: restarted daemon never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
ADDR=$(cat "$PORT_FILE")
if ! "$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 --expect-cache disk > "$RESTART_OUT"; then
  echo "ci: FAIL: restarted daemon did not answer fig10 from the disk tier" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
if ! cmp -s "$RESTART_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: disk-tier fig10 differs from results/golden/fig10.csv" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
if ! cmp -s "$RESTART_OUT" "$SERVE_OUT"; then
  echo "ci: FAIL: disk-tier fig10 differs from generation 1's body" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
"$TCOR_SIM" serve-req "$ADDR" POST /admin/shutdown >/dev/null
set +e
wait "$SERVE_PID"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: FAIL: restarted daemon exited $code after graceful shutdown, expected 0" >&2
  exit 1
fi
rm -rf "$CACHE_DIR"
rm -f "$PORT_FILE" "$SERVE_OUT" "$RESTART_OUT"

echo "== chaos (disk-fault schedule: breaker must open, probe, and close)"
# A seeded disk-fault schedule (every read and write errors until its
# budget runs out) against a cache-cap-1 daemon: the circuit breaker
# must trip open, half-open probe while the faults last, and close once
# the budget is exhausted — while every answered body stays
# byte-identical and the daemon drains to exit 0.
"$TCOR_SIM" chaos --seed 7 --rounds 3 --cache-cap 1 \
  --fault-spec 'pcache/read=100#6,pcache/write=100#4' \
  --breaker-threshold 3 --breaker-cooldown-ms 250 \
  --expect-breaker --retries 4 --backoff-ms 40 2>/dev/null

echo "== chaos (kill/restart + serve faults: retried to byte-identical bodies)"
# SIGKILL the daemon every 3 answered requests while the serve plane
# drops connections mid-body, corrupts responses (caught by the
# X-Tcor-Body-Hash check), and stalls reads. The retrying client must
# still get byte-identical bodies for every request, and the final
# generation must drain to exit 0. Writes its run record to a scratch
# path; the committed BENCH_chaos.json is refreshed intentionally with
# `chaos ... --bench-out BENCH_chaos.json`.
"$TCOR_SIM" chaos --seed 1337 --rounds 6 --kill-every 3 \
  --fault-spec 'serve/drop_conn=45@30,serve/corrupt_response=35,serve/stall_read=25@60' \
  --retries 6 --backoff-ms 40 --bench-out /tmp/tcor-ci-bench-chaos.json 2>/dev/null

echo "ci: all green"
