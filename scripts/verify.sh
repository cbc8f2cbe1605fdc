#!/usr/bin/env bash
# Tier-1 verification, hermetic by construction: --offline proves the
# workspace needs nothing from crates.io (all deps are in-tree path
# crates; see DESIGN.md "Dependency policy").
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace

# Every intra-doc link resolves: a link to a deleted, renamed or private
# item fails here instead of going stale unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

# Lint gate: every workspace target is clippy-clean. Where a flagged form
# is deliberate, a scoped #[allow] at the site says why.
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Format gate, one crate at a time as each is brought under rustfmt:
# pqe-automata, pqe-graph, pqe-engine, pqe-core, pqe-arith, pqe-db,
# pqe-delta, pqe-par, pqe-rand and pqe-query are formatted, the rest of
# the workspace is not yet.
cargo fmt -p pqe-automata -- --check
cargo fmt -p pqe-graph -- --check
cargo fmt -p pqe-engine -- --check
cargo fmt -p pqe-core -- --check
cargo fmt -p pqe-arith -- --check
cargo fmt -p pqe-db -- --check
cargo fmt -p pqe-delta -- --check
cargo fmt -p pqe-par -- --check
cargo fmt -p pqe-rand -- --check
cargo fmt -p pqe-query -- --check

# The parallel-FPRAS contract: estimates are bit-identical for a fixed
# seed at any thread count. Run the determinism suite at both ends of the
# env knob to prove the override path as well as the invariance — and once
# more with event logging fully on, to prove observability never perturbs
# an estimate (the pqe-obs contract).
PQE_THREADS=1 cargo test -q --offline --test determinism
PQE_THREADS=4 cargo test -q --offline --test determinism
PQE_LOG=debug cargo test -q --offline --test determinism

# The inner-loop contract: the fixed-width/arena fast path is
# bit-identical to the historical BigUint-only arithmetic. Run the
# differential equivalence suite both ways, then the golden-digit suite
# with the escape hatch forced — if the fast path ever drifts, the
# pinned digits in tests/determinism.rs differ and this fails.
cargo test -q --offline --test equivalence
PQE_SLOW_PATH=1 cargo test -q --offline --test determinism
# The run-witness shortcuts (runs_at, accepted_at, runs_of_string, NFA
# membership) must return what the full DPs return with BigUint counts
# too: rerun their differential tests with the escape hatch forced.
PQE_SLOW_PATH=1 cargo test -q --offline -p pqe-automata witness_shortcuts
# The pinned sampling counts (samples, tries, membership checks, union
# estimates of the golden estimate) must hold with BigUint counts too.
PQE_SLOW_PATH=1 cargo test -q --offline --test fpras_counts

# Oracle smoke: the perf ledger checks every answer against an oracle
# computed before timing starts. The counting workloads (the NFTA counter
# on path queries, the NFA counter on graph RPQs) must land within
# (1 ± ε) of exact values; safe_lifted must match exact lifted inference;
# serve_read must print the digits of an in-process RoutedPlan; and
# serve_update must match a fresh server started on `pqe apply-delta`
# output. A smoke run of each (a second or two apiece) must report
# "correct":true on its result line.
echo "perf_ledger oracle smoke test:"
for workload in path_fpras safe_lifted graph_rpq serve_read serve_update; do
    ledger_line=$(cargo run -q --release --offline --manifest-path perf_ledger/Cargo.toml -- \
        --workload "$workload" --smoke --trace 0 2>/dev/null | tail -n 1)
    echo "$ledger_line" | grep -q '"correct":true' || {
        echo "  FAIL: perf_ledger $workload smoke run: $ledger_line" >&2; exit 1; }
done
echo "  ok: all five ledger workloads agree with their oracles"

# Bench smoke mode: the fpras thread-scaling bench must run end to end
# and emit its JSON artifact (the file re-committed as BENCH_fpras.json).
echo "bench smoke test:"
BENCH_DIR=$(mktemp -d)
PQE_BENCH_SAMPLES=1 PQE_BENCH_MIN_SAMPLE_MS=1 PQE_BENCH_JSON_DIR="$BENCH_DIR" \
    cargo bench -q --offline -p pqe-bench --bench thread_scaling > /dev/null
test -s "$BENCH_DIR/BENCH_fpras.json" || {
    echo "  FAIL: bench smoke run emitted no BENCH_fpras.json" >&2; exit 1; }
grep -q '"suite":"fpras"' "$BENCH_DIR/BENCH_fpras.json"
grep -q 'e7_fpras_threads/1' "$BENCH_DIR/BENCH_fpras.json"
rm -rf "$BENCH_DIR"
echo "  ok: thread_scaling smoke run emitted BENCH_fpras.json"

# Serve smoke test, fully offline: a release server on an ephemeral port,
# one NDJSON session (classify + estimate + stats + shutdown) over bash's
# /dev/tcp, and a clean exit.
# Profile smoke test: the span tree renders with non-zero totals and the
# compile/execute split, and the estimate line itself is unaffected.
echo "profile smoke test:"
PROFILE_DIR=$(mktemp -d)
# Five facts (two R3 rows) so the automaton has genuinely ambiguous
# unions: the sample counters stay zero on smaller instances.
printf '1/2 R1(a,b)\n1/3 R2(b,c)\n2/3 R2(b,d)\n1/5 R3(c,e)\n3/4 R3(d,e)\n' > "$PROFILE_DIR/smoke.pdb"
profile_out=$(./target/release/pqe estimate --db "$PROFILE_DIR/smoke.pdb" \
    --query 'R1(x,y), R2(y,z), R3(z,w)' --method fpras --seed 7 --profile)
# The graph enumeration route reports its own phase under the root.
printf '1/2 a -r-> b\n1/2 b -r-> c\n1/3 a -s-> c\n' > "$PROFILE_DIR/three.graph"
graph_profile=$(./target/release/pqe graph-estimate --graph "$PROFILE_DIR/three.graph" \
    --rpq 'a -> r* -> c' --profile)
echo "$graph_profile" | grep -q 'Pr(a -> r\* -> c) = 1/4' || {
    echo "  FAIL: graph-estimate did not print = 1/4: $graph_profile" >&2; exit 1; }
echo "$graph_profile" | grep -q '^  graph\.enum ' || {
    echo "  FAIL: graph-estimate --profile has no graph.enum row" >&2; exit 1; }
# A depth-bomb RPQ (20 000 unclosed parentheses) is a structured exit-2
# error naming the RPQ, not a stack overflow.
bomb="a -> $(printf '%20000s' '' | tr ' ' '(')r -> c"
bomb_status=0
./target/release/pqe graph-estimate --graph "$PROFILE_DIR/three.graph" \
    --rpq "$bomb" 2> "$PROFILE_DIR/err" > /dev/null || bomb_status=$?
[ "$bomb_status" -eq 2 ] && grep -q 'bad RPQ' "$PROFILE_DIR/err" || {
    echo "  FAIL: depth-bomb RPQ exited $bomb_status: $(head -c 200 "$PROFILE_DIR/err")" >&2
    exit 1; }
rm -rf "$PROFILE_DIR"
echo "$profile_out" | grep -q 'Pr(Q) ≈'
echo "$profile_out" | grep -q -- '--- profile: phase totals'
echo "$profile_out" | grep -q '^estimate .* 100\.0%'
echo "$profile_out" | grep -q '  compile '
echo "$profile_out" | grep -q '  execute '
echo "$profile_out" | grep -q 'fpras.samples'
# Non-zero root total: the rendered line must not read "0ns".
echo "$profile_out" | grep '^estimate ' | grep -qv ' 0ns ' || {
    echo "  FAIL: profile root total is zero" >&2; exit 1; }
echo "  ok: --profile renders the span tree with non-zero totals, graph.enum row, RPQ depth bound"

# Router + conditional smoke: the route line is printed, ground evidence
# conditions exactly, impossible evidence is a structured exit-2 error,
# and a typo'd method gets the hint instead of silent auto-routing.
echo "router/evidence smoke test:"
COND_DIR=$(mktemp -d)
printf '1/2 R(a,b)\n1/3 S(b,c)\n1/5 S(b,d)\n' > "$COND_DIR/cond.pdb"
cond_out=$(./target/release/pqe estimate --db "$COND_DIR/cond.pdb" \
    --query 'R(x,y), S(y,z)' 2>/dev/null)
echo "$cond_out" | grep -q 'route    : lifted \[auto: safe'
cond_out=$(./target/release/pqe estimate --db "$COND_DIR/cond.pdb" \
    --query 'R(x,y), S(y,z)' --evidence "S('b','c')" 2>/dev/null)
echo "$cond_out" | grep -q 'Pr(Q|E) = 1/2'
echo "$cond_out" | grep -q 'route(E) : exact product (ground evidence)'
if ./target/release/pqe estimate --db "$COND_DIR/cond.pdb" \
    --query 'R(x,y), S(y,z)' --evidence "S('zz','zz')" 2> "$COND_DIR/err"; then
    echo "  FAIL: impossible evidence did not fail" >&2; exit 1
fi
grep -q 'P(E) = 0' "$COND_DIR/err"
if ./target/release/pqe estimate --db "$COND_DIR/cond.pdb" \
    --query 'R(x,y), S(y,z)' --method fprs 2> "$COND_DIR/err"; then
    echo "  FAIL: unknown method was accepted" >&2; exit 1
fi
grep -q 'did you mean "fpras"' "$COND_DIR/err"
# An atom whose arity disagrees with the schema is a structured exit-2
# error naming the atom and both arities, not a panic on the lifted route.
arity_status=0
./target/release/pqe estimate --db "$COND_DIR/cond.pdb" \
    --query 'R(x,y,z), S(z,w)' 2> "$COND_DIR/err" > /dev/null || arity_status=$?
[ "$arity_status" -eq 2 ] \
    && grep -q 'atom R(x,y,z) has arity 3 but relation R has arity 2' "$COND_DIR/err" || {
    echo "  FAIL: arity-mismatched query exited $arity_status: $(head -c 200 "$COND_DIR/err")" >&2
    exit 1; }
rm -rf "$COND_DIR"
echo "  ok: route line, ground P(Q|E), zero-evidence error, method hint, arity error"

# Starts `pqe serve` on an ephemeral port with the given options, logging
# to $1, and waits for its announce line. Sets SERVE_PID and port.
start_server() {
    local log=$1 addr=""
    shift
    ./target/release/pqe serve --addr 127.0.0.1:0 "$@" > "$log" &
    SERVE_PID=$!
    for _ in $(seq 1 200); do
        addr=$(sed -n 's/^pqe-serve listening on //p' "$log")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "  FAIL: server never announced its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    port=${addr##*:}
}

echo "serve smoke test:"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf '1/2 R1(a,b)\n1/3 R2(b,c)\n2/3 R2(b,d)\n1/5 R3(c,e)\n' > "$SMOKE_DIR/smoke.pdb"
start_server "$SMOKE_DIR/serve.log" --db "$SMOKE_DIR/smoke.pdb"
exec 3<>"/dev/tcp/127.0.0.1/$port"
send() { printf '%s\n' "$1" >&3; IFS= read -r resp <&3; }
send '{"op":"classify","query":"R1(x,y), R2(y,z), R3(z,w)"}'
echo "$resp" | grep -q '"verdict":"fpras-only"'
send '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q '"ok":true'
echo "$resp" | grep -q '"probability":"0\.'
echo "$resp" | grep -q '"route":"fpras"'
# Evidence round-trip: ground evidence on the served instance reports the
# exact P(E) and both routes.
send "{\"op\":\"estimate\",\"query\":\"R1(x,y), R2(y,z), R3(z,w)\",\"evidence\":\"R1('a','b')\",\"epsilon\":0.3,\"seed\":7}"
echo "$resp" | grep -q '"ok":true'
echo "$resp" | grep -q '"p_evidence":"0\.500000"'
echo "$resp" | grep -q '"evidence_route":"exact-product"'
# Unknown method: structured bad_request with the hint, not silent auto.
send '{"op":"estimate","query":"R1(x,y)","method":"fprs"}'
echo "$resp" | grep -q '"error":"bad_request"'
echo "$resp" | grep -q 'did you mean'
send '{"op":"stats"}'
echo "$resp" | grep -q '"estimates":2'
echo "$resp" | grep -q '"classifies":1'
# The server's own registry: both queued estimates are in the per-op
# latency histogram (the bad-method request never reached the queue).
send '{"op":"metrics"}'
echo "$resp" | grep -q '"serve.request_us.estimate":{"count":2' || {
    echo "  FAIL: metrics miscounted estimates: $resp" >&2; exit 1; }
# An arity-mismatched atom is an eval_error naming the atom, and the next
# estimate on the same connection succeeds.
send '{"op":"estimate","query":"R1(x,y,z), R2(z,w)"}'
echo "$resp" | grep -q '"error":"eval_error"' \
    && echo "$resp" | grep -q 'atom R1(x,y,z) has arity 3 but relation R1 has arity 2' || {
    echo "  FAIL: arity-mismatched estimate: $resp" >&2; exit 1; }
send '{"op":"estimate","query":"R1(x,y), R2(y,z)"}'
echo "$resp" | grep -q '"ok":true' || {
    echo "  FAIL: estimate after the arity error: $resp" >&2; exit 1; }
send '{"op":"shutdown"}'
echo "$resp" | grep -q '"ok":true'
exec 3>&- 3<&-
wait "$SERVE_PID"
echo "  ok: classify/estimate/stats/metrics/arity error/shutdown round-tripped, clean exit"

# Concurrency smoke: the multiplexed server handles 4 simultaneous
# connections (distinct seeds — no single-flight sharing), still offline
# over bash's /dev/tcp.
echo "serve concurrency smoke test:"
start_server "$SMOKE_DIR/serve2.log" --db "$SMOKE_DIR/smoke.pdb" --workers 4
for fd in 4 5 6 7; do
    eval "exec $fd<>'/dev/tcp/127.0.0.1/$port'"
    printf '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.3,"seed":%d}\n' "$fd" >&"$fd"
done
for fd in 4 5 6 7; do
    IFS= read -r resp <&"$fd"
    echo "$resp" | grep -q '"ok":true' || {
        echo "  FAIL: concurrent request on fd $fd failed: $resp" >&2; exit 1; }
    eval "exec $fd>&- $fd<&-"
done
exec 3<>"/dev/tcp/127.0.0.1/$port"
send '{"op":"stats"}'
echo "$resp" | grep -q '"estimates":4'
send '{"op":"shutdown"}'
exec 3>&- 3<&-
wait "$SERVE_PID"
echo "  ok: 4 concurrent connections served, clean exit"

# Backpressure smoke: one worker, queue depth 1 — a third concurrent
# request must be rejected with a structured overloaded error.
echo "serve overload smoke test:"
start_server "$SMOKE_DIR/serve3.log" --db "$SMOKE_DIR/smoke.pdb" --workers 1 --queue-depth 1
exec 4<>"/dev/tcp/127.0.0.1/$port"
exec 5<>"/dev/tcp/127.0.0.1/$port"
exec 6<>"/dev/tcp/127.0.0.1/$port"
# Occupy the only worker, then the only queue slot (distinct seeds).
printf '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","seed":1,"delay_ms":2000}\n' >&4
sleep 0.5
printf '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","seed":2,"delay_ms":200}\n' >&5
sleep 0.3
printf '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","seed":3}\n' >&6
IFS= read -r resp <&6
echo "$resp" | grep -q '"error":"overloaded"' || {
    echo "  FAIL: saturated queue did not reject: $resp" >&2; exit 1; }
IFS= read -r resp <&4
echo "$resp" | grep -q '"ok":true'
IFS= read -r resp <&5
echo "$resp" | grep -q '"ok":true'
# One rejection, counted once: stats' "overloaded" and metrics' queue
# "rejected" read the same counter.
printf '{"op":"stats"}\n' >&6
IFS= read -r resp <&6
echo "$resp" | grep -q '"overloaded":1' || {
    echo "  FAIL: stats did not count the rejection: $resp" >&2; exit 1; }
printf '{"op":"metrics"}\n' >&6
IFS= read -r resp <&6
echo "$resp" | grep -q '"rejected":1' || {
    echo "  FAIL: metrics did not count the rejection: $resp" >&2; exit 1; }
printf '{"op":"shutdown"}\n' >&6
IFS= read -r resp <&6
exec 4>&- 4<&- 5>&- 5<&- 6>&- 6<&-
wait "$SERVE_PID"
echo "  ok: full queue rejected with structured overloaded error, counted once"

# Serve cache bench smoke: the binary itself asserts 0 errors and the
# E11 hot/cold ratio >= 5x over 4 connections x 25 requests.
echo "serve_cache bench smoke test:"
cache_out=$(cargo bench -q --offline -p pqe-bench --bench serve_cache)
echo "$cache_out" | grep -q 'errors 0' || {
    echo "  FAIL: serve_cache reported errors: $cache_out" >&2; exit 1; }
echo "$cache_out" | grep -q 'hit_speedup' || {
    echo "  FAIL: serve_cache printed no hit_speedup: $cache_out" >&2; exit 1; }
echo "  ok: serve_cache held 0 errors and the >= 5x hot/cold bar"

# Graph smoke: both routes on the diamond graph with pinned digits (the
# enum answer is exact; the FPRAS digits are seed-pinned and must be
# bit-identical across builds and thread counts), plus the DOT dump.
echo "graph smoke test:"
GRAPH_DIR=$(mktemp -d)
printf '1/2 a -r-> b\n1/2 a -r-> c\n1/2 b -r-> d\n1/2 c -r-> d\n' > "$GRAPH_DIR/diamond.graph"
graph_out=$(./target/release/pqe graph-estimate --graph "$GRAPH_DIR/diamond.graph" \
    --rpq 'a -> r r -> d' 2>/dev/null)
echo "$graph_out" | grep -q 'Pr(a -> r.r -> d) = 7/16 ≈ 0.437500'
echo "$graph_out" | grep -q 'route    : enum \[auto: 4 edges <= 16'
graph_out=$(./target/release/pqe graph-estimate --graph "$GRAPH_DIR/diamond.graph" \
    --rpq 'a -> r r -> d' --method fpras --epsilon 0.2 --seed 7 \
    --dump-automaton "$GRAPH_DIR/product.dot" 2>/dev/null)
echo "$graph_out" | grep -q 'Pr(a -> r.r -> d) ≈ 0.441406'
echo "$graph_out" | grep -q 'route    : fpras \[forced by --method fpras\]'
cli_digits=$(echo "$graph_out" | sed -n 's/.*≈ \(0\.[0-9]*\).*/\1/p')
grep -q '^digraph nfa' "$GRAPH_DIR/product.dot"
grep -q 'doublecircle' "$GRAPH_DIR/product.dot"
# A cyclic graph past nothing: forced fpras must refuse with structure.
printf '1/2 a -r-> b\n1/2 b -r-> a\n' > "$GRAPH_DIR/cycle.graph"
if ./target/release/pqe graph-estimate --graph "$GRAPH_DIR/cycle.graph" \
    --rpq 'a -> r* -> b' --method fpras 2> "$GRAPH_DIR/err"; then
    echo "  FAIL: cyclic graph accepted on the fpras route" >&2; exit 1
fi
grep -qi 'cyclic' "$GRAPH_DIR/err"
echo "  ok: enum 7/16, fpras pinned digits, DOT dump, cyclic refusal"

# Serve graph round-trip: the served estimate must be byte-identical to
# the CLI digits for the same (rpq, ε, seed).
echo "serve graph smoke test:"
start_server "$SMOKE_DIR/serve4.log" --db "$SMOKE_DIR/smoke.pdb" --graph "$GRAPH_DIR/diamond.graph"
exec 3<>"/dev/tcp/127.0.0.1/$port"
send '{"op":"graph_estimate","rpq":"a -> r r -> d"}'
echo "$resp" | grep -q '"ok":true'
echo "$resp" | grep -q '"route":"enum"'
echo "$resp" | grep -q '"exact":"7/16"'
send '{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.2,"seed":7}'
echo "$resp" | grep -q '"route":"fpras"'
echo "$resp" | grep -q "\"probability\":\"$cli_digits\"" || {
    echo "  FAIL: served digits differ from CLI ($cli_digits): $resp" >&2; exit 1; }
send '{"op":"stats"}'
echo "$resp" | grep -q '"graph_estimates":2'
echo "$resp" | grep -q '"router.route.graph"'
send '{"op":"shutdown"}'
exec 3>&- 3<&-
wait "$SERVE_PID"
rm -rf "$GRAPH_DIR"
echo "  ok: serve graph_estimate byte-identical to CLI, stats counters"

# Graph bench smoke: truncated scale sweep, JSON artifact present (the
# full sweep to 1012 edges is the committed BENCH_graph.json).
echo "graph bench smoke test:"
BENCH_DIR=$(mktemp -d)
PQE_BENCH_SAMPLES=1 PQE_BENCH_MIN_SAMPLE_MS=1 PQE_BENCH_GRAPH_MAX_EDGES=30 \
    PQE_BENCH_JSON_DIR="$BENCH_DIR" \
    cargo bench -q --offline -p pqe-bench --bench graph_scaling > /dev/null
test -s "$BENCH_DIR/BENCH_graph.json" || {
    echo "  FAIL: bench smoke run emitted no BENCH_graph.json" >&2; exit 1; }
grep -q '"suite":"graph"' "$BENCH_DIR/BENCH_graph.json"
grep -q 'e15_enum/m4' "$BENCH_DIR/BENCH_graph.json"
grep -q 'e15_fpras_scale/m24' "$BENCH_DIR/BENCH_graph.json"
rm -rf "$BENCH_DIR"
echo "  ok: graph_scaling smoke run emitted BENCH_graph.json"

# Live-update smoke: apply-delta on the CLI, the `update` wire op, scoped
# invalidation (a plan over untouched relations keeps its cache entry),
# and — the core contract — the incrementally reweighted digits are
# byte-identical to a cold server started on the post-delta database.
echo "delta smoke test:"
DELTA_DIR=$(mktemp -d)
printf '1/2 R1(a,b)\n1/3 R2(b,c)\n2/3 R2(b,d)\n1/5 R3(c,e)\n' > "$DELTA_DIR/live.pdb"
printf '~ 2/5 R3(c,e)\n' > "$DELTA_DIR/batch.delta"
./target/release/pqe apply-delta --db "$DELTA_DIR/live.pdb" \
    --delta "$DELTA_DIR/batch.delta" --output "$DELTA_DIR/after.pdb" \
    > "$DELTA_DIR/apply.log"
grep -q 'applied 1 op(s): 0 inserted, 0 deleted, 1 reprobed' "$DELTA_DIR/apply.log"
grep -q 'probability-only' "$DELTA_DIR/apply.log"
grep -q '^2/5 R3(c,e)$' "$DELTA_DIR/after.pdb"

start_server "$DELTA_DIR/serve.log" --db "$DELTA_DIR/live.pdb" --workers 1
exec 3<>"/dev/tcp/127.0.0.1/$port"
# Warm two plans: A touches R3 (FPRAS route), B does not (lifted route).
send '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q '"cache":"miss"'
send '{"op":"estimate","query":"R1(x,y), R2(y,z)","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q '"cache":"miss"'
# Apply a probability-only delta to R3 over the wire.
send '{"op":"update","delta":"~ 2/5 R3(c,e)"}'
echo "$resp" | grep -q '"ok":true'
echo "$resp" | grep -q '"probability_only":true'
echo "$resp" | grep -q '"generation":1'
# B's relations are untouched: the plan AND its memoized answer survive.
send '{"op":"estimate","query":"R1(x,y), R2(y,z)","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q '"cache":"hit"'
# A's plan is stale: reweighted in place, memo dropped, fresh digits.
send '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q '"cache":"invalidated"'
live_digits=$(echo "$resp" | sed -n 's/.*"probability":"\([0-9.]*\)".*/\1/p')
[ -n "$live_digits" ] || { echo "  FAIL: no probability in $resp" >&2; exit 1; }
send '{"op":"stats"}'
echo "$resp" | grep -q '"generation":1'
echo "$resp" | grep -q '"delta.applied":1'
echo "$resp" | grep -q '"delta.invalidated_plans":1'
echo "$resp" | grep -q '"R3":"s0p1"'
send '{"op":"shutdown"}'
exec 3>&- 3<&-
wait "$SERVE_PID"

# Cold replica: a fresh server on the apply-delta output must print the
# same digits for the same (query, ε, seed) — reweighting is exact.
start_server "$DELTA_DIR/serve2.log" --db "$DELTA_DIR/after.pdb" --workers 1
exec 3<>"/dev/tcp/127.0.0.1/$port"
send '{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.3,"seed":7}'
echo "$resp" | grep -q "\"probability\":\"$live_digits\"" || {
    echo "  FAIL: cold digits differ from live ($live_digits): $resp" >&2; exit 1; }
# Atomicity: a batch whose second op is invalid must change nothing.
send '{"op":"update","delta":"~ 1/4 R1(a,b)\n- R1(zz,zz)"}'
echo "$resp" | grep -q '"error":"eval_error"'
send '{"op":"stats"}'
echo "$resp" | grep -q '"generation":0'
send '{"op":"shutdown"}'
exec 3>&- 3<&-
wait "$SERVE_PID"
rm -rf "$DELTA_DIR"
echo "  ok: apply-delta, scoped invalidation, live == cold digits, atomic reject"

# Delta bench smoke: the incremental-vs-cold replay must clear its 5x bar
# and agree bit for bit (both asserted inside the bench binary), and the
# JSON artifact (committed as BENCH_delta.json) must land.
echo "delta bench smoke test:"
BENCH_DIR=$(mktemp -d)
PQE_BENCH_JSON_DIR="$BENCH_DIR" \
    cargo bench -q --offline -p pqe-bench --bench delta_replay > /dev/null
test -s "$BENCH_DIR/BENCH_delta.json" || {
    echo "  FAIL: bench smoke run emitted no BENCH_delta.json" >&2; exit 1; }
grep -q '"suite":"delta"' "$BENCH_DIR/BENCH_delta.json"
grep -q '"name":"speedup"' "$BENCH_DIR/BENCH_delta.json"
grep -q '"name":"structural_recompiles"' "$BENCH_DIR/BENCH_delta.json"
rm -rf "$BENCH_DIR"
echo "  ok: delta_replay smoke run emitted BENCH_delta.json"
