#!/bin/sh
# ci.sh — the repository's check pipeline (also reachable as `make check`).
#
# Usage: ./ci.sh [bench]
#
#   (no argument)  vet + build + race-enabled tests (among them the
#                  byte-slice MatrixMarket reader's bit-identity check
#                  against the streaming reader on exported matrices) +
#                  the corpus generation and permutation tests at 1, 2
#                  and 4 CPUs
#                  (the sequential and the pipelined generator must
#                  build the same golden corpus) + the serving parity,
#                  batch, cascade and feature-memo tests at 1, 2 and 4
#                  CPUs (batch items run inline and fanned out), with
#                  the proxied parity test (the same bodies through the
#                  proxy to two replicas, sized and chunked, across a
#                  forced hedge and a forced failover) + the
#                  registry's swap and monitor tests at 1, 2 and 4 CPUs
#                  (hot swaps racing requests, checked against the
#                  reference pipeline; shadow installs, promotes,
#                  reloads, and the quality and drift windows they
#                  rebuild) + the tree-learner and CNN golden and
#                  worker-cap tests at 1, 2 and 4 CPUs (the forest's
#                  shared presort, the boosting rounds' per-class trees
#                  and the CNN's per-sample minibatch passes run inline
#                  and fanned out; every fit must match the recorded
#                  digests) + the
#                  race-free allocation guards (pooled parse scratch,
#                  feature-memo hits, cascade predict, the one-allocation
#                  sized body read) + 20 s of
#                  FuzzReadMatrixMarket (the byte-slice MatrixMarket
#                  reader fuzzed against the streaming reader: same
#                  verdict, same matrix) + internal/obs's
#                  disabled-path overhead benchmark (five 1 s runs:
#                  0 allocs/op in every run, the fastest under
#                  2 ns/op) +
#                  four end-to-end serving smoke tests (single-model
#                  with telemetry:
#                  a repeated body answered from the feature memo,
#                  access-log trace IDs, the Prometheus /metrics
#                  exposition and `monitor -once`; the full registry:
#                  multi-arch routing, batch, authenticated reload,
#                  shadow evaluation and promote; the quality loop
#                  under a race-enabled server: serve -record, mixed
#                  traffic with /v1/feedback outcome reports, capture
#                  replay reproducing every recorded prediction, and a
#                  populated /v1/admin/quality window; and the
#                  cheap-first cascade: a `train -cascade` artifact
#                  served with stage metrics on /metrics, cascade
#                  stats in /v1/admin/quality, feature-memo hit/miss
#                  counters matching the request mix, and a capture
#                  replayed with zero mismatches) + a fleet smoke test
#                  (three replicas behind the consistent-hash proxy:
#                  one replica SIGKILLed under load with zero
#                  client-visible errors, admin fan-out aggregation,
#                  the fleet monitor view, a distributed-trace check —
#                  a request hedged off a frozen ring owner fetched by
#                  X-Request-ID as one stitched span tree holding both
#                  proxy attempts and the winning replica's stage
#                  spans — and a fleet-wide rollout that pushes a
#                  candidate to every survivor's shadow slot and
#                  promotes only after the whole fleet clears the
#                  agreement threshold)
#   bench          additionally regenerate every committed BENCH file
#                  on this host: BENCH_obs.json from an instrumented
#                  paper-scale `table -n 9` run, then the six suites of
#                  `spmvselect bench <suite>`, each of which checks its
#                  answers before timing and fails on a missed perf gate
#                  (gates with a CPU condition fall back to a floor that
#                  only rejects pathological slowdown on smaller hosts):
#                  tracing (the serve_tracing section of BENCH_obs.json:
#                  traced vs untraced predict p50, <= 5%), parallel
#                  (BENCH_parallel.json: sequential vs parallel tables,
#                  byte-identical, 3x with >= 8 CPUs), parse
#                  (BENCH_parse.json: streaming vs byte-slice MatrixMarket
#                  ingest, bit-identical CSRs, >= 3x and <= 10% of the
#                  allocations), serve (BENCH_serve.json: batched vs
#                  single requests, cascade on/off, feature memo on/off),
#                  replay (BENCH_replay.json: record/feedback/replay with
#                  zero mismatches) and fleet (BENCH_fleet.json: the
#                  proxy over one replica vs the fleet, byte-identical
#                  answers)
set -eu
cd "$(dirname "$0")"

echo '== go vet ./...'
go vet ./...

echo '== go build ./...'
go build ./...

echo '== go test -race ./...'
go test -race ./...

echo '== corpus generation at 1, 2 and 4 CPUs (sequential and pipelined paths)'
go test -race -count=1 -cpu 1,2,4 -run 'TestGenerate|TestPermute|TestCorpus' ./internal/dataset ./internal/sparse

echo '== serving paths at 1, 2 and 4 CPUs (direct and proxied; batch items inline and fanned out)'
go test -race -count=1 -cpu 1,2,4 -run 'TestServingPathsMatchReference|TestProxiedPathsMatchReference|TestBatch|TestCascade|TestFeatMemo' ./internal/serve

echo '== registry swaps and monitors at 1, 2 and 4 CPUs (swaps racing requests, one per-arch record)'
go test -race -count=1 -cpu 1,2,4 -run 'TestStress|TestInstallShadow|TestPromote|TestReload|TestQuality|TestDrift' ./internal/registry

echo '== tree learners and the CNN at 1, 2 and 4 CPUs (shared presort, per-class boosting and per-sample CNN passes inline and fanned out)'
go test -race -count=1 -cpu 1,2,4 -run 'TestTreeLearnersGolden|TestCNNGolden|AcrossWorkerCaps|TestForest' ./internal/classify

echo '== allocation guards (AllocsPerRun needs a race-free binary)'
go test -run Allocs -count=1 ./internal/sparse ./internal/serve ./internal/obs

# A 1 s minimisation budget: with the default 60 s, a new input can
# hold the fuzzer at 0 execs/s for most of the run.
echo '== MatrixMarket readers fuzzed against each other (20 s)'
go test -run '^$' -fuzz '^FuzzReadMatrixMarket$' -fuzztime 20s -fuzzminimizetime 1s ./internal/sparse

# Five 1 s runs of internal/obs's benchmark: every run must report
# 0 allocs/op, and the fastest run must stay under 2 ns/op.
echo '== obs disabled-path overhead (budget: < 2 ns/op and 0 allocs/op, see internal/obs)'
OBSBENCH=$(go test -run '^$' -bench '^BenchmarkObsOverhead$' -benchtime 1s -count 5 ./internal/obs)
echo "$OBSBENCH"
echo "$OBSBENCH" | awk '
	/^pkg: / { pkg = $2 }
	/^BenchmarkObsOverhead/ {
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op" && (!(pkg in best) || $i + 0 < best[pkg])) best[pkg] = $i + 0
			if ($(i+1) == "allocs/op" && $i + 0 > 0) { print "ci: " pkg ": " $i " allocs/op on the disabled path"; bad = 1 }
		}
	}
	END {
		n = 0
		for (p in best) {
			n++
			if (best[p] >= 2) { print "ci: " p ": fastest disabled-path run " best[p] " ns/op, budget < 2"; bad = 1 }
		}
		if (n != 1) { print "ci: the overhead benchmark ran in " n " packages, want 1"; bad = 1 }
		exit bad
	}' || exit 1

echo '== serve smoke test (train -save, serve, request, telemetry, SIGTERM)'
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
ADMIN_TOKEN=ci-admin-secret
go build -o "$SMOKE/spmvselect" ./cmd/spmvselect
"$SMOKE/spmvselect" train -save "$SMOKE/model.gob" -quick -clusters 16 >/dev/null
"$SMOKE/spmvselect" export -dir "$SMOKE/mtx" -count 2 -seed 4 >/dev/null
MTX=$(ls "$SMOKE"/mtx/*.mtx | head -n 1)
"$SMOKE/spmvselect" serve -model "$SMOKE/model.gob" -addr 127.0.0.1:0 -portfile "$SMOKE/port" \
	-admin-token "$ADMIN_TOKEN" -access-log "$SMOKE/access.log" &
SERVE_PID=$!
i=0
while [ ! -s "$SMOKE/port" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$SMOKE/port" ] || { echo 'ci: serve never wrote its portfile'; exit 1; }
ADDR=$(cat "$SMOKE/port")
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX" -request-id trace-ci-42)
echo "$OUT" | grep -q '"format"' || { echo "ci: bad matrix prediction response: $OUT"; exit 1; }
# The same body again: its memoized features answer it, unparsed.
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX")
echo "$OUT" | grep -q '"cached":true' || { echo "ci: repeated matrix request not answered from the feature memo: $OUT"; exit 1; }
ZEROS='0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0'
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -features "$ZEROS")
echo "$OUT" | grep -q '"format"' || { echo "ci: bad feature-vector prediction response: $OUT"; exit 1; }
# The access log must carry exactly the one line tagged with the trace
# ID the client sent, as structured JSON.
N=$(grep -c '"trace_id":"trace-ci-42"' "$SMOKE/access.log" || true)
[ "$N" = 1 ] || { echo "ci: access log has $N lines for trace-ci-42, want 1"; cat "$SMOKE/access.log"; exit 1; }
grep '"trace_id":"trace-ci-42"' "$SMOKE/access.log" | grep -q '"path":"/v1/predict/matrix"' \
	|| { echo 'ci: traced access-log line lacks the request path'; exit 1; }
# The Prometheus exposition must include the labeled request metrics
# fed by the traffic above.
METRICS=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /metrics)
echo "$METRICS" | grep -q '^spmvselect_serve_predictions_total{' \
	|| { echo 'ci: /metrics lacks the per-arch prediction counter'; exit 1; }
echo "$METRICS" | grep -q '^spmvselect_serve_http_seconds_bucket{' \
	|| { echo 'ci: /metrics lacks the request latency histogram'; exit 1; }
echo "$METRICS" | grep -q 'spmvselect_slo_availability{window="1m"}' \
	|| { echo 'ci: /metrics lacks the SLO availability gauge'; exit 1; }
# monitor -once re-scrapes everything (readiness, metrics, SLO, drift)
# and exits non-zero when any telemetry family is missing.
"$SMOKE/spmvselect" monitor -addr "$ADDR" -token "$ADMIN_TOKEN" -once >/dev/null \
	|| { echo 'ci: monitor -once failed against a live server'; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo 'ci: serve did not exit cleanly on SIGTERM'; exit 1; }

echo '== registry smoke test (multi-arch serve, batch, reload, shadow, promote)'
ADMIN_TOKEN=ci-admin-secret
"$SMOKE/spmvselect" train -save "$SMOKE/pascal.gob" -model knn -arch Pascal -quick >/dev/null
"$SMOKE/spmvselect" train -save "$SMOKE/cand.gob" -model knn -arch Turing -quick -seed 5 >/dev/null
"$SMOKE/spmvselect" serve -models "turing=$SMOKE/model.gob,pascal=$SMOKE/pascal.gob" \
	-shadow "turing=$SMOKE/cand.gob" -admin-token "$ADMIN_TOKEN" \
	-addr 127.0.0.1:0 -portfile "$SMOKE/port2" &
SERVE_PID=$!
i=0
while [ ! -s "$SMOKE/port2" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$SMOKE/port2" ] || { echo 'ci: registry serve never wrote its portfile'; exit 1; }
ADDR=$(cat "$SMOKE/port2")
i=0
until "$SMOKE/spmvselect" request -addr "$ADDR" -get /readyz >/dev/null 2>&1; do
	sleep 0.1; i=$((i+1))
	[ $i -lt 100 ] || { echo 'ci: registry serve never became ready'; exit 1; }
done
MTX2=$(ls "$SMOKE"/mtx/*.mtx | sed -n 2p)
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX" -arch pascal)
echo "$OUT" | grep -q '"arch":"pascal"' || { echo "ci: prediction not routed to pascal: $OUT"; exit 1; }
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -batch "$MTX,$MTX2")
echo "$OUT" | grep -q '"count":2' || { echo "ci: bad batch response: $OUT"; exit 1; }
echo "$OUT" | grep -q '"errors":0' || { echo "ci: batch items failed: $OUT"; exit 1; }
if "$SMOKE/spmvselect" request -addr "$ADDR" -post /v1/admin/reload >/dev/null 2>&1; then
	echo 'ci: unauthenticated admin reload was accepted'; exit 1
fi
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -post /v1/admin/reload -token "$ADMIN_TOKEN")
echo "$OUT" | grep -q '"changed":\[\]' || { echo "ci: reload of unchanged files swapped something: $OUT"; exit 1; }
"$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX" -arch turing >/dev/null
"$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX2" -arch turing >/dev/null
SHADOW=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /v1/admin/shadow -token "$ADMIN_TOKEN")
echo "$SHADOW" | grep -q '"scored":4' || { echo "ci: shadow report did not score the turing traffic: $SHADOW"; exit 1; }
CAND_HASH=$(echo "$SHADOW" | grep -o '"candidate_hash":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
HASH_BEFORE=$("$SMOKE/spmvselect" request -addr "$ADDR" -get '/v1/model?arch=turing' | grep -o '"hash":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
"$SMOKE/spmvselect" promote -addr "$ADDR" -arch turing -token "$ADMIN_TOKEN" >/dev/null
HASH_AFTER=$("$SMOKE/spmvselect" request -addr "$ADDR" -get '/v1/model?arch=turing' | grep -o '"hash":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
[ -n "$HASH_AFTER" ] || { echo 'ci: /v1/model reported no hash after promote'; exit 1; }
[ "$HASH_AFTER" != "$HASH_BEFORE" ] || { echo 'ci: promote did not change the served model'; exit 1; }
[ "$HASH_AFTER" = "$CAND_HASH" ] || { echo "ci: promoted hash $HASH_AFTER is not the candidate $CAND_HASH"; exit 1; }
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /v1/admin/shadow -token "$ADMIN_TOKEN")
echo "$OUT" | grep -q '"arches":\[\]' || { echo "ci: shadow pairing survived the promote: $OUT"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo 'ci: registry serve did not exit cleanly on SIGTERM'; exit 1; }
# A dead server is a monitoring failure, not a quiet dashboard: the
# one-shot form must exit non-zero once nothing answers.
if "$SMOKE/spmvselect" monitor -addr "$ADDR" -once >/dev/null 2>&1; then
	echo 'ci: monitor -once succeeded against a dead server'; exit 1
fi

echo '== replay smoke test (record, feedback, replay; race-enabled server)'
go build -race -o "$SMOKE/spmvselect.race" ./cmd/spmvselect
"$SMOKE/spmvselect.race" serve -models "turing=$SMOKE/model.gob" -admin-token "$ADMIN_TOKEN" \
	-addr 127.0.0.1:0 -portfile "$SMOKE/port3" \
	-record "$SMOKE/capture" -access-log "$SMOKE/access3.log" -access-log-sample 4 &
SERVE_PID=$!
i=0
while [ ! -s "$SMOKE/port3" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$SMOKE/port3" ] || { echo 'ci: recording serve never wrote its portfile'; exit 1; }
ADDR=$(cat "$SMOKE/port3")
i=0
until "$SMOKE/spmvselect" request -addr "$ADDR" -get /readyz >/dev/null 2>&1; do
	sleep 0.1; i=$((i+1))
	[ $i -lt 100 ] || { echo 'ci: recording serve never became ready'; exit 1; }
done
# ~20 mixed requests: 12 singles with full per-format feedback sweeps,
# plus 2 batches whose items report served-time-only outcomes.
i=0
while [ $i -lt 12 ]; do
	if [ $((i % 2)) -eq 0 ]; then M=$MTX; else M=$MTX2; fi
	"$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$M" -request-id "replay-$i" >/dev/null
	"$SMOKE/spmvselect" request -addr "$ADDR" -post /v1/feedback \
		-json "{\"request_id\":\"replay-$i\",\"times_ms\":{\"COO\":2.5,\"CSR\":1.0,\"ELL\":3.0,\"HYB\":4.0}}" >/dev/null
	i=$((i+1))
done
b=0
while [ $b -lt 2 ]; do
	"$SMOKE/spmvselect" request -addr "$ADDR" -batch "$MTX,$MTX2" -request-id "replay-batch-$b" >/dev/null
	j=0
	while [ $j -lt 2 ]; do
		"$SMOKE/spmvselect" request -addr "$ADDR" -post /v1/feedback \
			-json "{\"request_id\":\"replay-batch-$b\",\"item\":$j,\"served_ms\":1.5}" >/dev/null
		j=$((j+1))
	done
	b=$((b+1))
done
# A duplicate report must be rejected: outcomes are consume-once.
if "$SMOKE/spmvselect" request -addr "$ADDR" -post /v1/feedback \
	-json '{"request_id":"replay-0","served_ms":1.0}' >/dev/null 2>&1; then
	echo 'ci: duplicate feedback was accepted'; exit 1
fi
# Replaying the capture against the same live model must reproduce
# every recorded prediction (replay exits non-zero on any mismatch).
"$SMOKE/spmvselect" replay -dir "$SMOKE/capture" -addr "$ADDR" -concurrency 4 \
	|| { echo 'ci: replay failed or predictions diverged from the recording'; exit 1; }
# The feedback landed: the quality window holds the 12 full outcomes
# (batch items reported served-time-only, which do not count as full
# samples).
QUALITY=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /v1/admin/quality -token "$ADMIN_TOKEN")
echo "$QUALITY" | grep -q '"samples":12' || { echo "ci: quality window missing the feedback outcomes: $QUALITY"; exit 1; }
echo "$QUALITY" | grep -q '"served_only":4' || { echo "ci: quality window missing the served-only outcomes: $QUALITY"; exit 1; }
# Sampling kept the feedback trail complete (16 accepted + the 404
# duplicate, which logs as an error) while dropping most of the 24
# /v1/predict requests (12 recorded + 12 replayed).
FEEDBACK_LINES=$(grep -c '"endpoint":"/v1/feedback"' "$SMOKE/access3.log" || true)
[ "$FEEDBACK_LINES" -eq 17 ] || { echo "ci: feedback access-log lines = $FEEDBACK_LINES, want 17"; exit 1; }
PREDICT_LINES=$(grep -c '"endpoint":"/v1/predict/matrix"' "$SMOKE/access3.log" || true)
[ "$PREDICT_LINES" -lt 24 ] || { echo "ci: access-log sampling logged all $PREDICT_LINES predict requests"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo 'ci: recording serve did not exit cleanly on SIGTERM'; exit 1; }

echo '== cascade smoke test (cheap-first artifact, stage metrics, capture replay)'
"$SMOKE/spmvselect" train -save "$SMOKE/cascade.gob" -quick -clusters 16 \
	-cascade -cascade-target-agreement 0.85 >/dev/null
"$SMOKE/spmvselect" serve -models "turing=$SMOKE/cascade.gob" -admin-token "$ADMIN_TOKEN" \
	-addr 127.0.0.1:0 -portfile "$SMOKE/port4" -record "$SMOKE/capture2" &
SERVE_PID=$!
i=0
while [ ! -s "$SMOKE/port4" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$SMOKE/port4" ] || { echo 'ci: cascade serve never wrote its portfile'; exit 1; }
ADDR=$(cat "$SMOKE/port4")
i=0
until "$SMOKE/spmvselect" request -addr "$ADDR" -get /readyz >/dev/null 2>&1; do
	sleep 0.1; i=$((i+1))
	[ $i -lt 100 ] || { echo 'ci: cascade serve never became ready'; exit 1; }
done
# The artifact advertises its calibration, and every computed answer
# names the stage that produced it.
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /v1/model)
echo "$OUT" | grep -q '"cascade":true' || { echo "ci: /v1/model does not advertise the cascade: $OUT"; exit 1; }
OUT=$("$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX")
echo "$OUT" | grep -q '"stage":"' || { echo "ci: cascade prediction carries no stage: $OUT"; exit 1; }
"$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX2" >/dev/null
"$SMOKE/spmvselect" request -addr "$ADDR" -mtx "$MTX" >/dev/null
METRICS=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /metrics)
echo "$METRICS" | grep -q '^spmvselect_serve_cascade_hits_total' \
	|| { echo 'ci: /metrics lacks the cascade hit counter'; exit 1; }
echo "$METRICS" | grep -q '^spmvselect_serve_cascade_fallthroughs_total' \
	|| { echo 'ci: /metrics lacks the cascade fallthrough counter'; exit 1; }
echo "$METRICS" | grep -q 'spmvselect_serve_cascade_confidence' \
	|| { echo 'ci: /metrics lacks the cascade confidence histogram'; exit 1; }
# The feature memo fronted those 3 requests: MTX, MTX2, MTX is two
# distinct bodies, so exactly one repeat hit, two misses, and two
# resident entries.
MHITS=$(echo "$METRICS" | sed -n 's/^spmvselect_serve_featmemo_hits_total \([0-9]*\)$/\1/p')
MMISSES=$(echo "$METRICS" | sed -n 's/^spmvselect_serve_featmemo_misses_total \([0-9]*\)$/\1/p')
[ "$MHITS" = 1 ] || { echo "ci: featmemo hits = $MHITS after one repeat body, want 1"; exit 1; }
[ "$MMISSES" = 2 ] || { echo "ci: featmemo misses = $MMISSES over two distinct bodies, want 2"; exit 1; }
echo "$METRICS" | grep -q '^spmvselect_serve_featmemo_entries 2$' \
	|| { echo 'ci: featmemo entries gauge does not show 2 resident bodies'; exit 1; }
# The stage tallies (hits + fallthroughs) must cover the 3 computed
# predictions, and the quality report must carry the hit rate.
HITS=$(echo "$METRICS" | sed -n 's/^spmvselect_serve_cascade_hits_total \([0-9]*\)$/\1/p')
FALLS=$(echo "$METRICS" | sed -n 's/^spmvselect_serve_cascade_fallthroughs_total \([0-9]*\)$/\1/p')
[ "$((HITS + FALLS))" -eq 3 ] || { echo "ci: cascade tallies $HITS+$FALLS, want 3"; exit 1; }
QUALITY=$("$SMOKE/spmvselect" request -addr "$ADDR" -get /v1/admin/quality -token "$ADMIN_TOKEN")
echo "$QUALITY" | grep -q '"cascade"' || { echo "ci: quality report lacks cascade stats: $QUALITY"; exit 1; }
echo "$QUALITY" | grep -q '"window_size"' || { echo "ci: cascade graft broke the quality report shape: $QUALITY"; exit 1; }
# Replaying the capture against the cascade artifact must reproduce
# every recorded answer (mismatches == 0; replay exits non-zero else).
"$SMOKE/spmvselect" replay -dir "$SMOKE/capture2" -addr "$ADDR" \
	|| { echo 'ci: replay against the cascade artifact diverged from the recording'; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo 'ci: cascade serve did not exit cleanly on SIGTERM'; exit 1; }

echo '== fleet smoke test (3 replicas + proxy, kill-one under load, fleet rollout)'
# Three registry-backed replicas of the same model behind the proxy.
# Registry backends are required: the fleet rollout pushes candidates
# over /v1/admin/shadow/install, which static backends refuse.
r=1
while [ $r -le 3 ]; do
	"$SMOKE/spmvselect" serve -models "turing=$SMOKE/model.gob" -admin-token "$ADMIN_TOKEN" \
		-addr 127.0.0.1:0 -portfile "$SMOKE/fport$r" &
	eval "R${r}_PID=\$!"
	r=$((r+1))
done
r=1
while [ $r -le 3 ]; do
	i=0
	while [ ! -s "$SMOKE/fport$r" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
	[ -s "$SMOKE/fport$r" ] || { echo "ci: fleet replica $r never wrote its portfile"; exit 1; }
	eval "R$r=\$(cat \"$SMOKE/fport$r\")"
	r=$((r+1))
done
"$SMOKE/spmvselect" proxy -fleet "$R1,$R2,$R3" -addr 127.0.0.1:0 -portfile "$SMOKE/pport" \
	-hedge-after 100ms -health-interval 500ms -admin-token "$ADMIN_TOKEN" -trace-sample -1 &
PROXY_PID=$!
i=0
while [ ! -s "$SMOKE/pport" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$SMOKE/pport" ] || { echo 'ci: proxy never wrote its portfile'; exit 1; }
PADDR=$(cat "$SMOKE/pport")
i=0
until "$SMOKE/spmvselect" request -addr "$PADDR" -get /readyz >/dev/null 2>&1; do
	sleep 0.1; i=$((i+1))
	[ $i -lt 100 ] || { echo 'ci: proxy never became ready'; exit 1; }
done
# A routed prediction works and carries the serving model's hash.
OUT=$("$SMOKE/spmvselect" request -addr "$PADDR" -mtx "$MTX")
echo "$OUT" | grep -q '"format"' || { echo "ci: bad proxied prediction: $OUT"; exit 1; }
# The admin fan-out aggregates every replica (all three must answer).
SLO=$("$SMOKE/spmvselect" request -addr "$PADDR" -get /v1/admin/slo -token "$ADMIN_TOKEN")
echo "$SLO" | grep -q '"fleet"' || { echo "ci: proxied SLO lacks the fleet aggregate: $SLO"; exit 1; }
# monitor detects the proxy and requires its metric families.
"$SMOKE/spmvselect" monitor -addr "$PADDR" -once | grep -q 'REPLICAS' \
	|| { echo 'ci: monitor -once did not render the fleet view'; exit 1; }
# Distributed-trace smoke: a probe request names the ring owner of
# MTX2's key in its attempt span; freezing that replica makes the next
# request deliberately slow, so it hedges after 100ms and wins on the
# next replica. Fetching the trace by its X-Request-ID from the proxy
# must return one stitched tree: both attempt spans (one hedged) under
# the proxy root, with the winning replica's own parse/predict stage
# spans grafted beneath.
"$SMOKE/spmvselect" request -addr "$PADDR" -mtx "$MTX2" -request-id trace-probe-ci -keep-trace >/dev/null
PROBE=$("$SMOKE/spmvselect" trace -addr "$PADDR" -id trace-probe-ci -token "$ADMIN_TOKEN" -json)
OWNER=$(echo "$PROBE" | grep -o '"name":"attempt/[^"]*"' | head -n 1 | sed 's|.*attempt/||; s|"||')
[ -n "$OWNER" ] || { echo "ci: probe trace has no attempt span: $PROBE"; exit 1; }
OWNER_PID=''
[ "$OWNER" = "$R1" ] && OWNER_PID=$R1_PID
[ "$OWNER" = "$R2" ] && OWNER_PID=$R2_PID
[ "$OWNER" = "$R3" ] && OWNER_PID=$R3_PID
[ -n "$OWNER_PID" ] || { echo "ci: ring owner $OWNER is not a known replica"; exit 1; }
kill -STOP "$OWNER_PID"
# The request ID holds ?, # and %: trace -id and the proxy's replica
# fetches must percent-escape it into /v1/admin/trace/<id>.
STITCH_ID='stitch?ci#50%'
"$SMOKE/spmvselect" request -addr "$PADDR" -mtx "$MTX2" -request-id "$STITCH_ID" -keep-trace -v \
	>/dev/null 2>"$SMOKE/reqv.err" \
	|| { kill -CONT "$OWNER_PID"; echo 'ci: traced request failed with the ring owner frozen'; exit 1; }
kill -CONT "$OWNER_PID"
# request -v surfaced the response's trace and model identity.
grep -qF "X-Request-ID: $STITCH_ID" "$SMOKE/reqv.err" \
	|| { echo 'ci: request -v did not print the X-Request-ID'; cat "$SMOKE/reqv.err"; exit 1; }
grep -q 'X-Model-Hash: [0-9a-f]' "$SMOKE/reqv.err" \
	|| { echo 'ci: request -v did not print the X-Model-Hash'; cat "$SMOKE/reqv.err"; exit 1; }
sleep 0.3
STITCHED=$("$SMOKE/spmvselect" trace -addr "$PADDR" -id "$STITCH_ID" -token "$ADMIN_TOKEN" -json)
echo "$STITCHED" | grep -q '"stitched_from":\["' \
	|| { echo "ci: stitched trace carries no replica spans: $STITCHED"; exit 1; }
ATTEMPTS=$(echo "$STITCHED" | grep -o '"name":"attempt/' | wc -l)
[ "$ATTEMPTS" -eq 2 ] || { echo "ci: stitched trace has $ATTEMPTS attempt spans, want 2"; exit 1; }
echo "$STITCHED" | grep -q '"hedged":1' \
	|| { echo "ci: stitched trace shows no hedged attempt: $STITCHED"; exit 1; }
echo "$STITCHED" | grep -q '"name":"parse"' \
	|| { echo "ci: stitched trace lacks the replica parse span: $STITCHED"; exit 1; }
echo "$STITCHED" | grep -q '"name":"predict"' \
	|| { echo "ci: stitched trace lacks the replica predict span: $STITCHED"; exit 1; }
# The text renderer draws the same stitched tree.
"$SMOKE/spmvselect" trace -addr "$PADDR" -id "$STITCH_ID" -token "$ADMIN_TOKEN" | grep -q 'attempt/' \
	|| { echo 'ci: trace rendering lost the attempt spans'; exit 1; }
# 60 requests through the proxy; one replica is SIGKILLed mid-load.
# Hedging plus transport-failure ejection must keep every answer 2xx —
# zero client-visible errors is the whole point of the front door.
i=0
while [ $i -lt 60 ]; do
	[ $i -eq 20 ] && kill -9 "$R3_PID"
	if [ $((i % 2)) -eq 0 ]; then M=$MTX; else M=$MTX2; fi
	"$SMOKE/spmvselect" request -addr "$PADDR" -mtx "$M" >/dev/null \
		|| { echo "ci: client-visible error at proxied request $i after the kill"; exit 1; }
	i=$((i+1))
done
sleep 1
FLEET=$("$SMOKE/spmvselect" request -addr "$PADDR" -get /v1/fleet)
echo "$FLEET" | grep -q '"replica_count":3' || { echo "ci: bad fleet status: $FLEET"; exit 1; }
echo "$FLEET" | grep -q '"healthy_count":2' || { echo "ci: killed replica was not ejected: $FLEET"; exit 1; }
# Fleet rollout over the two survivors: push a retrained candidate
# (same config, different seed: different bytes, agreeing predictions),
# observe shadow agreement on driven traffic, promote everywhere.
"$SMOKE/spmvselect" train -save "$SMOKE/fleetcand.gob" -quick -clusters 16 -seed 7 >/dev/null
"$SMOKE/spmvselect" export -dir "$SMOKE/fmtx" -count 8 -seed 12 >/dev/null
HASH_BEFORE=$("$SMOKE/spmvselect" request -addr "$R1" -get /v1/model | grep -o '"hash":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
ROLLOUT=$("$SMOKE/spmvselect" rollout -fleet "$R1,$R2" -artifact "$SMOKE/fleetcand.gob" -arch turing \
	-token "$ADMIN_TOKEN" -min-scored 8 -drive "$SMOKE/fmtx" -q) \
	|| { echo 'ci: fleet rollout failed'; exit 1; }
CAND_HASH=$(echo "$ROLLOUT" | grep -o '"hash": *"[0-9a-f]*"' | head -n 1 | grep -o '[0-9a-f]*"$' | tr -d '"')
[ -n "$CAND_HASH" ] || { echo "ci: rollout reported no hash: $ROLLOUT"; exit 1; }
[ "$CAND_HASH" != "$HASH_BEFORE" ] || { echo 'ci: rollout candidate is the live model'; exit 1; }
# Every surviving replica flipped to the candidate together.
for R in "$R1" "$R2"; do
	H=$("$SMOKE/spmvselect" request -addr "$R" -get /v1/model | grep -o '"hash":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)
	[ "$H" = "$CAND_HASH" ] || { echo "ci: replica $R serves $H after rollout, want $CAND_HASH"; exit 1; }
done
kill -TERM "$PROXY_PID"
wait "$PROXY_PID" || { echo 'ci: proxy did not exit cleanly on SIGTERM'; exit 1; }
kill -TERM "$R1_PID" "$R2_PID"
wait "$R1_PID" || { echo 'ci: fleet replica 1 did not exit cleanly'; exit 1; }
wait "$R2_PID" || { echo 'ci: fleet replica 2 did not exit cleanly'; exit 1; }
wait "$R3_PID" 2>/dev/null || true

if [ "${1:-}" = bench ]; then
	echo '== regenerating BENCH_obs.json (instrumented table -n 9, paper scale)'
	go run ./cmd/spmvselect table -n 9 -obs :0 -report BENCH_obs.json >/dev/null
	echo '== merging serve_tracing into BENCH_obs.json (tracing on/off p50, <= 5% gate)'
	go run ./cmd/spmvselect bench tracing
	go run ./cmd/spmvselect report -in BENCH_obs.json -text
	for suite in parallel parse serve replay fleet; do
		echo "== regenerating the $suite suite's BENCH file"
		go run ./cmd/spmvselect bench "$suite"
	done
fi

echo 'ci: all checks passed'
