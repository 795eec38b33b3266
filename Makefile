# check runs the full CI pipeline: vet, build, race-enabled tests, and
# the observability disabled-path overhead benchmark.
check:
	sh ci.sh

# bench-obs regenerates every committed BENCH file on this host: the
# instrumented paper-scale `table -n 9` run report (BENCH_obs.json),
# then the six `spmvselect bench` suites, each checked and gated.
bench-obs:
	sh ci.sh bench

# The single-suite targets below regenerate one BENCH file each through
# `spmvselect bench <suite>`, which checks the suite's answers before
# timing and fails on a missed perf gate.
bench-parallel:
	go run ./cmd/spmvselect bench parallel

bench-serve:
	go run ./cmd/spmvselect bench serve

bench-parse:
	go run ./cmd/spmvselect bench parse

bench-fleet:
	go run ./cmd/spmvselect bench fleet

.PHONY: check bench-obs bench-parallel bench-serve bench-parse bench-fleet
