#!/bin/sh
# CI gate: vet + build + race-clean internal test suite.
#
#   scripts/check.sh        # fast local gate (race leg runs -short)
#   FULL=1 scripts/check.sh # CI mode: full race suite, no -short
set -eu
cd "$(dirname "$0")/.."

# Formatting gate: every Go file in the checkout (the nested perfbench
# module included; dot-directories such as build caches excluded) must
# be gofmt-clean.
echo "==> gofmt -l"
unformatted="$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +)"
if [ -n "$unformatted" ]; then
    printf '%s\n' "$unformatted"
    echo "FAIL: files above need gofmt"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

short="-short"
if [ "${FULL:-0}" = "1" ]; then
    short=""
fi
echo "==> go test -race ${short} ./internal/..."
# shellcheck disable=SC2086
go test -race ${short} ./internal/...

# The pipelined collectives' concurrency bugs are schedule-dependent, so
# give the race detector extra rounds over the stress/equivalence tests
# specifically (cheap: the comm package has no heavy kernels).
echo "==> go test -race -count=2 comm stress/equivalence"
go test -race -count=2 -run 'Stress|Equivalent|Pipelines' ./internal/comm/

# Same treatment for the backward-overlapped bucketed aggregation: the
# async handle lifecycle and the learner/comm-worker handoff are the
# schedule-sensitive surfaces, so run their equivalence and stress tests
# twice under the race detector at both layers.
echo "==> go test -race -count=2 bucketed/overlap equivalence + stress"
go test -race -count=2 -run 'Bucketed|Overlap' ./internal/comm/
go test -race -count=2 -run 'Overlap' ./internal/core/

# The compression engine's schedule-sensitive surface is the per-bucket
# codec collectives riding the same async worker handoff: run the codec
# unit/equivalence tests and the core-level compressed-overlap sweep
# twice under the race detector.
echo "==> go test -race -count=2 compression engine"
go test -race -count=2 -run 'Compress|Codec|TopK|QInt8|Selector|Quickselect|Sparsity' ./internal/comm/
go test -race -count=2 -run 'Compress|FaultyCompressed|Adaptive' ./internal/core/

# The communication-scheduling layer rides the same async worker
# handoff with its own schedule-sensitive surfaces — the one-round
# delayed-application handle lifecycle, the hierarchical subset
# collectives sharing the group's mailboxes with in-flight worker ops,
# and the adaptive-T drift allreduce spliced between them — so run its
# equivalence, determinism and chaos legs twice under the race detector,
# together with the golden pin of the one fault-free SASGD loop and the
# exact cross-island count of the hierarchy's initial broadcast.
echo "==> go test -race -count=2 comm-schedule layer"
go test -race -count=2 -run 'Hier|DeferSync' ./internal/comm/
go test -race -count=2 -run 'Sched|Delayed|Decay|AdaptiveT|ChaosHier|Golden|HierCrossWords' ./internal/core/

# Per-epoch evaluation shards its batches over model replicas on helper
# goroutines that read the datasets in place (Slice and Partition
# return views), so run the shard-count and worker-budget bitwise pins,
# the datasets-unchanged check and the view tests twice under the race
# detector.
echo "==> go test -race -count=2 sharded evaluation + dataset views"
go test -race -count=2 -run 'Evaluator|RecordShard|WorkerBudget|LeavesDatasets' ./internal/core/
go test -race -count=2 -run 'Partition|Slice' ./internal/data/

# The wire-transport cut is the newest schedule-sensitive surface: per
# connection-endpoint writer/reader goroutines, pooled frame buffers
# crossing the socket boundary, idempotent group/transport teardown
# racing in-flight sends, and the cross-transport equivalence matrix
# that pins channel and TCP-loopback backends bitwise identical. Run
# those legs twice under the race detector at both layers.
echo "==> go test -race -count=2 wire transport (channel vs TCP loopback)"
go test -race -count=2 -run 'CrossTransport|GroupClose|TCP|Wire|MultiProcess' ./internal/comm/
go test -race -count=2 -run 'TrainTCP|MultiEndpoint' ./internal/core/

# The tracing subsystem's whole design is lock-free concurrent recording
# (per-track ring buffers, atomic counters), so give its concurrency
# tests the same extra race-detector rounds.
echo "==> go test -race -count=2 obs concurrent tracing"
go test -race -count=2 -run 'Concurrent' ./internal/obs/

# The metrics registry makes the same promise one layer up: lock-free
# counters/gauges/histograms/rings written concurrently by p learners
# while exporters snapshot them, so its concurrency test gets the same
# extra rounds.
echo "==> go test -race -count=2 metrics registry concurrent writes"
go test -race -count=2 -run 'Concurrent' ./internal/obs/metrics/

# The chaos suite is the failure-handling gate: seeded fault plans
# (stragglers, drops, crashes at scheduled boundaries) with bitwise
# survivor-equivalence assertions. Membership changes move virtual rank
# 0 across goroutines, so run it twice under the race detector.
echo "==> go test -race -count=2 chaos suite"
go test -race -count=2 ./internal/chaos/

# Native fuzzing smoke legs: a short randomized walk over the allreduce
# equivalence and bucket-plan invariants beyond the checked-in corpus.
echo "==> go fuzz smoke (10s per target)"
go test -fuzz 'FuzzAllreduceEquivalence' -fuzztime 10s -run 'Fuzz' ./internal/comm/
go test -fuzz 'FuzzPlanBuckets' -fuzztime 10s -run 'Fuzz' ./internal/core/
go test -fuzz 'FuzzFrameDecode' -fuzztime 10s -run 'Fuzz' ./internal/comm/wire/
go test -fuzz 'FuzzFrameRoundTrip' -fuzztime 10s -run 'Fuzz' ./internal/comm/wire/

# The packed GEMM engine's whole contract is bitwise-identical results
# at any worker count (plus fused-epilogue equivalence to the unfused
# layers, the conv weight-gradient kernel's serial order, and the
# params-only first-layer backward), and its parallelism runs through
# the aligned sharding helpers, so give those determinism tests extra
# race-detector rounds.
echo "==> go test -race -count=2 packed GEMM determinism + fusion"
go test -race -count=2 -run 'Bitwise|FastKernels|LinearForward|ConvGemm|DotRowsAcc' ./internal/tensor/
go test -race -count=2 -run 'Fused|FirstLayerParamsOnly' ./internal/nn/
go test -race -count=2 -run 'Aligned' ./internal/parallel/

# Steady-state allocation pins (the race detector's instrumentation
# allocates, so these only check out in a plain build): bucketed
# allreduce rounds and full compressed rounds (top-k selection included)
# must stay zero-alloc on the pooled buffers and codec scratch, the
# disabled tracing path must stay nil-check-only free (the obs pin also
# covers the enabled record fast path), and the packed GEMM entry points
# must run allocation-free off the pooled pack scratch.
echo "==> go test bucketed + hier zero-alloc pins"
go test -run 'SteadyStateAllocs' ./internal/comm/
echo "==> go test wire-codec zero-alloc pin"
go test -run 'SteadyStateAllocs' ./internal/comm/wire/
echo "==> go test obs disabled-path zero-alloc pin"
go test -run 'NilTrackIsSafeAndFree|EnabledRecordIsAllocFree' ./internal/obs/
echo "==> go test metrics disabled-path zero-alloc pin"
go test -run 'NilRegistryIsSafeAndFree|EnabledRecordIsAllocFree' ./internal/obs/metrics/
echo "==> go test tensor GEMM zero-alloc pin"
go test -run 'GemmSteadyStateAllocs' ./internal/tensor/
echo "==> go test conv backward steady-state alloc pin"
go test -run 'Conv2DBackwardSteadyStateAllocs' ./internal/nn/

# Bounds-check-elimination gate: the GEMM microkernels are written in
# the len-conditioned slice-advance idiom precisely so the compiler can
# prove every index in bounds; a regression shows up as a check_bce
# diagnostic pointing into gemm_micro.go. The -a forces a real compile
# (a cache hit would emit no diagnostics and pass vacuously).
echo "==> bounds-check-elimination gate (gemm_micro.go)"
bce_out="$(go build -a -o /dev/null \
    -gcflags='sasgd/internal/tensor=-d=ssa/check_bce/debug=1' \
    ./internal/tensor/ 2>&1)"
if printf '%s\n' "$bce_out" | grep -q 'gemm_micro\.go'; then
    printf '%s\n' "$bce_out" | grep 'gemm_micro\.go'
    echo "FAIL: bounds checks in gemm_micro.go microkernels"
    exit 1
fi

echo "OK"
