#!/bin/sh
# Regenerates BENCH_KERNELS.json: the worker-sweep baseline for the
# kernels the parallel layer is judged on (GEMM — square, transposed and
# odd shapes — the fused im2col+GEMM Conv2D forward, the Conv2D
# forward+backward step) plus the AXPY update loop and the small-tier
# zero-skip pin.
#
#   scripts/bench_kernels.sh              # 1,2,4,8 workers, 300ms/bench
#   WORKERS=1,4 BENCHTIME=1s COUNT=3 scripts/bench_kernels.sh
#
# COUNT > 1 runs every benchmark that many times and records the
# minimum ns/op: on a noisy shared box the run-to-run spread is ±20%,
# and the fastest run is the least-contended estimate of what the
# kernel actually costs.
set -eu
cd "$(dirname "$0")/.."

workers="${WORKERS:-1,2,4,8}"
benchtime="${BENCHTIME:-300ms}"
count="${COUNT:-1}"
out="BENCH_KERNELS.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The package path must precede -workers: go test stops reading package
# arguments at the first flag it does not recognise itself.
go test -run '^$' -bench 'KernelMatMul|KernelConvForward' \
    -benchtime "$benchtime" -count "$count" . -workers "$workers" | tee "$raw"
go test -run '^$' -bench 'Conv2DForward|Conv2DBackward' \
    -benchtime "$benchtime" -count "$count" ./internal/nn -workers "$workers" | tee -a "$raw"
go test -run '^$' -bench 'KernelMatMul|KernelConvFused|AxpyWorkers|MatMulZeroSkip' \
    -benchtime "$benchtime" -count "$count" ./internal/tensor -workers "$workers" | tee -a "$raw"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "gomaxprocs": %s,\n' "$(nproc)"
    printf '  "benchtime": "%s",\n' "$benchtime"
    printf '  "count": %s,\n' "$count"
    printf '  "note": "ns/op per benchmark (min over COUNT runs). Worker sweeps (…/wN) run the same bitwise-identical kernels at different parallel.SetWorkers budgets; gomaxprocs is the core count of the recording machine: worker counts beyond it cannot run in parallel, so those entries measure dispatch overhead, not speedup. Conv2DBackward is one Forward+Backward step.",\n'
    printf '  "results_ns_per_op": {\n'
    awk '/^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        sub(/^Benchmark/, "", name)
        if (!(name in best)) { order[n++] = name; best[name] = $3 + 0 }
        else if ($3 + 0 < best[name]) { best[name] = $3 + 0 }
    }
    END {
        for (i = 0; i < n; i++)
            printf "    \"%s\": %d%s\n", order[i], best[order[i]], (i < n-1 ? "," : "")
    }' "$raw"
    printf '  }\n'
    printf '}\n'
} > "$out"

echo "wrote $out"
