#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes: ThreadSanitizer over the
# concurrency-sensitive suites (obs registry/tracer, scheduler,
# server/client) and AddressSanitizer over the kernel equivalence
# suites (batch alignment vs scalar, SIMD dispatch tiers), then the
# bench smoke runs which re-assert equivalence before timing anything.
# The chaos suite (server kill/restart + donor churn + injected frame
# faults, tests/test_chaos.cpp) runs under BOTH sanitizers: it is the
# test most likely to expose races and lifetime bugs in the
# reconnect/WAL-restart paths, and it must stay clean there, not just in
# the plain build. The Simd/BatchKernel suites additionally run with
# HDCS_SIMD pinned to scalar, sse2 and avx2, so every tier below the
# detected one stays exercised on hosts that would dispatch higher.
#
#   scripts/verify.sh            # full: tier-1 + TSan + ASan + smoke
#   scripts/verify.sh --fast     # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j"$(nproc)"

if [[ "${1:-}" == "--fast" ]]; then
  echo "verify OK (tier-1 only)"
  exit 0
fi

for tier in scalar sse2 avx2; do
  echo "== kernel equivalence with the tier pinned (HDCS_SIMD=$tier) =="
  HDCS_SIMD=$tier ctest --test-dir build --output-on-failure -j"$(nproc)" \
    -R 'Simd|BatchKernel'
done

echo "== TSan: obs + scheduler + integration + chaos + data-plane tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan --target test_obs test_dist test_integration test_chaos test_data_plane test_wal test_vfs -j >/dev/null
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'Metrics|Jsonl|Tracer|MsgStats|Wire|Scheduler|ServerClient|ProtocolEdges|Granularity|Chaos|DataPlane|BulkV4|BlobCache|Compress|Wal|Vfs'

echo "== ASan: kernel equivalence + SIMD tiers + chaos + data-plane =="
cmake --preset asan >/dev/null
cmake --build --preset asan --target test_bio test_properties test_simd test_dsearch test_chaos test_data_plane test_wal test_vfs test_checkpoint -j >/dev/null
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  -R 'Simd|BatchKernel|AlignScore|Banded|NeedlemanWunsch|SmithWaterman|SemiGlobal|DSearch|Chaos|DataPlane|BulkV4|BlobCache|Compress|Wal|Vfs|CheckpointFile'

echo "== bench_align --smoke (kernel equivalence + throughput snapshot) =="
# Writes into build/ so a verify run never dirties the committed
# BENCH_ALIGN.json. That baseline is measured with the tier pinned to AVX2
# (refresh: HDCS_SIMD=avx2 ./build/bench/bench_align --smoke), so CI can
# gate both the detected tier and the AVX2 kernels on AVX-512 hosts.
./build/bench/bench_align --smoke --out build/BENCH_ALIGN.json
HDCS_SIMD=avx2 ./build/bench/bench_align --smoke \
  --out build/BENCH_ALIGN_AVX2.json

echo "== bench_likelihood --smoke (tier bit-equality + throughput) =="
./build/bench/bench_likelihood --smoke --out build/BENCH_LIKELIHOOD.json

echo "== bench_net --storm (epoll server: 1k donors on a fixed thread budget) =="
cmake --build build --target bench_net -j >/dev/null
./build/bench/bench_net --storm 1000 --heartbeats 2 --out build/BENCH_NET.json

echo "== bench gate self-test + speedup ratchets on the fresh artifacts =="
# Self-compare (baseline = current) skips the machine-dependent absolute
# throughput comparison — CI does that against the committed baselines —
# but still enforces the machine-independent speedup ratchets locally.
python3 scripts/bench_gate.py --self-test
for artifact in build/BENCH_ALIGN.json build/BENCH_ALIGN_AVX2.json; do
  python3 scripts/bench_gate.py \
    --baseline "$artifact" --current "$artifact" \
    --min speedup_batch_over_scalar.sw=3.0 \
    --min speedup_batch_over_scalar.nw=3.0 \
    --min speedup_batch_over_scalar.semiglobal=3.0
done
python3 scripts/bench_gate.py --section kernels_evals_per_sec \
  --baseline build/BENCH_LIKELIHOOD.json \
  --current build/BENCH_LIKELIHOOD.json \
  --min speedup_simd_over_scalar.partials=1.5 \
  --min speedup_incremental_over_full.brent=2.0
python3 scripts/bench_gate.py --ratchets-only \
  --current build/BENCH_NET.json \
  --min storm.joins_per_sec=300 \
  --min storm.peak_concurrent=1000 \
  --max storm.failed_connects=0 \
  --max storm.resident_threads=32

echo "verify OK"
