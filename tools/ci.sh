#!/usr/bin/env sh
# CI entry point: the tier-1 verify command on a Release build, explicit
# `simctl run` smokes (`--runtime threads --sig hmac`, whose report carries
# the verifier-pool counters, `--runtime tcp` and the lossy `--runtime udp`
# in one process, plus both two-OS-process serve/join
# clusters — clean TCP and 10%-loss UDP — plus the three-process durable
# crash/recovery smoke, which kills a member at checkpoint 6 or later, the crash-churn and UDP fuzz slices and a sim fuzz
# slice under real hmac signatures), a bench
# harness smoke (every bench runs seconds-scale and must emit parseable
# BENCH_*.json), an Asan build running the tier1 ctest label, then a Tsan
# build running the threaded-runtime, TCP-runtime and UDP-runtime
# convergence tests (the two link-settle cases looped 10×), the socket
# link layer's cap and stop-accounting cases, the real-runtime scenario
# runs, the crash/restart cases with their checkpoint-writer crash points
# (one of them looped 24× under a timeout) and the storage sinks' append-vs-store race
# under ThreadSanitizer. Mirrors
# .github/workflows/ci.yml; see BUILDING.md for the full command reference.
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> Release build + full suite (tier-1 verify)"
cmake -B build-ci -S .
cmake --build build-ci -j "$jobs"
# `cd` instead of `ctest --test-dir` keeps the script working on CMake < 3.20.
(cd build-ci && ctest --output-on-failure -j "$jobs")

echo "==> Threaded-runtime smoke (real hmac signatures through the verifier pool)"
./build-ci/simctl run --runtime threads --sig hmac --seconds 2

echo "==> Socket-runtime smoke (real localhost TCP, single process + multi-process)"
./build-ci/simctl run --runtime tcp --n 4 --instances 4 --seconds 5 --interval 2
sh tools/tcp_cluster_smoke.sh ./build-ci/simctl

echo "==> Crash-recovery smoke (three-process durable cluster, SIGKILL at checkpoint >= 6 + restart)"
sh tools/crash_cluster_smoke.sh ./build-ci/simctl

echo "==> Sim fuzz slice under real signatures (churn restores replay the block log through hmac checks)"
./build-ci/simctl fuzz --seeds 0..40 --sig hmac

echo "==> Crash-churn fuzz slice (kill/restart plans on the threaded runtime)"
./build-ci/simctl fuzz --runtime threads --seeds 1..8

echo "==> Forger fuzz slice (real wots signatures + raw-hosted forger adversary)"
./build-ci/simctl fuzz --runtime threads --seeds 1..8 --sig wots

echo "==> TCP fuzz slice (crash churn over real localhost sockets)"
./build-ci/simctl fuzz --runtime tcp --seeds 1..8

echo "==> UDP fuzz slice (seeded wire-fault profiles injected on real datagram sockets)"
./build-ci/simctl fuzz --runtime udp --seeds 1..8

echo "==> Lossy-datagram smoke (real localhost UDP, 15% injected loss + two-process 10%-loss cluster)"
./build-ci/simctl run --runtime udp --n 4 --instances 4 --seconds 5 --interval 2 --drop 0.15
sh tools/udp_cluster_smoke.sh ./build-ci/simctl

echo "==> Bench harness smoke (all twelve benches, JSON artifacts validated)"
sh tools/bench_all.sh -B build-ci --smoke

echo "==> Asan build + tier1 label"
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Asan \
      -DBLOCKDAG_BUILD_BENCHES=OFF -DBLOCKDAG_BUILD_EXAMPLES=OFF \
      -DBLOCKDAG_BUILD_TOOLS=OFF
cmake --build build-ci-asan -j "$jobs"
(cd build-ci-asan && ctest --output-on-failure -j "$jobs" -L tier1)

echo "==> Tsan build + threaded/TCP/UDP runtime + link layer + live scenario + crash/restart + storage + verifier-pool smoke (ThreadSanitizer)"
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Tsan \
      -DBLOCKDAG_BUILD_BENCHES=OFF -DBLOCKDAG_BUILD_EXAMPLES=OFF \
      -DBLOCKDAG_BUILD_TOOLS=OFF
cmake --build build-ci-tsan -j "$jobs" \
      --target rt_threaded_runtime_test rt_tcp_runtime_test \
               rt_udp_runtime_test rt_mailbox_timer_test rt_crash_restart_test \
               rt_mailbox_batch_test rt_link_layer_test runtime_live_scenario_test \
               crypto_verifier_pool_test sync_storage_test
(cd build-ci-tsan && ctest --output-on-failure \
    -R '^(rt/(threaded_runtime_test|tcp_runtime_test|udp_runtime_test|mailbox_timer_test|crash_restart_test|mailbox_batch_test|link_layer_test)|runtime/live_scenario_test|crypto/verifier_pool_test|sync/storage_test)$')
# The verifier pool's shutdown race is timing-shaped: loop the Tsan binaries
# so the sanitizer sees many distinct stop()-vs-batch interleavings (and
# the mailbox batch-drain's four producers racing the swap, and a foreign
# thread's timer cancel racing pop_all()). shutdown() mid-run loops too: it
# closes mailboxes, dropping armed timers, while beats, FWD retries and
# checkpoint-writer jobs are in flight. The two link-settle cases loop too:
# a reset after stop() and injected datagram delays race the poll threads
# against the settle count.
for i in 1 2 3 4 5 6 7 8 9 10; do
  ./build-ci-tsan/crypto_verifier_pool_test >/dev/null
  ./build-ci-tsan/rt_mailbox_batch_test >/dev/null
  ./build-ci-tsan/rt_mailbox_timer_test >/dev/null
  ./build-ci-tsan/rt_tcp_runtime_test \
      --gtest_filter='TcpRuntime.ShutdownMidRunDropsArmedTimersAndReleasesEveryUnit' >/dev/null
  ./build-ci-tsan/rt_tcp_runtime_test \
      --gtest_filter='TcpRuntime.ConnectionKilledAfterStopStillSettlesExactly' >/dev/null
  ./build-ci-tsan/rt_udp_runtime_test \
      --gtest_filter='UdpRuntime.DelayedDatagramsSettleBeforeConvergenceSamples' >/dev/null
done
# One checkpoint crash point loops 24 times, each run under a timeout: crash()
# joins a writer blocked mid-store while the server thread keeps appending
# to the next epoch's log, and a run that hangs must fail, not stall CI.
for i in $(seq 24); do
  timeout 120 ./build-ci-tsan/rt_crash_restart_test \
      --gtest_filter='CrashRestart.CrashBeforeTheStoreLandsThenAgainFromTheChainedLog' >/dev/null
done

echo "==> CI OK"
