// CLAIM-OFFLINE (DESIGN.md §4): "only applying the higher-level protocol
// logic off-line possibly later" (Section 1); interpretation is decoupled
// from networking (Section 4).
//
// Google-benchmark microbenchmarks of the interpreter: a pre-built block
// DAG (the artifact gossip would have produced) is interpreted from
// scratch, measuring blocks/s and materialized messages/s for varying DAG
// depth and instance counts. The steady-label cases start one new instance
// per round, as a server under constant load does, so per-block cost that
// grows with history shows up as a slower tail.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "crypto/signature.h"
#include "rt/threaded_runtime.h"

namespace {

using namespace blockdag;

// Builds a realistic DAG: `rounds` rounds of n servers, each block
// referencing all blocks of the previous round (its parent first). With
// `steady` false, `k_instances` broadcasts are inscribed in round 0; with
// `steady` true, round r carries one broadcast of a new label, inscribed by
// server r mod n.
BlockDag build_dag(std::uint32_t n, std::uint32_t rounds, std::uint32_t k_instances,
                   SignatureProvider& sigs, bool steady = false) {
  BlockDag dag;
  std::vector<Hash256> prev_round;
  std::vector<Hash256> cur_round;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    cur_round.clear();
    for (ServerId s = 0; s < n; ++s) {
      std::vector<Hash256> preds;
      if (r > 0) {
        preds.push_back(prev_round[s]);  // parent first
        for (ServerId o = 0; o < n; ++o) {
          if (o != s) preds.push_back(prev_round[o]);
        }
      }
      std::vector<LabeledRequest> rs;
      if (steady && s == r % n) {
        rs.push_back({1 + r, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(r)})});
      } else if (!steady && r == 0 && s == 0) {
        for (std::uint32_t i = 0; i < k_instances; ++i) {
          rs.push_back({1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)})});
        }
      }
      const Hash256 ref = Block::compute_ref(s, r, preds, rs);
      Bytes sigma = sigs.sign(s, ref.span());
      auto block = std::make_shared<const Block>(s, r, std::move(preds),
                                                 std::move(rs), std::move(sigma));
      cur_round.push_back(block->ref());
      dag.insert(std::move(block));
    }
    prev_round = cur_round;
  }
  return dag;
}

void BM_InterpretDag(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto rounds = static_cast<std::uint32_t>(state.range(1));
  const auto k = static_cast<std::uint32_t>(state.range(2));
  IdealSignatureProvider sigs(n, 1);
  const BlockDag dag = build_dag(n, rounds, k, sigs);
  brb::BrbFactory factory;

  std::uint64_t materialized = 0;
  for (auto _ : state) {
    Interpreter interp(dag, factory, n);
    benchmark::DoNotOptimize(interp.run());
    materialized = interp.stats().messages_materialized;
  }
  state.counters["blocks"] = static_cast<double>(dag.size());
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(dag.size() * state.iterations()), benchmark::Counter::kIsRate);
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(materialized * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpretDag)
    ->Args({4, 16, 1})
    ->Args({4, 16, 16})
    ->Args({4, 16, 128})
    ->Args({4, 64, 16})
    ->Args({10, 16, 16})
    ->Args({16, 16, 16})
    ->Unit(benchmark::kMillisecond);

// The eligibility check and state copy alone (no protocol work): an upper
// bound on pure traversal speed.
void BM_InterpretEmptyDag(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  IdealSignatureProvider sigs(n, 1);
  const BlockDag dag = build_dag(n, 64, 0, sigs);
  brb::BrbFactory factory;
  for (auto _ : state) {
    Interpreter interp(dag, factory, n);
    benchmark::DoNotOptimize(interp.run());
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(dag.size() * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpretEmptyDag)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// n = 4 steady labels over `rounds` rounds. Reports µs per block over the
// whole DAG and over its last 500 blocks; a flat cost model keeps the two
// close however long the history is.
void BM_InterpretSteadyLabels(benchmark::State& state) {
  constexpr std::uint32_t kN = 4;
  constexpr std::size_t kTail = 500;
  const auto rounds = static_cast<std::uint32_t>(state.range(0));
  IdealSignatureProvider sigs(kN, 1);
  const BlockDag full = build_dag(kN, rounds, 0, sigs, /*steady=*/true);
  const std::vector<BlockPtr>& order = full.topological_order();
  const std::size_t head = order.size() - kTail;
  brb::BrbFactory factory;

  using Clock = std::chrono::steady_clock;
  Clock::duration total{};
  Clock::duration tail{};
  // Held across iterations so the previous run's teardown happens while
  // timing is paused.
  std::unique_ptr<BlockDag> dag;
  std::unique_ptr<Interpreter> interp;
  for (auto _ : state) {
    state.PauseTiming();
    interp.reset();
    dag = std::make_unique<BlockDag>();
    for (std::size_t i = 0; i < head; ++i) dag->insert(order[i]);
    interp = std::make_unique<Interpreter>(*dag, factory, kN);
    state.ResumeTiming();
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(interp->run());
    const auto t1 = Clock::now();
    state.PauseTiming();
    for (std::size_t i = head; i < order.size(); ++i) dag->insert(order[i]);
    state.ResumeTiming();
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(interp->run());
    const auto t3 = Clock::now();
    total += (t1 - t0) + (t3 - t2);
    tail += t3 - t2;
  }
  const auto us_per_block = [&](Clock::duration d, std::size_t blocks) {
    return std::chrono::duration<double, std::micro>(d).count() /
           static_cast<double>(blocks * state.iterations());
  };
  state.counters["blocks"] = static_cast<double>(order.size());
  state.counters["us_per_block"] = us_per_block(total, order.size());
  state.counters["tail500_us_per_block"] = us_per_block(tail, kTail);
}
BENCHMARK(BM_InterpretSteadyLabels)
    ->Arg(175)
    ->Arg(700)
    ->Arg(1400)
    ->Unit(benchmark::kMillisecond);

// rt::interpretation_digest — the Lemma 4.2 digest over every block — on
// the 700-round steady-label DAG, taken once after interpretation on a fresh
// interpreter each iteration.
void BM_InterpretationDigest(benchmark::State& state) {
  constexpr std::uint32_t kN = 4;
  IdealSignatureProvider sigs(kN, 1);
  const BlockDag dag = build_dag(kN, 700, 0, sigs, /*steady=*/true);
  brb::BrbFactory factory;
  std::unique_ptr<Interpreter> interp;
  for (auto _ : state) {
    state.PauseTiming();
    interp.reset();  // teardown is not part of the digest
    interp = std::make_unique<Interpreter>(dag, factory, kN);
    interp->run();
    state.ResumeTiming();
    benchmark::DoNotOptimize(rt::interpretation_digest(*interp, dag));
  }
  state.counters["blocks"] = static_cast<double>(dag.size());
}
BENCHMARK(BM_InterpretationDigest)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
