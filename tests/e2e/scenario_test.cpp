// Scenario engine (DESIGN.md §6), tier-1 slice: a pinned seed set across
// all five embedded protocols runs the full randomized fault schedule —
// partitions, latency/drop regimes, crash/recovery churn, byzantine mixes,
// request bursts — with every checker on. The wide sweep lives in the
// `slow` ctest target tools/simctl_fuzz (seeds 0..200).
#include <gtest/gtest.h>

#include <set>

#include "runtime/scenario.h"

namespace blockdag {
namespace {

struct PinnedSeed {
  const char* protocol;
  std::uint64_t seed;
  std::uint32_t n;
};

TEST(Scenario, PinnedSeedSweep) {
  // Seeds 11 (bcb/10) and 24 (beacon/7) are the regressions that surfaced
  // while standing the engine up: persistent drop regimes starved the
  // post-quiesce convergence flush (Cluster::quiesce_and_converge) — keep
  // them pinned.
  const PinnedSeed pinned[] = {
      {"brb", 5, 4},     {"brb", 12, 7},   {"bcb", 1, 4},   {"bcb", 11, 10},
      {"fifo", 7, 4},    {"fifo", 22, 7},  {"pbft", 3, 4},  {"pbft", 33, 7},
      {"beacon", 24, 7}, {"beacon", 9, 4},
  };
  for (const PinnedSeed& p : pinned) {
    ScenarioConfig cfg;
    cfg.seed = p.seed;
    cfg.protocol = p.protocol;
    cfg.n_servers = p.n;
    const ScenarioResult result = run_scenario(cfg);
    EXPECT_TRUE(result.ok())
        << p.protocol << " seed " << p.seed << ": " << result.violations.front();
    EXPECT_TRUE(result.converged) << p.protocol << " seed " << p.seed;
    EXPECT_EQ(result.labels_complete, cfg.instances)
        << p.protocol << " seed " << p.seed;
    EXPECT_GT(result.blocks, 0u);
    EXPECT_GT(result.deliveries, 0u);
  }
}

TEST(Scenario, DeterministicReplay) {
  // The seed-replay contract: a scenario is a pure function of its config,
  // down to the run digest (DAG + interpretation digests + indication
  // logs). This is what makes a one-line fuzz repro exact.
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.protocol = "brb";
  cfg.n_servers = 7;
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_TRUE(a.ok()) << a.violations.front();
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.violations, b.violations);

  // A different seed is (overwhelmingly) a different execution.
  cfg.seed = 43;
  const ScenarioResult c = run_scenario(cfg);
  EXPECT_NE(a.run_digest, c.run_digest);
}

TEST(Scenario, UnknownProtocolIsAnError) {
  EXPECT_EQ(factory_for("paxos"), nullptr);
  ScenarioConfig cfg;
  cfg.protocol = "paxos";
  const ScenarioResult result = run_scenario(cfg);
  EXPECT_FALSE(result.ok());
}

TEST(FaultPlan, InvariantsAcrossSeeds) {
  // The checkers' soundness rests on every derived plan obeying the
  // invariants documented in faultplan.h; sweep them over many seeds and
  // sizes (a pure-function sweep — no simulation, so it is cheap).
  const std::uint32_t sizes[] = {4, 7, 10, 13};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.n_servers = sizes[seed % 4];
    const SimTime d = effective_duration(cfg);
    const FaultPlan plan = derive_fault_plan(cfg);

    // Determinism of the derivation itself.
    EXPECT_EQ(plan.summary(), derive_fault_plan(cfg).summary());

    EXPECT_LE(plan.byzantine.size(), max_faulty(cfg.n_servers)) << seed;
    EXPECT_GE(plan.pacing.interval, sim_ms(5));
    EXPECT_LE(plan.pacing.interval, sim_ms(12));

    std::set<ServerId> crashed;
    for (const auto& churn : plan.churn) {
      EXPECT_FALSE(plan.byzantine.count(churn.server)) << seed;
      EXPECT_TRUE(crashed.insert(churn.server).second) << seed;
      EXPECT_GE(churn.crash_at, (d * 45) / 100) << seed;
      EXPECT_GT(churn.recover_at, churn.crash_at) << seed;
      EXPECT_LE(churn.recover_at, (d * 85) / 100) << seed;
    }

    // Bursts cover every instance exactly once (they are sorted by time,
    // not by instance range).
    std::set<std::uint32_t> covered;
    for (const auto& burst : plan.bursts) {
      for (std::uint32_t i = 0; i < burst.count; ++i) {
        EXPECT_TRUE(covered.insert(burst.first_instance + i).second) << seed;
      }
      // Bursts finish (plus a few dissemination beats) before any crash
      // window opens: a burst's requests are always inscribed before their
      // target can crash, since the request buffer is not persisted.
      for (const auto& churn : plan.churn) {
        EXPECT_LT(burst.at + 3 * plan.pacing.interval, churn.crash_at) << seed;
      }
    }
    EXPECT_EQ(covered.size(), cfg.instances) << seed;
    if (!covered.empty()) {
      EXPECT_EQ(*covered.begin(), 0u) << seed;
      EXPECT_EQ(*covered.rbegin(), cfg.instances - 1) << seed;
    }

    for (const auto& partition : plan.partitions) {
      EXPECT_FALSE(partition.side_a.empty()) << seed;
      EXPECT_FALSE(partition.side_b.empty()) << seed;
      EXPECT_EQ(partition.side_a.size() + partition.side_b.size(), cfg.n_servers)
          << seed;
      EXPECT_GT(partition.heal_at, partition.at) << seed;
      EXPECT_LE(partition.heal_at, (d * 9) / 10) << seed;
    }

    for (const auto& regime : plan.regimes) {
      EXPECT_GE(regime.at, d / 10) << seed;
      EXPECT_LE(regime.at, (d * 8) / 10) << seed;
      EXPECT_GE(regime.max_drops_per_pair, 12u) << seed;
      EXPECT_LE(regime.drop_probability, 0.25) << seed;
    }
  }
}

TEST(Scenario, CrashChurnScenarioStaysCorrect) {
  // A seed whose plan actually crashes servers (pinning the crash-recovery
  // path end-to-end through the engine): derive plans until one has churn,
  // then run it.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.protocol = "brb";
    cfg.n_servers = 4;
    if (derive_fault_plan(cfg).churn.empty()) continue;
    const ScenarioResult result = run_scenario(cfg);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.violations.front();
    EXPECT_TRUE(result.converged);
    return;
  }
  FAIL() << "no seed below 64 derives a crash-churn plan";
}

}  // namespace
}  // namespace blockdag
