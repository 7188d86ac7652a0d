// The scenario driver on the real runtimes (runtime/scenario.h), tier-1
// slice: one pinned seed per backend runs its whole plan — crash churn on
// threads and TCP, the forger under real signatures, the wire-fault
// profile on UDP — with the engine's checkers on, mid-run and at the end,
// and the plan derivation is pinned to the plans `simctl replay` has
// always printed for those seeds. The wide sweeps are
// `simctl fuzz --runtime threads|tcp|udp`.
#include <gtest/gtest.h>

#include "runtime/scenario.h"

namespace blockdag {
namespace {

ScenarioConfig fuzz_config(ScenarioRuntime runtime, std::uint64_t seed,
                           SigScheme sig = SigScheme::kIdeal) {
  ScenarioConfig pinned;
  pinned.runtime = runtime;
  pinned.protocol = "mix";
  pinned.n_servers = 0;
  pinned.sig_scheme = sig;
  return scenario_for_seed(seed, pinned);
}

struct PinnedPlan {
  ScenarioRuntime runtime;
  SigScheme sig;
  std::uint64_t seed;
  const char* protocol;
  std::uint32_t n;
  const char* summary;
};

TEST(LiveScenario, DerivationMatchesPinnedPlans) {
  const PinnedPlan pinned[] = {
      {ScenarioRuntime::kUdp, SigScheme::kIdeal, 2, "fifo", 3,
       "---- wire-fault profile ----\n"
       "base: drop=0.219 reorder=0.226 dup=0.134 delay=1000..8000 us\n"
       "hostile link 0->1: drop=0.221\n"},
      {ScenarioRuntime::kUdp, SigScheme::kIdeal, 6, "bcb", 4,
       "---- wire-fault profile ----\n"
       "base: drop=0.182 reorder=0.027 dup=0.159 delay=0..0 us\n"
       "hostile link 2->1: drop=0.307\n"
       "hostile link 2->0: drop=0.373\n"
       "hostile link 0->1: drop=0.224\n"
       "partition: {3} | rest, middle third, healed before settle\n"},
      {ScenarioRuntime::kThreads, SigScheme::kIdeal, 1, "bcb", 3,
       "---- crash-churn plan ----\n"
       "checkpoint every 3 blocks, backend=loopback, sig=ideal\n"
       "kill server 0 at 42%, restart at 74%\n"},
      {ScenarioRuntime::kThreads, SigScheme::kIdeal, 2, "fifo", 3,
       "---- crash-churn plan ----\n"
       "checkpoint every 6 blocks, backend=loopback, sig=ideal\n"
       "kill server 0 at 35%, restart at 53%\n"},
      {ScenarioRuntime::kTcp, SigScheme::kIdeal, 1, "bcb", 3,
       "---- crash-churn plan ----\n"
       "checkpoint every 3 blocks, backend=tcp, sig=ideal\n"
       "kill server 0 at 42%, restart at 74%\n"},
      {ScenarioRuntime::kTcp, SigScheme::kIdeal, 4, "beacon", 3,
       "---- crash-churn plan ----\n"
       "checkpoint every 6 blocks, backend=tcp, sig=ideal\n"
       "kill server 1 at 21%, restart at 51%\n"},
      {ScenarioRuntime::kThreads, SigScheme::kWots, 5, "brb", 4,
       "---- crash-churn plan ----\n"
       "checkpoint every 4 blocks, backend=loopback, sig=wots\n"
       "forger adversary at server 3 (raw-hosted, rejected ring capped at 64)\n"
       "kill server 1 at 43%, restart at 61%\n"},
      {ScenarioRuntime::kThreads, SigScheme::kWots, 7, "fifo", 4,
       "---- crash-churn plan ----\n"
       "checkpoint every 8 blocks, backend=loopback, sig=wots\n"
       "forger adversary at server 3 (raw-hosted, rejected ring capped at 64)\n"
       "kill server 2 at 17%, restart at 37%\n"},
  };
  for (const PinnedPlan& p : pinned) {
    const ScenarioConfig cfg = fuzz_config(p.runtime, p.seed, p.sig);
    EXPECT_EQ(cfg.protocol, p.protocol) << "seed " << p.seed;
    EXPECT_EQ(cfg.n_servers, p.n) << "seed " << p.seed;
    const FaultPlan plan = derive_fault_plan(cfg);
    EXPECT_EQ(plan.summary(), p.summary)
        << scenario_runtime_name(p.runtime) << " seed " << p.seed;
    // The scheme never perturbs a UDP plan.
    if (p.runtime == ScenarioRuntime::kUdp) {
      ScenarioConfig other = cfg;
      other.sig_scheme = SigScheme::kWots;
      EXPECT_EQ(derive_fault_plan(other).summary(), plan.summary());
    }
  }
}

TEST(LiveScenario, PlansKeepALiveMajority) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (ScenarioRuntime runtime : {ScenarioRuntime::kThreads, ScenarioRuntime::kUdp}) {
      const ScenarioConfig cfg = fuzz_config(runtime, seed, SigScheme::kWots);
      const FaultPlan plan = derive_fault_plan(cfg);
      const std::size_t honest = cfg.n_servers - plan.byzantine.size();
      EXPECT_LT(2 * plan.churn.size(), honest) << "seed " << seed;
      for (const FaultPlan::Churn& ev : plan.churn) {
        EXPECT_FALSE(plan.byzantine.count(ev.server)) << "seed " << seed;
        EXPECT_LT(ev.crash_at, ev.recover_at) << "seed " << seed;
        EXPECT_LT(ev.recover_at, cfg.duration) << "seed " << seed;
        // No burst fires while a server is down or about to crash.
        for (const FaultPlan::Burst& burst : plan.bursts) {
          EXPECT_FALSE(burst.at + sim_ms(300) > ev.crash_at && burst.at < ev.recover_at)
              << "seed " << seed;
        }
      }
      if (plan.churn.size() == 2) {
        EXPECT_NE(plan.churn[0].server, plan.churn[1].server) << "seed " << seed;
      }
      for (const FaultPlan::HostileLink& link : plan.hostile_links) {
        EXPECT_NE(link.from, link.to) << "seed " << seed;
      }
      std::uint32_t issued = 0;
      for (const FaultPlan::Burst& burst : plan.bursts) issued += burst.count;
      EXPECT_EQ(issued, cfg.instances) << "seed " << seed;
    }
  }
}

TEST(LiveScenario, RejectsClustersBelowThree) {
  for (ScenarioRuntime runtime :
       {ScenarioRuntime::kThreads, ScenarioRuntime::kTcp, ScenarioRuntime::kUdp}) {
    ScenarioConfig cfg;
    cfg.runtime = runtime;
    for (std::uint32_t n : {1u, 2u}) {
      cfg.n_servers = n;
      EXPECT_FALSE(scenario_config_error(cfg).empty()) << "n=" << n;
      EXPECT_FALSE(run_scenario(cfg).ok()) << "n=" << n;
    }
    cfg.n_servers = 3;
    EXPECT_EQ(scenario_config_error(cfg), "");
  }
}

TEST(LiveScenario, ReproLinePinsEveryField) {
  const ScenarioConfig cfg = fuzz_config(ScenarioRuntime::kUdp, 7, SigScheme::kWots);
  EXPECT_EQ(repro_line(cfg),
            "simctl replay --runtime udp --seed 7 --protocol fifo --n 4 "
            "--instances 6 --duration-ns 1000000000 --sig wots");
  ScenarioConfig sim;
  sim.seed = 3;
  sim.duration = sim_ms(10);  // the simulator clamps to 1s
  EXPECT_EQ(repro_line(sim),
            "simctl replay --seed 3 --protocol brb --n 4 --instances 6 "
            "--duration-ns 1000000000");
}

struct PinnedRun {
  ScenarioRuntime runtime;
  SigScheme sig;
  std::uint64_t seed;
};

TEST(LiveScenario, PinnedSeedPerBackend) {
  const PinnedRun pinned[] = {
      {ScenarioRuntime::kThreads, SigScheme::kIdeal, 2},  // fifo, crash churn
      {ScenarioRuntime::kTcp, SigScheme::kIdeal, 1},      // bcb over sockets
      {ScenarioRuntime::kUdp, SigScheme::kIdeal, 3},      // pbft, partition
      {ScenarioRuntime::kThreads, SigScheme::kWots, 5},   // brb + forger
  };
  for (const PinnedRun& p : pinned) {
    ScenarioConfig cfg = fuzz_config(p.runtime, p.seed, p.sig);
    cfg.duration = sim_ms(500);
    const ScenarioResult result = run_scenario(cfg);
    const std::string where = repro_line(cfg);
    EXPECT_TRUE(result.ok()) << where << ": " << result.violations.front();
    EXPECT_TRUE(result.converged) << where;
    EXPECT_GT(result.deliveries, 0u) << where;
    EXPECT_EQ(result.labels_complete, cfg.instances) << where;
    // The mid-run safety check ran over a partial execution that already
    // had deliveries, not over empty logs, whenever the plan issued
    // requests before half time (churn plans this short move every burst
    // past the crash window).
    if (derive_fault_plan(cfg).bursts.front().at < cfg.duration / 4) {
      EXPECT_GT(result.mid_run_deliveries, 0u) << where;
    }
  }
}

}  // namespace
}  // namespace blockdag
