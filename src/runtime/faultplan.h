// Randomized fault plans for the scenario engine (DESIGN.md §6).
//
// A FaultPlan is a *pure function* of a ScenarioConfig: the same
// (seed, n, protocol, duration, instances) always derives the same timed
// schedule of partitions, latency/drop regime switches, crash/recovery
// churn, byzantine assignments and client request bursts. That purity is
// what makes every fuzzed execution replayable from its one-line repro
// (`simctl replay --seed S …`).
//
// Every derived plan respects the invariants the property checkers assume
// (pinned by tests/e2e/scenario_test.cpp FaultPlanInvariants):
//   * at most f = ⌊(n-1)/3⌋ byzantine servers, kinds drawn from all six
//     ByzantineKinds; byzantine servers never crash;
//   * partitions always heal, by 0.9 × duration (Assumption 1: partitions
//     delay, never destroy);
//   * drop regimes keep a finite per-pair budget (transient loss only);
//   * request bursts finish by 0.4 × duration, crash windows start at
//     0.45 × duration — so a burst's requests are always disseminated
//     before their server can crash (the request buffer is not part of the
//     persisted snapshot; see DESIGN.md §6) — and every crashed server
//     recovers by 0.85 × duration, before the run quiesces;
//   * liveness-flavoured properties are therefore checkable with
//     run_completed = true at the end of every scenario.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/byzantine.h"
#include "shim/pacing.h"
#include "sim/network.h"

namespace blockdag {

// Where a scenario runs: the deterministic simulator (runtime/cluster.h)
// or rt::ThreadedRuntime over the loopback mailbox transport, real
// localhost TCP sockets, or real UDP datagrams with in-path fault
// injection (runtime/live_scenario.h).
enum class ScenarioRuntime { kSim, kThreads, kTcp, kUdp };

const char* scenario_runtime_name(ScenarioRuntime runtime);
std::optional<ScenarioRuntime> parse_scenario_runtime(std::string_view name);

struct ScenarioConfig {
  std::uint64_t seed = 0;
  std::uint32_t n_servers = 4;
  // One of: brb, bcb, fifo, pbft, beacon (ProtocolFactory names modulo
  // spelling; see runtime/scenario.cpp).
  std::string protocol = "brb";
  // The simulator clamps it to >= 1s (effective_duration); the real
  // runtimes take it as given, in wall-clock ns.
  SimTime duration = sim_sec(1);
  std::uint32_t instances = 6;    // parallel protocol instances (labels)
  bool allow_byzantine = true;
  bool allow_crashes = true;
  // Adds kForger to the byzantine-kind pool. Gated separately so plans for
  // pre-forger seeds stay byte-identical: flipping this changes every
  // RNG draw after the kind pool, i.e. it is a different fuzz grammar.
  bool allow_forger = false;
  // Signature scheme (ideal | hmac | wots). Scheme choice never affects
  // the derived plan — only the crypto the cluster runs under.
  SigScheme sig_scheme = SigScheme::kIdeal;
  ScenarioRuntime runtime = ScenarioRuntime::kSim;
};

struct FaultPlan {
  struct Partition {
    SimTime at;
    std::vector<ServerId> side_a;
    std::vector<ServerId> side_b;
    SimTime heal_at;
  };
  struct Regime {
    SimTime at;
    LatencyModel latency;
    double drop_probability;
    std::uint32_t max_drops_per_pair;  // cumulative budget (only ever grows)
  };
  struct Churn {
    ServerId server;
    SimTime crash_at;
    SimTime recover_at;
  };
  struct Burst {
    SimTime at;
    std::uint32_t first_instance;  // instances [first, first + count)
    std::uint32_t count;
  };

  std::map<ServerId, ByzantineKind> byzantine;
  std::vector<Partition> partitions;
  std::vector<Regime> regimes;
  std::vector<Churn> churn;  // at most one crash per server; windows of
                             // different servers may overlap
  std::vector<Burst> bursts;
  NetworkConfig initial_net;
  PacingConfig pacing;

  // Human-readable multi-line description (replay/trace output).
  std::string summary() const;
};

// Deterministically derives the plan from the config (see file comment).
FaultPlan derive_fault_plan(const ScenarioConfig& config);

// duration clamped to the minimum the plan invariants assume.
SimTime effective_duration(const ScenarioConfig& config);

}  // namespace blockdag
