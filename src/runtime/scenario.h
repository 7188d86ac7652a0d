// Scenario engine: seeded adversarial executions with always-on property
// checking (DESIGN.md §6).
//
// Every run in this repository is a pure function of (configuration, seed)
// — DESIGN.md §2 — so FoundationDB-style seeded exploration comes almost
// for free: derive a randomized FaultPlan from the seed, drive a Cluster
// through it, and assert the paper's properties on the way out:
//   * Theorem 5.1 via the protocol checkers (runtime/checkers.h) with
//     run_completed = true once the run has quiesced;
//   * Lemma 3.7 joint-DAG convergence (identical vertex sets after the
//     convergence flush);
//   * Lemma 4.2 via interpretation digests: every block present at two
//     correct servers must carry bit-identical interpretation state.
// A failing seed reproduces exactly with `simctl replay --seed S …`.
//
// The request bursts, the expectations they leave and the property check
// below are shared with run_live_scenario (runtime/live_scenario.h):
// they see servers only through a request callable and indication logs.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "protocol/protocol.h"
#include "runtime/faultplan.h"
#include "shim/shim.h"

namespace blockdag {

// Scenario instances live on labels kScenarioLabelBase + i, clear of the
// low labels byzantine behaviours inscribe garbage requests on.
inline constexpr Label kScenarioLabelBase = 100;

struct ScenarioResult {
  // Checker violations, digest divergences, convergence/termination
  // failures. Empty ⇔ the scenario passed.
  std::vector<std::string> violations;
  bool converged = false;       // Lemma 3.7: identical DAGs after the flush
  std::size_t blocks = 0;       // joint-DAG size at the witness server
  std::size_t deliveries = 0;   // user indications across correct servers
  std::size_t labels_complete = 0;  // instances indicated at every correct server
  Bytes run_digest;  // deterministic digest of the whole execution (DAG +
                     // interpretation digests + indication logs); equal
                     // digests ⇔ equal runs, pinning seed-replayability

  bool ok() const { return violations.empty(); }
};

// The embeddable P named `protocol` (brb, bcb, fifo, pbft, beacon), or
// null for an unknown name.
const ProtocolFactory* factory_for(const std::string& protocol);

// Empty when `config` can run; otherwise why not: an unknown protocol, or
// fewer than 3 servers on a real runtime (the churn and partition plans
// keep a live majority, which needs n >= 3).
std::string scenario_config_error(const ScenarioConfig& config);

// The fuzz derivation for one seed. `pinned` carries the sweep's options;
// protocol "mix" rotates the protocol per seed and n_servers == 0 rotates
// the cluster size ({4, 7, 10} on the simulator, {3, 4, 5} on the real
// runtimes, which run one OS thread per server). A real signature scheme
// arms the forger (allow_forger).
ScenarioConfig scenario_for_seed(std::uint64_t seed, ScenarioConfig pinned);

// The one-line `simctl replay …` that re-runs `config`. It pins every
// field, so replay stays exact even if the rotations above change.
std::string repro_line(const ScenarioConfig& config);

// What the bursts promised, for the property checkers.
struct Expectations {
  struct Broadcast {  // brb / bcb
    Label label;
    ServerId broadcaster;
    Bytes value;
  };
  struct Stream {  // fifo
    Label label;
    ServerId origin;
    std::vector<Bytes> values;
  };
  struct Proposal {  // pbft: same value proposed by every live correct server
    Label label;
    Bytes value;
    std::vector<ServerId> proposers;
  };
  std::vector<Broadcast> broadcasts;
  std::vector<Stream> streams;
  std::vector<Proposal> proposals;
  std::vector<Label> beacon_labels;
  std::vector<Label> all_labels;
};

// request(ℓ, r) at one server of whichever runtime runs the scenario.
using RequestFn = std::function<void(ServerId, Label, Bytes)>;

// Issues the requests of one burst through `request`, spread over the
// `correct` servers (all live when the burst fires), and records what they
// promise in `expect`.
void issue_burst(const ScenarioConfig& config, const FaultPlan::Burst& burst,
                 const std::vector<ServerId>& correct, const RequestFn& request,
                 Expectations& expect);

// Every correct server's indication log (Shim::indications()), keyed by
// server; the keys are the correct set the checkers quantify over.
using IndicationLogs = std::map<ServerId, std::vector<UserIndication>>;

// Evaluates the protocol's properties over everything delivered so far.
// With run_completed = false only safety is checked (the run may be mid-
// partition or mid-crash); with true, liveness too (the run has quiesced).
std::vector<std::string> check_properties(const ScenarioConfig& config,
                                          const IndicationLogs& logs,
                                          const Expectations& expect,
                                          bool run_completed);

// Fills `deliveries` and `labels_complete` from the final logs.
void count_indications(const IndicationLogs& logs, const Expectations& expect,
                       ScenarioResult& result);

// Runs one simulator scenario to completion. Deterministic: equal configs
// produce equal results (including run_digest).
ScenarioResult run_scenario(const ScenarioConfig& config);

// JSON document describing the run: config, derived fault plan, result.
// Written by `simctl replay --trace`.
std::string scenario_trace_json(const ScenarioConfig& config,
                                const FaultPlan& plan,
                                const ScenarioResult& result);

}  // namespace blockdag
