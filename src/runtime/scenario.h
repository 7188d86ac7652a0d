// Scenario engine: seeded adversarial executions with always-on property
// checking, one driver for every runtime (DESIGN.md §6).
//
// Every plan in this repository is a pure function of (configuration,
// seed) — DESIGN.md §2 — so FoundationDB-style seeded exploration comes
// almost for free: derive a randomized FaultPlan from the seed
// (runtime/faultplan.h) or take one written by hand (`simctl run`), walk
// its timed events on whichever runtime the config names — the simulator,
// or rt::ThreadedRuntime over loopback, TCP or UDP — and assert the
// paper's properties on the way:
//   * safety mid-run: at half the run the protocol checkers
//     (runtime/checkers.h) run with run_completed = false over the live
//     correct servers' indication logs, on every runtime;
//   * Theorem 5.1 at the end, with run_completed = true once the run has
//     quiesced;
//   * Lemma 3.7 joint-DAG convergence (identical vertex sets after the
//     convergence flush);
//   * Lemma 4.2 via interpretation digests: every block the witness holds
//     must be interpreted there, and carry a bit-identical digest_of at
//     every other correct server that holds it;
//   * Definition 3.3(i): no forged block is ever delivered;
//   * the backend's sanity counters (the injector fired, no frame stream
//     corrupted, a checkpoint was stored, every restarted server synced).
// A simulator run is replayable bit for bit (run_digest); a real-runtime
// run re-derives the same plan, over real threads, sockets and clock. A
// failing seed reproduces with `simctl replay --seed S …`.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "interpret/interpreter.h"
#include "protocol/protocol.h"
#include "runtime/faultplan.h"
#include "runtime/table.h"

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
  // Scenario indications the mid-run safety check saw.
  std::size_t mid_run_deliveries = 0;
  Bytes run_digest;  // digest of the whole execution (DAG + interpretation
                     // digests + indication logs); on the simulator equal
                     // digests ⇔ equal runs, pinning seed-replayability

  bool ok() const { return violations.empty(); }
};

// The one violation of a run whose real-runtime sockets did not bind.
inline constexpr std::string_view kBindFailure = "failed to bind sockets";
// The one violation of a cluster member whose durable state would not
// open or restore: it refuses to run half-restored.
inline constexpr std::string_view kRestoreFailure = "corrupt durable state";

// One server of a multi-process cluster (`simctl serve`/`join`): this
// process hosts `id` on 127.0.0.1:(base_port + id), and every other server
// runs the same plan in a process of its own.
struct ClusterMember {
  ServerId id = 0;
  std::uint16_t base_port = 0;
  // Where the server persists when the plan's epoch_blocks is non-zero.
  std::string data_dir;
};

// What `simctl run`, `serve` and `join` report beside the ScenarioResult,
// read after the final checks.
struct ScenarioReport {
  WireMetrics wire;                  // every class, all servers
  InterpreterStats interpretation;   // at the witness
  std::string audit;                 // the witness's DAG audit summary
  std::string dot;                   // the witness's DAG (Graphviz)
  // The backend's own counters, by name: signatures on the simulator; the
  // verifier pool, sockets and kBatch packing on the real runtimes.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<Table> tables;         // the UDP per-link table (DESIGN.md §9)
  // A member's own lines: its digests and, when durable, its recovery.
  std::vector<std::string> notes;
};

// The embeddable P named `protocol` (brb, bcb, fifo, pbft, beacon), or
// null for an unknown name.
const ProtocolFactory* factory_for(const std::string& protocol);

// Empty when `config` can run under its derived plan; otherwise why not:
// an unknown protocol, or fewer than 3 servers on a real runtime (the
// derived churn and partition plans keep a live majority, which needs
// n >= 3; a hand-written plan has no such floor).
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

// Runs one scenario on config.runtime to completion under `plan`, derived
// from the config (fuzz, replay) or written by hand (`simctl run`, `serve`,
// `join`); with a `report`, fills it too. On the simulator, equal inputs
// produce equal results (including run_digest).
//
// Bursts: instance i of [burst.first_instance, + count) is labelled
// kScenarioLabelBase + i. Over the cluster's live honest servers in
// ascending order, brb/bcb broadcast it from honest[i % |honest|], fifo
// streams 3 + i % 3 broadcasts from there, every honest server proposes
// the same pbft value, and the first f+1 honest servers contribute to a
// beacon.
//
// With a `member` (tcp or udp only), this process runs one server of a
// multi-process cluster: it requests only that server's share of each burst
// and checks only that server's indication log; convergence is a
// digest-beat exchange with the other members, bounded by plan.duration,
// and the run ends early once every instance was indicated here.
ScenarioResult run_scenario(const ScenarioConfig& config, const FaultPlan& plan,
                            ScenarioReport* report = nullptr,
                            const ClusterMember* member = nullptr);
// run_scenario(config, derive_fault_plan(config)), once
// scenario_config_error(config) is empty.
ScenarioResult run_scenario(const ScenarioConfig& config);

// JSON document describing the run: config, derived fault plan, result.
// Written by `simctl replay --trace`.
std::string scenario_trace_json(const ScenarioConfig& config,
                                const FaultPlan& plan,
                                const ScenarioResult& result);

}  // namespace blockdag
