#include "runtime/scenario.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <numeric>
#include <queue>
#include <set>
#include <tuple>
#include <thread>

#include "crypto/sha256.h"
#include "dag/audit.h"
#include "dag/dot.h"
#include "protocols/bcb.h"
#include "protocols/brb.h"
#include "protocols/coin_beacon.h"
#include "protocols/fifo_brb.h"
#include "protocols/pbft_lite.h"
#include "runtime/bench_report.h"  // json_escape
#include "runtime/checkers.h"
#include "runtime/cluster.h"
#include "rt/threaded_runtime.h"
#include "sync/storage.h"
#include "util/hex.h"
#include "util/serialize.h"

namespace blockdag {

namespace {

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
using ScenarioRequestFn = std::function<void(ServerId, Label, Bytes)>;

// Every correct server's indication log (Shim::indications()), keyed by
// server; the keys are the correct set the checkers quantify over.
using IndicationLogs = std::map<ServerId, std::vector<UserIndication>>;

Bytes value_for(std::uint64_t seed, std::uint32_t instance, std::uint32_t part) {
  return Bytes{static_cast<std::uint8_t>(1 + (seed + instance * 37 + part * 101) % 251),
               static_cast<std::uint8_t>(1 + instance % 251),
               static_cast<std::uint8_t>(1 + part % 251)};
}

// Correct servers that indicated anything on `label`.
std::size_t indicated_at(const IndicationLogs& logs, Label label) {
  std::size_t count = 0;
  for (const auto& [server, log] : logs) {
    for (const UserIndication& ind : log) {
      if (ind.label == label) {
        ++count;
        break;
      }
    }
  }
  return count;
}

// The issuing rule of run_scenario (runtime/scenario.h) over the
// cluster's honest servers, ascending.
void issue_burst(const ScenarioConfig& config, const FaultPlan::Burst& burst,
                 const std::vector<ServerId>& honest,
                 const ScenarioRequestFn& request, Expectations& expect) {
  if (honest.empty()) return;
  for (std::uint32_t i = burst.first_instance;
       i < burst.first_instance + burst.count && i < config.instances; ++i) {
    const Label label = kScenarioLabelBase + i;
    expect.all_labels.push_back(label);
    if (config.protocol == "brb" || config.protocol == "bcb") {
      const ServerId target = honest[i % honest.size()];
      const Bytes value = value_for(config.seed, i, 0);
      expect.broadcasts.push_back({label, target, value});
      request(target, label,
                      config.protocol == "brb" ? brb::make_broadcast(value)
                                               : bcb::make_send(value));
    } else if (config.protocol == "fifo") {
      const ServerId origin = honest[i % honest.size()];
      Expectations::Stream stream{label, origin, {}};
      const std::uint32_t len = 3 + i % 3;
      for (std::uint32_t j = 0; j < len; ++j) {
        const Bytes value = value_for(config.seed, i, j);
        stream.values.push_back(value);
        request(origin, label, fifo::make_broadcast(value));
      }
      expect.streams.push_back(std::move(stream));
    } else if (config.protocol == "pbft") {
      // Every live honest server proposes the same value: any correct
      // leader the complaint path rotates to can then lead the slot.
      const Bytes value = value_for(config.seed, i, 0);
      expect.proposals.push_back({label, value, honest});
      for (ServerId s : honest) {
        request(s, label, pbft::make_propose(value));
      }
    } else if (config.protocol == "beacon") {
      // f+1 distinct contributors make the beacon fire (at least one of
      // them correct — here all of them are).
      const std::uint32_t needed = plausibility_quorum(config.n_servers);
      for (std::uint32_t c = 0; c < needed && c < honest.size(); ++c) {
        request(honest[c], label,
                        beacon::make_contribute(config.seed * 1000003 +
                                                i * 31 + c));
      }
      expect.beacon_labels.push_back(label);
    }
  }
}

std::vector<std::string> check_properties(const ScenarioConfig& config,
                                          const IndicationLogs& logs,
                                          const Expectations& expect,
                                          bool run_completed) {
  std::vector<ServerId> correct;
  for (const auto& [server, log] : logs) correct.push_back(server);
  std::vector<std::string> out;
  // Feeds every scenario indication to `record`, which parses and records
  // it and returns false if it does not parse.
  const auto scan = [&](auto&& record) {
    for (const auto& [s, log] : logs) {
      for (const UserIndication& ind : log) {
        if (ind.label < kScenarioLabelBase) continue;  // byzantine noise labels
        if (!record(s, ind)) {
          out.push_back("unparseable indication at server " + std::to_string(s) +
                        " label " + std::to_string(ind.label));
        }
      }
    }
  };
  const auto append = [&out](const std::vector<std::string>& violations) {
    out.insert(out.end(), violations.begin(), violations.end());
  };

  if (config.protocol == "brb" || config.protocol == "bcb") {
    BrbChecker checker;
    for (const auto& b : expect.broadcasts) {
      checker.expect_broadcast(b.label, b.broadcaster, b.value, true);
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto v = config.protocol == "brb" ? brb::parse_deliver(ind.indication)
                                              : bcb::parse_deliver(ind.indication);
      if (v) checker.record_delivery(s, ind.label, *v);
      return v.has_value();
    });
    append(checker.violations(correct, run_completed));
  } else if (config.protocol == "fifo") {
    FifoChecker checker;
    for (const auto& stream : expect.streams) {
      for (const Bytes& value : stream.values) {
        checker.expect_broadcast(stream.label, stream.origin, value, true);
      }
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto d = fifo::parse_deliver(ind.indication);
      if (d) checker.record_delivery(s, ind.label, d->origin, d->seq, d->value);
      return d.has_value();
    });
    append(checker.violations(correct, run_completed));
  } else if (config.protocol == "pbft") {
    ConsensusChecker checker;
    for (const auto& p : expect.proposals) {
      for (ServerId proposer : p.proposers) {
        checker.expect_proposal(p.label, proposer, p.value);
      }
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto v = pbft::parse_decide(ind.indication);
      if (v) checker.record_decision(s, ind.label, *v);
      return v.has_value();
    });
    append(checker.violations(correct, run_completed));
  } else if (config.protocol == "beacon") {
    // Agreement + no-double-emit via the consensus checker (a beacon value
    // is never "proposed", so its validity/termination clauses stay idle);
    // termination is checked directly below.
    ConsensusChecker checker;
    scan([&](ServerId s, const UserIndication& ind) {
      checker.record_decision(s, ind.label, ind.indication);
      return true;
    });
    append(checker.violations(correct, /*expect_termination=*/false));
    if (run_completed) {
      for (Label label : expect.beacon_labels) {
        if (indicated_at(logs, label) < correct.size()) {
          out.push_back("beacon termination violated at label " +
                        std::to_string(label));
        }
      }
    }
  }
  return out;
}

void count_indications(const IndicationLogs& logs, const Expectations& expect,
                       ScenarioResult& result) {
  for (const auto& [server, log] : logs) {
    for (const UserIndication& ind : log) {
      if (ind.label >= kScenarioLabelBase) ++result.deliveries;
    }
  }
  for (Label label : expect.all_labels) {
    if (indicated_at(logs, label) == logs.size()) ++result.labels_complete;
  }
}

// The one runtime interface the driver below runs on. SimTarget adapts
// Cluster, LiveTarget adapts rt::ThreadedRuntime and MemberTarget one
// server of a multi-process cluster; everything else about a scenario —
// the plan walk, the checks, the run digest — is shared.
class ScenarioTarget {
 public:
  virtual ~ScenarioTarget() = default;

  // The timeline: `action` runs at plan time `t` (ns after start()), in
  // (time, scheduling) order; run_until(t) returns once the runtime has
  // reached t.
  virtual void at(SimTime t, std::function<void()> action) = 0;
  virtual void start() = 0;
  virtual void run_until(SimTime t) = 0;

  virtual void request(ServerId server, Label label, Bytes request) = 0;
  virtual void crash(ServerId server) = 0;
  virtual bool restart(ServerId server) = 0;  // false: recovery failed
  virtual void partition(const FaultPlan::Partition& partition) = 0;

  // Stops dissemination and drives the runtime's quiesce_and_converge;
  // false if it did not converge.
  virtual bool quiesce() = 0;
  // One manual dissemination beat at every correct server, drained.
  virtual void tick_round() = 0;

  // The live, honest servers this target can read, ascending: what every
  // check quantifies over.
  virtual std::vector<ServerId> correct() = 0;
  // The cluster's live, honest servers, ascending: whom a burst's requests
  // go to. A cluster member reads only its own server, yet its bursts name
  // every server of the cluster.
  virtual std::vector<ServerId> honest() { return correct(); }
  // Runs `read` on a correct server's state, on the thread that owns it.
  virtual void inspect(ServerId server,
                       const std::function<void(const Shim&)>& read) = 0;
  // Every forger's invalidly-signed blocks, after quiesce().
  virtual std::vector<Hash256> forged_refs() = 0;
  // The backend's own sanity counters, after quiesce().
  virtual void check_sanity(std::vector<std::string>& violations) = 0;
  // The backend's wire traffic and own counters (ScenarioReport::wire,
  // ::counters, ::tables), after quiesce().
  virtual void report(ScenarioReport& report) = 0;
};

class SimTarget final : public ScenarioTarget {
 public:
  SimTarget(const ScenarioConfig& config, const FaultPlan& plan)
      : cluster_(*factory_for(config.protocol), cluster_config(config, plan)) {
    // The simulated network's own fault grammar, like the UDP profile a
    // LiveTarget installs.
    for (const auto& regime : plan.regimes) {
      cluster_.scheduler().at(regime.at, [this, &regime] {
        cluster_.network().set_latency_model(regime.latency);
        cluster_.network().set_drop_regime(regime.drop_probability,
                                           regime.max_drops_per_pair);
      });
    }
  }

  void at(SimTime t, std::function<void()> action) override {
    cluster_.scheduler().at(t, std::move(action));
  }
  void start() override { cluster_.start(); }
  void run_until(SimTime t) override { cluster_.run_until(t); }

  void request(ServerId server, Label label, Bytes request) override {
    cluster_.request(server, label, std::move(request));
  }
  void crash(ServerId server) override { cluster_.crash(server); }
  bool restart(ServerId server) override { return cluster_.restart(server); }
  void partition(const FaultPlan::Partition& p) override {
    cluster_.network().partition(p.side_a, p.side_b, p.heal_at);
  }

  bool quiesce() override { return cluster_.quiesce_and_converge(); }
  void tick_round() override {
    for (ServerId s : cluster_.correct_servers()) cluster_.shim(s).tick();
    cluster_.scheduler().run();
  }

  std::vector<ServerId> correct() override { return cluster_.correct_servers(); }
  void inspect(ServerId server,
               const std::function<void(const Shim&)>& read) override {
    read(cluster_.shim(server));
  }
  std::vector<Hash256> forged_refs() override {
    std::vector<Hash256> out;
    for (ServerId s = 0; s < cluster_.config().n_servers; ++s) {
      if (const ByzantineServer* byz = cluster_.byzantine(s)) {
        const std::vector<Hash256> refs = byz->forged_refs();
        out.insert(out.end(), refs.begin(), refs.end());
      }
    }
    return out;
  }
  void check_sanity(std::vector<std::string>&) override {}
  void report(ScenarioReport& report) override {
    report.wire = cluster_.network().metrics();
    const CryptoCounters& sigs = cluster_.signatures().counters();
    report.counters.push_back({"signatures.signs", sigs.signs});
    report.counters.push_back({"signatures.verifies", sigs.verifies});
  }

 private:
  static ClusterConfig cluster_config(const ScenarioConfig& config,
                                      const FaultPlan& plan) {
    ClusterConfig cfg;
    cfg.n_servers = config.n_servers;
    cfg.seed = config.seed;
    cfg.sig_scheme = config.sig_scheme;
    cfg.net = plan.initial_net;
    cfg.pacing = plan.pacing;
    cfg.byzantine = plan.byzantine;
    cfg.gossip.fwd_retry_delay = sim_ms(15);
    // Bound each FWD chase: an unlimited retry loop towards a permanently
    // missing ref (possible only under a regression or a byzantine dangle)
    // would spin the quiesce drain forever — a hang instead of a reported
    // violation. The chase re-arms with a fresh budget whenever a new block
    // references the still-missing pred, so legitimate crash-recovery
    // walk-backs are unaffected; a true dangle surfaces as a convergence
    // failure.
    cfg.gossip.max_fwd_retries = 128;
    return cfg;
  }

  Cluster cluster_;
};

// rt::ThreadedRuntime under a plan of the udp or crash-churn grammar, or a
// hand-written one. Its timeline is a wall-clock one: run_until() sleeps
// until each due event.
class LiveTarget : public ScenarioTarget {
 public:
  // The forger's beat: the cadence it has always flooded at here.
  static constexpr SimTime kForgerBeat = sim_ms(5);

  // With a `member`, the runtime hosts only member->id on fixed ports and
  // persists to member->data_dir (MemberTarget); otherwise it hosts every
  // server on ephemeral ports over in-memory sinks.
  LiveTarget(const ScenarioConfig& config, const FaultPlan& plan,
             const ClusterMember* member = nullptr)
      : wire_(plan.wire),
        member_(member != nullptr),
        stores_(plan.epoch_blocks != 0 && !member ? config.n_servers : 0),
        down_(config.n_servers, false),
        restarted_(config.n_servers, false) {
    const std::uint32_t n = config.n_servers;
    rt::ThreadedConfig cfg;
    cfg.n_servers = n;
    cfg.seed = config.seed;
    cfg.sig_scheme = config.sig_scheme;
    cfg.pacing = plan.pacing;
    if (config.runtime == ScenarioRuntime::kUdp) {
      // FWD retry matched to the loss regime: a 5ms retry against a lossy,
      // RTO-bound link just queues duplicate recovery payloads behind the
      // head-of-line chunk and starves the catch-up of a partitioned server.
      cfg.gossip.fwd_retry_delay = sim_ms(20);
      cfg.backend = rt::TransportBackend::kUdp;  // ephemeral ports
      cfg.udp.fault_seed = config.seed;
      cfg.udp.default_fault = plan.wire;
      cfg.udp.channel.initial_rto_ns = 5'000'000;
      cfg.udp.channel.max_rto_ns = 80'000'000;
    } else {
      cfg.gossip.fwd_retry_delay = sim_ms(5);
      if (config.runtime == ScenarioRuntime::kTcp) {
        cfg.backend = rt::TransportBackend::kTcp;  // ephemeral ports
      }
    }
    if (member) {
      // Fixed ports, a fault stream of its own per member, and the FWD
      // retry members have always used between processes.
      cfg.gossip.fwd_retry_delay = sim_ms(20);
      cfg.tcp.base_port = cfg.udp.base_port = member->base_port;
      cfg.tcp.local_servers = cfg.udp.local_servers = {member->id};
      cfg.udp.fault_seed += member->id;
    }
    if (plan.epoch_blocks != 0) {
      if (member) data_dir_.emplace(member->data_dir);
      cfg.storage = [this](ServerId s) -> sync::StorageSink* {
        if (data_dir_) return &*data_dir_;
        return &stores_[s];
      };
      cfg.checkpoint.epoch_blocks = plan.epoch_blocks;
      cfg.enable_state_sync = true;
      // Members keep their own, slower state-sync cadence.
      cfg.sync.progress_timeout = sim_ms(member ? 200 : 50);
      cfg.sync.retry_base = sim_ms(member ? 50 : 10);
    }
    // A data dir that will not open is refused before any socket binds.
    if (data_dir_ && !data_dir_->ok()) return;
    if (!plan.byzantine.empty()) {
      // At most one adversary, a forger (run_scenario checks).
      forger_id_ = plan.byzantine.begin()->first;
      cfg.raw_servers = {forger_id_};
      // Small rejected ring: the forger's re-floods (offsets 96.. from its
      // newest forgery) then land on refs already evicted from it, which is
      // exactly what makes verifier-pool verdict-cache hits assertable.
      cfg.gossip.rejected_capacity = 64;
    }
    runtime_ = std::make_unique<rt::ThreadedRuntime>(*factory_for(config.protocol), cfg);
    if (!runtime_->transport_ok()) return;
    for (const FaultPlan::HostileLink& link : plan.hostile_links) {
      runtime_->udp()->set_link_fault(link.from, link.to, link.fault);
    }
    if (!plan.byzantine.empty()) {
      forger_sigs_ = make_signature_provider(config.sig_scheme, n, config.seed);
      forger_ = make_byzantine(ByzantineKind::kForger, forger_id_,
                               runtime_->raw_timers(forger_id_),
                               runtime_->raw_transport(), *forger_sigs_,
                               config.seed ^ (0x1000 + forger_id_));
      ByzantineServer* raw = forger_.get();
      runtime_->raw_transport().attach(
          forger_id_,
          [raw](ServerId from, const Bytes& wire) { raw->on_network(from, wire); });
    }
  }

  // Why the target cannot run, or empty: its durable state would not open
  // or restore, or its sockets did not bind.
  std::string_view refusal() const {
    if (!runtime_ || !runtime_->restore_failures().empty()) return kRestoreFailure;
    return runtime_->transport_ok() ? std::string_view{} : kBindFailure;
  }

  void at(SimTime t, std::function<void()> action) override {
    timeline_.push({t, next_seq_++, std::move(action)});
  }
  void start() override {
    t0_ = std::chrono::steady_clock::now();
    runtime_->start();
    if (forger_) {
      next_beat_ = runtime_->raw_timers(forger_id_).now();
      runtime_->post(forger_id_, [this] { tick_forger(); });
    }
  }
  void run_until(SimTime t) override {
    while (!timeline_.empty() && timeline_.top().at <= t) {
      Event event = timeline_.top();
      timeline_.pop();
      std::this_thread::sleep_until(t0_ + std::chrono::nanoseconds(event.at));
      event.action();
    }
    wait_until(t0_ + std::chrono::nanoseconds(t));
  }

  void request(ServerId server, Label label, Bytes request) override {
    runtime_->request(server, label, std::move(request));
  }
  void crash(ServerId server) override {
    runtime_->crash(server);
    down_[server] = true;
  }
  bool restart(ServerId server) override {
    down_[server] = false;
    restarted_[server] = true;
    return runtime_->restart(server);
  }
  void partition(const FaultPlan::Partition& p) override {
    runtime_->udp()->set_partition(p.side_a, p.side_b, true);
    at(p.heal_at, [this, &p] {
      runtime_->udp()->set_partition(p.side_a, p.side_b, false);
    });
  }

  bool quiesce() override {
    if (forger_) stop_at_ = runtime_->raw_timers(forger_id_).now();
    // Deep settle budget: lossy links stay hostile through settle, so the
    // retransmit/FWD gap-closing can need many beats on a bad seed (with
    // ±RTO jitter on top); converged runs still exit on the early rounds.
    return runtime_->quiesce_and_converge(/*max_rounds=*/256);
  }
  void tick_round() override {
    for (ServerId s : correct()) {
      runtime_->call(s, [](Shim& shim) { shim.tick(); });
    }
    runtime_->wait_idle(std::chrono::seconds(10));
  }

  std::vector<ServerId> correct() override {
    std::vector<ServerId> out;
    for (ServerId s : runtime_->protocol_servers()) {
      if (!down_[s]) out.push_back(s);
    }
    return out;
  }
  void inspect(ServerId server,
               const std::function<void(const Shim&)>& read) override {
    runtime_->call(server, [&read](Shim& shim) { read(shim); });
  }
  std::vector<Hash256> forged_refs() override {
    // After quiesce() the forger's thread is idle, and wait_idle() ordered
    // its last task before this read.
    return forger_ ? forger_->forged_refs() : std::vector<Hash256>{};
  }

  void check_sanity(std::vector<std::string>& violations) override {
    if (runtime_->udp()) {
      const rt::UdpStats stats = runtime_->udp()->stats();
      // A cluster member's run may send too few datagrams for a profile to
      // fire: there only one expected to fire 20+ times must have.
      const auto expected = [this, &stats](double p) {
        return p > 0.01 &&
               (!member_ || p * static_cast<double>(stats.datagrams_sent) >= 20);
      };
      if (expected(wire_.drop) && stats.injected_drops == 0) {
        violations.push_back("drop profile never fired (injector no-op?)");
      }
      if (expected(wire_.duplicate) && stats.injected_dups == 0) {
        violations.push_back("duplicate profile never fired (injector no-op?)");
      }
      if (stats.corrupt_streams != 0) {
        violations.push_back("corrupt frame stream on a reliable channel");
      }
      if (stats.malformed_dropped != 0) {
        violations.push_back("malformed datagrams between honest endpoints");
      }
    }
    if (!stores_.empty()) {
      // The epochs really happened: someone checkpointed. Every restarted
      // server synced: the engine retries with backoff until it completes,
      // and its timers kept quiesce()'s wait_idle from returning before.
      std::uint64_t checkpoints = 0;
      for (ServerId s : runtime_->protocol_servers()) {
        const auto snap = runtime_->sync_snapshot(s);
        checkpoints += snap.checkpointer.checkpoints_stored;
        if (!restarted_[s]) continue;
        if (!snap.sync_completed) {
          violations.push_back("server " + std::to_string(s) +
                               " never completed state sync after restart");
        }
        if (snap.sync.completions == 0) {
          violations.push_back("server " + std::to_string(s) +
                               " reports zero sync completions after restart");
        }
      }
      if (checkpoints == 0) {
        violations.push_back("no checkpoint was ever stored (cadence no-op?)");
      }
    }
    if (forger_) {
      // The small rejected ring evicts under the flood, and the verifier
      // pool's verdict cache absorbs the re-floods of evicted refs.
      std::uint64_t evicted = 0;
      for (ServerId s : correct()) {
        inspect(s, [&](const Shim& shim) { evicted += shim.gossip().stats().rejected_evicted; });
      }
      if (evicted == 0) {
        violations.push_back("rejected ring never evicted under forger flood");
      }
      if (runtime_->verifier_stats().cache_hits == 0) {
        violations.push_back("verifier pool verdict cache never hit under "
                             "re-flooded forgeries");
      }
    }
  }

  void report(ScenarioReport& report) override {
    report.wire = runtime_->wire_metrics();
    auto& out = report.counters;
    const VerifierPoolStats pool = runtime_->verifier_stats();
    out.push_back({"verifier.submitted", pool.submitted});
    out.push_back({"verifier.verified", pool.verified});
    out.push_back({"verifier.batches", pool.batches});
    out.push_back({"verifier.cache_hits", pool.cache_hits});
    const auto batching = [&out](const std::string& backend, const rt::LinkLayerStats& s) {
      out.push_back({backend + ".frames_received", s.frames_received});
      out.push_back({backend + ".batches_sent", s.batches_sent});
      out.push_back({backend + ".batched_envelopes", s.batched_envelopes});
      out.push_back({backend + ".batches_received", s.batches_received});
      out.push_back({backend + ".batched_envelopes_received",
                     s.batched_envelopes_received});
    };
    if (runtime_->tcp()) {
      const rt::TcpStats tcp = runtime_->tcp()->stats();
      out.push_back({"tcp.connects", tcp.connects});
      out.push_back({"tcp.resets", tcp.resets});
      out.push_back({"tcp.frames_sent", tcp.frames_sent});
      out.push_back({"tcp.writev_calls", tcp.writev_calls});
      batching("tcp", tcp);
    }
    if (runtime_->udp()) {
      const rt::UdpStats udp = runtime_->udp()->stats();
      out.push_back({"udp.datagrams_sent", udp.datagrams_sent});
      out.push_back({"udp.datagrams_received", udp.datagrams_received});
      out.push_back({"udp.frames_sent", udp.frames_sent});
      out.push_back({"udp.retransmits", udp.retransmits});
      out.push_back({"udp.channel_resets", udp.channel_resets});
      out.push_back({"udp.duplicates_dropped", udp.duplicates_dropped});
      out.push_back({"udp.injected_drops", udp.injected_drops});
      out.push_back({"udp.injected_dups", udp.injected_dups});
      batching("udp", udp);
      // One row per directed link that carried traffic.
      Table links({"link", "datagrams", "chunks", "rexmit", "resets", "dedup",
                   "inj.drop", "inj.dup"});
      for (ServerId a = 0; a < runtime_->size(); ++a) {
        for (ServerId b = 0; b < runtime_->size(); ++b) {
          if (a == b) continue;
          const rt::UdpLinkStats link = runtime_->udp()->link_stats(a, b);
          if (link.datagrams_sent == 0 && link.chunks_delivered == 0) continue;
          links.add_row({std::to_string(a) + "->" + std::to_string(b),
                         Table::num(link.datagrams_sent),
                         Table::num(link.chunks_delivered),
                         Table::num(link.retransmits),
                         Table::num(link.channel_resets),
                         Table::num(link.duplicates_dropped),
                         Table::num(link.injected_drops),
                         Table::num(link.injected_dups)});
        }
      }
      report.tables.push_back(std::move(links));
    }
  }

 protected:
  // Waits out the run up to `deadline`.
  virtual void wait_until(std::chrono::steady_clock::time_point deadline) {
    std::this_thread::sleep_until(deadline);
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> action;
    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  // The forger's mischief beat, on its own thread and timer — the way
  // Cluster ticks a simulated adversary. One beat per kForgerBeat of
  // wall-clock until quiesce(): when the forger's thread falls behind (it
  // verifies every honest block it tracks), the missed beats run back to
  // back, so the flood depends on neither its backlog nor when it drains.
  void tick_forger() {
    TimerService& timers = runtime_->raw_timers(forger_id_);
    const SimTime now = timers.now();
    const SimTime stop_at = stop_at_;
    while (next_beat_ <= std::min(now, stop_at)) {
      forger_->tick();
      next_beat_ += kForgerBeat;
    }
    if (now < stop_at) {
      timers.schedule_after(next_beat_ - now, [this] { tick_forger(); });
    }
  }

  const rt::LinkFault wire_;
  const bool member_;  // hosts one server of a multi-process cluster
  // Declared before the runtime: the sinks are the durable state that
  // survives crash()/restart(), and the forger's wire handler and timer
  // run on its thread until the runtime's destructor joins it.
  std::vector<sync::MemStore> stores_;
  std::optional<sync::DataDir> data_dir_;  // a member's sink
  std::unique_ptr<SignatureProvider> forger_sigs_;
  std::unique_ptr<ByzantineServer> forger_;
  ServerId forger_id_ = 0;
  // The forger beats until quiesce() stamps this (runtime clock).
  std::atomic<SimTime> stop_at_{std::numeric_limits<SimTime>::max()};
  SimTime next_beat_ = 0;  // forger thread only, once started

 protected:
  std::unique_ptr<rt::ThreadedRuntime> runtime_;
  std::chrono::steady_clock::time_point t0_;

 private:
  std::vector<bool> down_;
  std::vector<bool> restarted_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> timeline_;
  std::uint64_t next_seq_ = 0;
};

// One server of a multi-process cluster (`simctl serve`/`join`, DESIGN.md
// §8): a LiveTarget hosting only member.id. Bursts see the whole cluster,
// but only the hosted server's requests leave this process; every check
// reads the hosted server alone. Three things differ from LiveTarget:
//   * run_until() ends early once every instance is indicated here, so the
//     plan's duration is a budget, not the run's length;
//   * quiesce() is a digest-beat exchange on the transport's control plane
//     (WireKind::kControl): block building stopped, this member beats its DAG and
//     interpretation digests (Lemmas 3.7 and 4.2) until every member
//     reports done with identical ones, or the budget runs out;
//   * request() drops requests for other members' servers, and the
//     instances a restored incarnation already delivered: its indication
//     log survived the crash, and a repeated fifo broadcast would be
//     delivered again.
// With a data dir the member restores from it on boot and state-syncs
// what the cluster built without it.
class MemberTarget final : public LiveTarget {
 public:
  MemberTarget(const ScenarioConfig& config, const FaultPlan& plan,
               const ClusterMember& member)
      : LiveTarget(config, plan, &member),
        id_(member.id),
        instances_(config.instances),
        duration_(plan.duration),
        durable_(plan.epoch_blocks != 0),
        peers_(config.n_servers) {
    if (!refusal().empty()) return;
    runtime_->set_control_handler(id_, [this](ServerId from, const Bytes& payload) {
      Reader r(payload);
      const auto version = r.u8();
      const auto dag = r.bytes();
      const auto interp = r.bytes();
      const auto done = r.u8();
      if (from >= peers_.size() || !version || *version != 1 || !dag || !interp ||
          !done || !r.done()) {
        return;
      }
      std::lock_guard<std::mutex> lock(peers_mu_);
      peers_[from] = Beat{*dag, *interp, *done != 0};
    });
  }
  // The control handler writes peers_ until the runtime's threads join.
  ~MemberTarget() override { if (runtime_) runtime_->shutdown(); }

  void start() override {
    LiveTarget::start();
    if (durable_) runtime_->start_sync(id_);
    for (Label label = kScenarioLabelBase; label < kScenarioLabelBase + instances_; ++label) {
      if (runtime_->indicated_count(label) != 0) delivered_.insert(label);
    }
  }
  void request(ServerId server, Label label, Bytes request) override {
    if (server == id_ && !delivered_.count(label)) {
      LiveTarget::request(server, label, std::move(request));
    }
  }
  std::vector<ServerId> honest() override {
    std::vector<ServerId> all(runtime_->size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  // Samples at least once, so that a repeated call after agreement (the
  // pbft nudge's) agrees again at once.
  bool quiesce() override {
    runtime_->stop();
    const auto deadline = t0_ + std::chrono::nanoseconds(duration_);
    do {
      Beat self;
      std::size_t pending = 0;
      std::tie(self.dag, self.interp, pending) =
          runtime_->call(id_, [gc = durable_](Shim& shim) {
            shim.interpreter().run();
            // Members GC on their own cadences: prune to the fixpoint so
            // that live sets of one joint DAG compare equal.
            if (gc) shim.collect_garbage();
            return std::make_tuple(rt::dag_digest(shim.dag()),
                                   rt::interpretation_digest(shim.interpreter(), shim.dag()),
                                   shim.gossip().pending_blocks());
          });
      stable_ = self.dag == last_.dag && self.interp == last_.interp ? stable_ + 1 : 0;
      self.done = all_indicated() && pending == 0 && stable_ >= 2;
      last_ = self;
      bool agreed = self.done;
      {
        std::lock_guard<std::mutex> lock(peers_mu_);
        for (ServerId s = 0; s < peers_.size(); ++s) {
          const Beat& peer = peers_[s];
          if (s != id_ && !(peer.done && peer.dag == self.dag && peer.interp == self.interp)) {
            agreed = false;
          }
        }
      }
      send_beat(self);
      if (agreed) {
        // Linger a few beats, so that members still sampling see agreement
        // before this process and its sockets go.
        for (int i = 0; i < 3; ++i) {
          std::this_thread::sleep_for(kBeat);
          send_beat(self);
        }
        return true;
      }
      std::this_thread::sleep_for(kBeat);
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  }

  void report(ScenarioReport& report) override {
    LiveTarget::report(report);
    report.notes.push_back("member " + std::to_string(id_) + ": dag=" +
                           to_hex(last_.dag).substr(0, 16) +
                           " interp=" + to_hex(last_.interp).substr(0, 16));
    if (!durable_) return;
    const auto r = runtime_->sync_snapshot(id_);
    report.notes.push_back(
        "recovery: restored=" + std::string(r.restore.restored ? "yes" : "no") +
        " (epoch " + std::to_string(r.restore.checkpoint_epoch) + ", " +
        std::to_string(r.restore.blocks_from_checkpoint) + " ckpt + " +
        std::to_string(r.restore.own_blocks_from_log + r.restore.recv_blocks_from_log) +
        " log blocks), " + std::to_string(r.checkpointer.checkpoints_stored) +
        " checkpoints stored, sync: " + std::to_string(r.sync.completions) +
        " completed / " + std::to_string(r.sync.blocks_added) + " blocks added");
  }

 private:
  static constexpr auto kBeat = std::chrono::milliseconds(50);

  struct Beat {
    Bytes dag, interp;
    bool done = false;
  };

  // Phase one of a member's run: it ends once every instance is
  // indicated here (or at `deadline`).
  void wait_until(std::chrono::steady_clock::time_point deadline) override {
    while (std::chrono::steady_clock::now() < deadline && !all_indicated()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  bool all_indicated() {
    for (Label label = kScenarioLabelBase; label < kScenarioLabelBase + instances_; ++label) {
      if (runtime_->indicated_count(label) == 0) return false;
    }
    return true;
  }

  void send_beat(const Beat& beat) {
    Writer w;
    w.u8(1);  // control-protocol version
    w.bytes(beat.dag);
    w.bytes(beat.interp);
    w.u8(beat.done ? 1 : 0);
    const Bytes bytes = std::move(w).take();
    for (ServerId s = 0; s < runtime_->size(); ++s) {
      if (s != id_) runtime_->raw_transport().send(id_, s, WireKind::kControl, bytes);
    }
  }

  const ServerId id_;
  const std::uint32_t instances_;
  const SimTime duration_;
  const bool durable_;
  std::set<Label> delivered_;  // by an earlier incarnation, at start()
  Beat last_;                  // this member's last sample
  int stable_ = 0;             // samples in a row that matched the one before
  std::mutex peers_mu_;
  std::vector<Beat> peers_;    // every member's latest beat
};

IndicationLogs correct_logs(ScenarioTarget& target) {
  IndicationLogs logs;
  for (ServerId s : target.correct()) {
    target.inspect(s, [&](const Shim& shim) { logs[s] = shim.indications(); });
  }
  return logs;
}

// PBFT liveness nudges: the paper externalizes timeouts as complain()
// requests inscribed in blocks (§7; protocols/pbft_lite.h). Fault plans can
// leave a slot leaderless (byzantine or crashed view leader), so after the
// run quiesces every correct server complains about still-undecided slots
// and a few manual dissemination rounds carry the view change; repeat until
// every slot decided or the leader rotation exhausted twice.
void nudge_pbft_liveness(ScenarioTarget& target, std::uint32_t n_servers,
                         const Expectations& expect) {
  const std::vector<ServerId> correct = target.correct();
  const auto undecided = [&](Label label) {
    return indicated_at(correct_logs(target), label) < correct.size();
  };
  const auto all_decided = [&] {
    for (Label label : expect.all_labels) {
      if (undecided(label)) return false;
    }
    return true;
  };
  const std::size_t max_waves = 2 * n_servers + 4;
  for (std::size_t wave = 0; wave < max_waves && !all_decided(); ++wave) {
    for (ServerId s : correct) {
      for (Label label : expect.all_labels) {
        if (undecided(label)) target.request(s, label, pbft::make_complain());
      }
    }
    // One round to inscribe the complaints, then a few to carry the new
    // view's PREPREPARE → PREPARE → COMMIT exchange.
    for (int tick = 0; tick < 5; ++tick) target.tick_round();
  }
}

}  // namespace

const ProtocolFactory* factory_for(const std::string& protocol) {
  static const brb::BrbFactory brb_factory;
  static const bcb::BcbFactory bcb_factory;
  static const fifo::FifoBrbFactory fifo_factory;
  static const pbft::PbftFactory pbft_factory;
  static const beacon::BeaconFactory beacon_factory;
  if (protocol == "brb") return &brb_factory;
  if (protocol == "bcb") return &bcb_factory;
  if (protocol == "fifo") return &fifo_factory;
  if (protocol == "pbft") return &pbft_factory;
  if (protocol == "beacon") return &beacon_factory;
  return nullptr;
}

std::string scenario_config_error(const ScenarioConfig& config) {
  if (!factory_for(config.protocol)) {
    return "unknown protocol '" + config.protocol + "'";
  }
  if (config.runtime != ScenarioRuntime::kSim && config.n_servers < 3) {
    return std::string("--runtime ") + scenario_runtime_name(config.runtime) +
           " needs --n 3 or more (churn and partitions keep a live majority)";
  }
  return {};
}

ScenarioConfig scenario_for_seed(std::uint64_t seed, ScenarioConfig pinned) {
  static const char* kProtocols[] = {"brb", "bcb", "fifo", "pbft", "beacon"};
  static const std::uint32_t kSimSizes[] = {4, 7, 10};
  static const std::uint32_t kLiveSizes[] = {3, 4, 5};
  ScenarioConfig cfg = std::move(pinned);
  cfg.seed = seed;
  if (cfg.protocol == "mix") cfg.protocol = kProtocols[seed % 5];
  if (cfg.n_servers == 0) {
    cfg.n_servers = cfg.runtime == ScenarioRuntime::kSim ? kSimSizes[(seed / 5) % 3]
                                                         : kLiveSizes[(seed / 5) % 3];
  }
  // Real signatures arm the forger: a new fuzz grammar (the kind pool
  // grows), so it is gated on --sig to keep ideal-scheme seeds replayable
  // against historical repro lines.
  cfg.allow_forger = cfg.sig_scheme != SigScheme::kIdeal;
  return cfg;
}

std::string repro_line(const ScenarioConfig& config) {
  std::string line = "simctl replay";
  if (config.runtime != ScenarioRuntime::kSim) {
    line += std::string(" --runtime ") + scenario_runtime_name(config.runtime);
  }
  // Integer nanoseconds, the native unit: a decimal-seconds double does
  // not survive the ns→s→ns round trip for every value, and every plan
  // time is derived from the duration, so a 1 ns slip would replay a
  // different scenario.
  line += " --seed " + std::to_string(config.seed) + " --protocol " +
          config.protocol + " --n " + std::to_string(config.n_servers) +
          " --instances " + std::to_string(config.instances) +
          " --duration-ns " + std::to_string(effective_duration(config));
  if (config.sig_scheme != SigScheme::kIdeal) {
    line += std::string(" --sig ") + sig_scheme_name(config.sig_scheme);
  }
  return line;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  if (std::string error = scenario_config_error(config); !error.empty()) {
    ScenarioResult result;
    result.violations.push_back(std::move(error));
    return result;
  }
  return run_scenario(config, derive_fault_plan(config));
}

ScenarioResult run_scenario(const ScenarioConfig& config, const FaultPlan& plan,
                            ScenarioReport* report, const ClusterMember* member) {
  ScenarioResult result;
  auto& violations = result.violations;
  if (!factory_for(config.protocol)) {
    violations.push_back("unknown protocol '" + config.protocol + "'");
    return result;
  }
  const bool sim = config.runtime == ScenarioRuntime::kSim;
  if (!sim && (plan.byzantine.size() > 1 ||
               (plan.byzantine.size() == 1 &&
                plan.byzantine.begin()->second != ByzantineKind::kForger))) {
    violations.push_back("a real runtime hosts at most one adversary, a forger");
    return result;
  }
  // The caller (simctl's parser) hosts a member on tcp or udp only.
  assert(!member || config.runtime == ScenarioRuntime::kTcp ||
         config.runtime == ScenarioRuntime::kUdp);
  std::unique_ptr<ScenarioTarget> target;
  if (sim) {
    target = std::make_unique<SimTarget>(config, plan);
  } else {
    auto live = member ? std::make_unique<MemberTarget>(config, plan, *member)
                       : std::make_unique<LiveTarget>(config, plan);
    if (const std::string_view refusal = live->refusal(); !refusal.empty()) {
      violations.emplace_back(refusal);
      return result;
    }
    target = std::move(live);
  }
  for (const auto& partition : plan.partitions) {
    target->at(partition.at, [&target, &partition] { target->partition(partition); });
  }
  for (const auto& churn : plan.churn) {
    target->at(churn.crash_at, [&target, &churn] { target->crash(churn.server); });
    target->at(churn.recover_at, [&target, &churn, &violations] {
      if (!target->restart(churn.server)) {
        violations.push_back("recovery failed for server " +
                             std::to_string(churn.server));
      }
    });
  }
  Expectations expect;
  const ScenarioRequestFn request = [&target](ServerId s, Label label, Bytes bytes) {
    target->request(s, label, std::move(bytes));
  };
  for (const auto& burst : plan.bursts) {
    // Every plan fires a burst only when every honest server is live.
    target->at(burst.at, [&config, &burst, &target, &request, &expect] {
      issue_burst(config, burst, target->honest(), request, expect);
    });
  }

  target->start();

  // Mid-run point: safety properties must already hold on the partial
  // execution (no waiting on "eventually").
  target->run_until(plan.duration / 2);
  const IndicationLogs mid_run = correct_logs(*target);
  for (const auto& violation :
       check_properties(config, mid_run, expect, /*run_completed=*/false)) {
    violations.push_back("mid-run: " + violation);
  }
  ScenarioResult mid_run_counts;
  count_indications(mid_run, expect, mid_run_counts);
  result.mid_run_deliveries = mid_run_counts.deliveries;

  target->run_until(plan.duration);
  result.converged = target->quiesce();
  if (config.protocol == "pbft") {
    nudge_pbft_liveness(*target, config.n_servers, expect);
    result.converged = target->quiesce();
  }
  if (!result.converged) {
    violations.push_back("joint-DAG convergence failed (Lemma 3.7)");
  }

  const IndicationLogs logs = correct_logs(*target);
  const auto final_violations =
      check_properties(config, logs, expect, /*run_completed=*/true);
  violations.insert(violations.end(), final_violations.begin(),
                    final_violations.end());

  // Every correct server's blocks with their digest_of (nullopt while
  // uninterpreted), for the Lemma 4.2 and forgery checks; the witness's in
  // topological order.
  const std::vector<ServerId> correct = target->correct();
  std::map<ServerId, std::map<Hash256, std::optional<Bytes>>> held;
  std::vector<std::pair<Hash256, std::optional<Bytes>>> witness_blocks;
  std::uint64_t rejected = 0;
  for (ServerId s : correct) {
    target->inspect(s, [&](const Shim& shim) {
      for (const BlockPtr& block : shim.dag().topological_order()) {
        std::optional<Bytes> digest;
        if (shim.interpreter().is_interpreted(block->ref())) {
          digest = shim.interpreter().digest_of(block->ref());
        }
        if (s == correct.front()) witness_blocks.emplace_back(block->ref(), digest);
        held[s].emplace(block->ref(), std::move(digest));
      }
      rejected += shim.gossip().stats().blocks_rejected;
    });
  }

  // Definition 3.3(i): an invalidly-signed block is never delivered. Every
  // forged ref must be absent from every correct server's DAG, and the
  // rejections must actually show up in the gossip stats — a run where the
  // forger fired but nothing was rejected means the blocks never reached
  // anyone (a broken adversary), which must fail loudly rather than
  // vacuously pass.
  const bool forger_present =
      std::any_of(plan.byzantine.begin(), plan.byzantine.end(), [](const auto& kv) {
        return kv.second == ByzantineKind::kForger;
      });
  if (forger_present) {
    const std::vector<Hash256> forged = target->forged_refs();
    if (forged.empty()) violations.push_back("forger never fired (adversary no-op?)");
    for (const Hash256& ref : forged) {
      for (ServerId s : correct) {
        if (held[s].count(ref)) {
          violations.push_back("forged block " + ref.short_hex() +
                               " delivered at server " + std::to_string(s));
        }
      }
    }
    if (rejected == 0) {
      violations.push_back("forger present but no correct server rejected a block");
    }
  }
  target->check_sanity(violations);

  // Lemma 4.2 digests: every block two correct servers share must carry
  // bit-identical interpretation state; after convergence that is every
  // block of the joint DAG.
  const ServerId witness = correct.front();
  result.blocks = witness_blocks.size();
  Sha256 run_hash;
  for (const auto& [ref, digest] : witness_blocks) {
    if (!digest) {
      violations.push_back("uninterpreted block at witness: " + ref.short_hex());
      continue;
    }
    run_hash.update(ref.span());
    run_hash.update(*digest);
    for (ServerId s : correct) {
      if (s == witness) continue;
      const auto it = held[s].find(ref);
      if (it == held[s].end()) continue;
      if (it->second != digest) {
        violations.push_back("digest divergence (Lemma 4.2) at block " +
                             ref.short_hex() + " between servers " +
                             std::to_string(witness) + " and " + std::to_string(s));
      }
    }
  }

  for (const auto& [s, indications] : logs) {
    Writer log;
    log.u32(s);
    for (const UserIndication& ind : indications) {
      if (ind.label < kScenarioLabelBase) continue;
      log.u64(ind.label);
      log.bytes(ind.indication);
    }
    run_hash.update(log.data());
  }
  count_indications(logs, expect, result);
  const Sha256::Digest digest = run_hash.finalize();
  result.run_digest.assign(digest.begin(), digest.end());

  if (report) {
    target->inspect(witness, [report](const Shim& shim) {
      report->interpretation = shim.interpreter().stats();
      report->audit = audit(shim.dag()).summary();
      report->dot = to_dot(shim.dag());
    });
    target->report(*report);
  }
  return result;
}

std::string scenario_trace_json(const ScenarioConfig& config,
                                const FaultPlan& plan,
                                const ScenarioResult& result) {
  std::string out = "{\n  \"schema\": 1,\n  \"config\": {";
  out += "\"runtime\": \"" + std::string(scenario_runtime_name(config.runtime)) + "\"";
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"n\": " + std::to_string(config.n_servers);
  out += ", \"protocol\": \"" + json_escape(config.protocol) + "\"";
  out += ", \"duration_ms\": " +
         std::to_string(effective_duration(config) / 1'000'000);
  out += ", \"instances\": " + std::to_string(config.instances);
  out += "},\n  \"plan\": \"" + json_escape(plan.summary()) + "\",\n";
  out += "  \"result\": {";
  out += "\"ok\": " + std::string(result.ok() ? "true" : "false");
  out += ", \"converged\": " + std::string(result.converged ? "true" : "false");
  out += ", \"blocks\": " + std::to_string(result.blocks);
  out += ", \"deliveries\": " + std::to_string(result.deliveries);
  out += ", \"labels_complete\": " + std::to_string(result.labels_complete);
  out += ", \"run_digest\": \"" +
         to_hex(std::span(result.run_digest.data(), result.run_digest.size())) +
         "\"";
  out += ", \"violations\": [";
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(result.violations[i]) + "\"";
  }
  out += "]}\n}\n";
  return out;
}

}  // namespace blockdag
