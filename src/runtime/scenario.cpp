#include "runtime/scenario.h"

#include "crypto/sha256.h"
#include "protocols/bcb.h"
#include "protocols/brb.h"
#include "protocols/coin_beacon.h"
#include "protocols/fifo_brb.h"
#include "protocols/pbft_lite.h"
#include "runtime/bench_report.h"  // json_escape
#include "runtime/checkers.h"
#include "runtime/cluster.h"
#include "util/hex.h"
#include "util/serialize.h"

namespace blockdag {

namespace {

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

IndicationLogs correct_logs(const Cluster& cluster) {
  IndicationLogs logs;
  for (ServerId s : cluster.correct_servers()) {
    logs[s] = cluster.shim(s).indications();
  }
  return logs;
}

// PBFT liveness nudges: the paper externalizes timeouts as complain()
// requests inscribed in blocks (§7; protocols/pbft_lite.h). Fault plans can
// leave a slot leaderless (byzantine or crashed view leader), so after the
// run quiesces every correct server complains about still-undecided slots
// and a few manual dissemination rounds carry the view change; repeat until
// every slot decided or the leader rotation exhausted twice.
void nudge_pbft_liveness(Cluster& cluster, const Expectations& expect) {
  const auto all_decided = [&] {
    for (Label label : expect.all_labels) {
      if (cluster.indicated_count(label) < cluster.n_correct()) return false;
    }
    return true;
  };
  const std::size_t max_waves = 2 * cluster.config().n_servers + 4;
  for (std::size_t wave = 0; wave < max_waves && !all_decided(); ++wave) {
    for (ServerId s : cluster.correct_servers()) {
      for (Label label : expect.all_labels) {
        if (cluster.indicated_count(label) < cluster.n_correct()) {
          cluster.request(s, label, pbft::make_complain());
        }
      }
    }
    // One round to inscribe the complaints, then a few to carry the new
    // view's PREPREPARE → PREPARE → COMMIT exchange.
    for (int tick = 0; tick < 5; ++tick) {
      for (ServerId s : cluster.correct_servers()) cluster.shim(s).tick();
      cluster.scheduler().run();
    }
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
  const SimTime duration = config.runtime == ScenarioRuntime::kSim
                               ? effective_duration(config)
                               : config.duration;
  line += " --seed " + std::to_string(config.seed) + " --protocol " +
          config.protocol + " --n " + std::to_string(config.n_servers) +
          " --instances " + std::to_string(config.instances) +
          " --duration-ns " + std::to_string(duration);
  if (config.sig_scheme != SigScheme::kIdeal) {
    line += std::string(" --sig ") + sig_scheme_name(config.sig_scheme);
  }
  return line;
}

void issue_burst(const ScenarioConfig& config, const FaultPlan::Burst& burst,
                 const std::vector<ServerId>& correct, const RequestFn& request,
                 Expectations& expect) {
  if (correct.empty()) return;
  for (std::uint32_t i = burst.first_instance;
       i < burst.first_instance + burst.count && i < config.instances; ++i) {
    const Label label = kScenarioLabelBase + i;
    expect.all_labels.push_back(label);
    if (config.protocol == "brb" || config.protocol == "bcb") {
      const ServerId target = correct[i % correct.size()];
      const Bytes value = value_for(config.seed, i, 0);
      expect.broadcasts.push_back({label, target, value});
      request(target, label,
                      config.protocol == "brb" ? brb::make_broadcast(value)
                                               : bcb::make_send(value));
    } else if (config.protocol == "fifo") {
      const ServerId origin = correct[i % correct.size()];
      Expectations::Stream stream{label, origin, {}};
      const std::uint32_t len = 3 + i % 3;
      for (std::uint32_t j = 0; j < len; ++j) {
        const Bytes value = value_for(config.seed, i, j);
        stream.values.push_back(value);
        request(origin, label, fifo::make_broadcast(value));
      }
      expect.streams.push_back(std::move(stream));
    } else if (config.protocol == "pbft") {
      // Every live correct server proposes the same value: any correct
      // leader the complaint path rotates to can then lead the slot.
      const Bytes value = value_for(config.seed, i, 0);
      expect.proposals.push_back({label, value, correct});
      for (ServerId s : correct) {
        request(s, label, pbft::make_propose(value));
      }
    } else if (config.protocol == "beacon") {
      // f+1 distinct contributors make the beacon fire (at least one of
      // them correct — here all of them are).
      const std::uint32_t needed = plausibility_quorum(config.n_servers);
      for (std::uint32_t c = 0; c < needed && c < correct.size(); ++c) {
        request(correct[c], label,
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
  const auto scan = [&](auto&& record) {
    for (const auto& [s, log] : logs) {
      for (const UserIndication& ind : log) {
        if (ind.label < kScenarioLabelBase) continue;  // byzantine noise labels
        record(s, ind);
      }
    }
  };

  if (config.protocol == "brb" || config.protocol == "bcb") {
    BrbChecker checker;
    for (const auto& b : expect.broadcasts) {
      checker.expect_broadcast(b.label, b.broadcaster, b.value, true);
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto v = config.protocol == "brb" ? brb::parse_deliver(ind.indication)
                                              : bcb::parse_deliver(ind.indication);
      if (!v) {
        out.push_back("unparseable indication at server " + std::to_string(s) +
                      " label " + std::to_string(ind.label));
        return;
      }
      checker.record_delivery(s, ind.label, *v);
    });
    const auto v = checker.violations(correct, run_completed);
    out.insert(out.end(), v.begin(), v.end());
  } else if (config.protocol == "fifo") {
    FifoChecker checker;
    for (const auto& stream : expect.streams) {
      for (const Bytes& value : stream.values) {
        checker.expect_broadcast(stream.label, stream.origin, value, true);
      }
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto d = fifo::parse_deliver(ind.indication);
      if (!d) {
        out.push_back("unparseable indication at server " + std::to_string(s) +
                      " label " + std::to_string(ind.label));
        return;
      }
      checker.record_delivery(s, ind.label, d->origin, d->seq, d->value);
    });
    const auto v = checker.violations(correct, run_completed);
    out.insert(out.end(), v.begin(), v.end());
  } else if (config.protocol == "pbft") {
    ConsensusChecker checker;
    for (const auto& p : expect.proposals) {
      for (ServerId proposer : p.proposers) {
        checker.expect_proposal(p.label, proposer, p.value);
      }
    }
    scan([&](ServerId s, const UserIndication& ind) {
      const auto v = pbft::parse_decide(ind.indication);
      if (!v) {
        out.push_back("unparseable indication at server " + std::to_string(s) +
                      " label " + std::to_string(ind.label));
        return;
      }
      checker.record_decision(s, ind.label, *v);
    });
    const auto v = checker.violations(correct, run_completed);
    out.insert(out.end(), v.begin(), v.end());
  } else if (config.protocol == "beacon") {
    // Agreement + no-double-emit via the consensus checker (a beacon value
    // is never "proposed", so its validity/termination clauses stay idle);
    // termination is checked directly below.
    ConsensusChecker checker;
    scan([&](ServerId s, const UserIndication& ind) {
      checker.record_decision(s, ind.label, ind.indication);
    });
    const auto v = checker.violations(correct, /*expect_termination=*/false);
    out.insert(out.end(), v.begin(), v.end());
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

ScenarioResult run_scenario(const ScenarioConfig& config) {
  ScenarioResult result;
  if (std::string error = scenario_config_error(config); !error.empty()) {
    result.violations.push_back(std::move(error));
    return result;
  }
  const FaultPlan plan = derive_fault_plan(config);
  const SimTime duration = effective_duration(config);

  ClusterConfig cluster_config;
  cluster_config.n_servers = config.n_servers;
  cluster_config.seed = config.seed;
  cluster_config.sig_scheme = config.sig_scheme;
  cluster_config.net = plan.initial_net;
  cluster_config.pacing = plan.pacing;
  cluster_config.byzantine = plan.byzantine;
  cluster_config.gossip.fwd_retry_delay = sim_ms(15);
  // Bound each FWD chase: an unlimited retry loop towards a permanently
  // missing ref (possible only under a regression or a byzantine dangle)
  // would spin the quiesce drain forever — a hang instead of a reported
  // violation. The chase re-arms with a fresh budget whenever a new block
  // references the still-missing pred, so legitimate crash-recovery
  // walk-backs are unaffected; a true dangle surfaces as a convergence
  // failure.
  cluster_config.gossip.max_fwd_retries = 128;

  Expectations expect;
  std::map<ServerId, Bytes> snapshots;
  Cluster cluster(*factory_for(config.protocol), cluster_config);
  Scheduler& sched = cluster.scheduler();

  for (const auto& partition : plan.partitions) {
    sched.at(partition.at, [&cluster, &partition] {
      cluster.network().partition(partition.side_a, partition.side_b,
                                  partition.heal_at);
    });
  }
  for (const auto& regime : plan.regimes) {
    sched.at(regime.at, [&cluster, &regime] {
      cluster.network().set_latency_model(regime.latency);
      cluster.network().set_drop_regime(regime.drop_probability,
                                        regime.max_drops_per_pair);
    });
  }
  for (const auto& churn : plan.churn) {
    sched.at(churn.crash_at, [&cluster, &snapshots, &churn] {
      if (!cluster.is_correct(churn.server)) return;
      snapshots[churn.server] = cluster.snapshot_of(churn.server);
      cluster.crash(churn.server);
    });
    sched.at(churn.recover_at, [&cluster, &snapshots, &churn, &result] {
      const auto it = snapshots.find(churn.server);
      if (it == snapshots.end()) return;
      if (!cluster.recover(churn.server, it->second)) {
        result.violations.push_back("recovery failed for server " +
                                    std::to_string(churn.server));
      }
    });
  }
  for (const auto& burst : plan.bursts) {
    // Bursts fire when every non-byzantine server is live (they end before
    // crash windows open — see faultplan.h), so the correct set is the
    // full honest set.
    sched.at(burst.at, [&cluster, &config, &burst, &expect] {
      issue_burst(config, burst, cluster.correct_servers(),
                  [&cluster](ServerId s, Label label, Bytes request) {
                    cluster.request(s, label, std::move(request));
                  },
                  expect);
    });
  }

  cluster.start();

  // Mid-run quiescence point: safety properties must already hold on the
  // partial execution (no waiting on "eventually").
  cluster.run_until(duration / 2);
  for (const auto& violation :
       check_properties(config, correct_logs(cluster), expect,
                        /*run_completed=*/false)) {
    result.violations.push_back("mid-run: " + violation);
  }

  cluster.run_until(duration);
  result.converged = cluster.quiesce_and_converge();
  if (config.protocol == "pbft") {
    nudge_pbft_liveness(cluster, expect);
    result.converged = cluster.quiesce_and_converge();
  }
  if (!result.converged) {
    result.violations.push_back("joint-DAG convergence failed (Lemma 3.7)");
  }

  const IndicationLogs logs = correct_logs(cluster);
  const auto final_violations =
      check_properties(config, logs, expect, /*run_completed=*/true);
  result.violations.insert(result.violations.end(), final_violations.begin(),
                           final_violations.end());

  // Definition 3.3(i): an invalidly-signed block is never delivered. Every
  // forger's forged refs must be absent from every correct server's DAG,
  // and the rejections must actually show up in the gossip stats — a run
  // where the forger fired but nothing was rejected means the blocks never
  // reached anyone (a broken adversary), which must fail loudly rather
  // than vacuously pass.
  bool forger_present = false;
  for (const auto& [byz_server, kind] : plan.byzantine) {
    if (kind != ByzantineKind::kForger) continue;
    forger_present = true;
    const ByzantineServer* byz = cluster.byzantine(byz_server);
    for (const Hash256& ref : byz->forged_refs()) {
      for (ServerId s : cluster.correct_servers()) {
        if (cluster.shim(s).dag().contains(ref)) {
          result.violations.push_back(
              "forged block " + ref.short_hex() + " from byzantine server " +
              std::to_string(byz_server) + " delivered at server " +
              std::to_string(s));
        }
      }
    }
  }
  if (forger_present) {
    std::uint64_t rejected = 0;
    for (ServerId s : cluster.correct_servers()) {
      rejected += cluster.shim(s).gossip().stats().blocks_rejected;
    }
    if (rejected == 0) {
      result.violations.push_back(
          "forger present but no correct server rejected a block");
    }
  }

  // Lemma 4.2 digests: every block two correct servers share must carry
  // bit-identical interpretation state; after convergence that is every
  // block of the joint DAG.
  const std::vector<ServerId> correct = cluster.correct_servers();
  const ServerId witness = correct.front();
  const Shim& witness_shim = cluster.shim(witness);
  result.blocks = witness_shim.dag().size();
  Sha256 run_hash;
  for (const BlockPtr& block : witness_shim.dag().topological_order()) {
    if (!witness_shim.interpreter().is_interpreted(block->ref())) {
      result.violations.push_back("uninterpreted block at witness: " +
                                  block->ref().short_hex());
      continue;
    }
    const Bytes digest = witness_shim.interpreter().digest_of(block->ref());
    run_hash.update(block->ref().span());
    run_hash.update(digest);
    for (ServerId s : correct) {
      if (s == witness) continue;
      const Shim& shim = cluster.shim(s);
      if (!shim.dag().contains(block->ref())) continue;
      if (!shim.interpreter().is_interpreted(block->ref()) ||
          shim.interpreter().digest_of(block->ref()) != digest) {
        result.violations.push_back("digest divergence (Lemma 4.2) at block " +
                                    block->ref().short_hex() + " between servers " +
                                    std::to_string(witness) + " and " +
                                    std::to_string(s));
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
  return result;
}

std::string scenario_trace_json(const ScenarioConfig& config,
                                const FaultPlan& plan,
                                const ScenarioResult& result) {
  std::string out = "{\n  \"schema\": 1,\n  \"config\": {";
  out += "\"seed\": " + std::to_string(config.seed);
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
