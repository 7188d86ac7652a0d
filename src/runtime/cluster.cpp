#include "runtime/cluster.h"

#include <cassert>

#include "rt/threaded_runtime.h"

namespace blockdag {

Cluster::Cluster(const ProtocolFactory& factory, ClusterConfig config)
    : config_(std::move(config)), factory_(&factory) {
  NetworkConfig net_cfg = config_.net;
  net_cfg.seed = config_.seed ^ 0xabcdef;
  net_ = std::make_unique<SimNetwork>(sched_, config_.n_servers, net_cfg);

  sigs_ = make_signature_provider(config_.sig_scheme, config_.n_servers,
                                  config_.seed);

  shims_.resize(config_.n_servers);
  byz_.resize(config_.n_servers);
  stores_.resize(config_.n_servers);
  checkpointers_.resize(config_.n_servers);
  for (ServerId s = 0; s < config_.n_servers; ++s) {
    const auto bit = config_.byzantine.find(s);
    if (bit == config_.byzantine.end()) {
      mount(s);
    } else {
      byz_[s] = make_byzantine(bit->second, s, sched_, *net_, *sigs_,
                               config_.seed ^ (0x1000 + s));
      ByzantineServer* server = byz_[s].get();
      net_->attach(s, [server](ServerId from, const Bytes& wire) {
        server->on_network(from, wire);
      });
    }
  }
}

void Cluster::mount(ServerId server) {
  shims_[server] = std::make_unique<Shim>(
      server, sched_, *net_, *sigs_, *factory_, config_.n_servers,
      config_.gossip, config_.pacing, config_.seq_mode);
  checkpointers_[server] = std::make_unique<sync::Checkpointer>(
      *shims_[server], *sigs_, config_.n_servers, &stores_[server]);
}

std::vector<ServerId> Cluster::correct_servers() const {
  std::vector<ServerId> out;
  for (ServerId s = 0; s < config_.n_servers; ++s) {
    if (is_correct(s)) out.push_back(s);
  }
  return out;
}

std::uint32_t Cluster::n_correct() const {
  return static_cast<std::uint32_t>(correct_servers().size());
}

void Cluster::schedule_byz_tick(ServerId server) {
  sched_.after(config_.pacing.interval, [this, server] {
    if (!started_) return;
    byz_[server]->tick();
    schedule_byz_tick(server);
  });
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (ServerId s = 0; s < config_.n_servers; ++s) {
    if (shims_[s]) {
      shims_[s]->start();
    } else {
      schedule_byz_tick(s);
    }
  }
}

void Cluster::stop() {
  started_ = false;
  for (auto& shim : shims_) {
    if (shim) shim->stop();
  }
}

void Cluster::request(ServerId server, Label label, Bytes req) {
  assert(is_correct(server));
  shims_[server]->request(label, std::move(req));
}

void Cluster::crash(ServerId server) {
  assert(is_correct(server));
  shims_[server]->halt();
  // Drop ingress: deliveries scheduled for a crashed server are lost (the
  // restarted incarnation hears about missed blocks via references in later
  // blocks and recovers them through FWD).
  net_->attach(server, SimNetwork::Handler{});
  crashed_.push_back(std::move(shims_[server]));
  retired_checkpointers_.push_back(std::move(checkpointers_[server]));
}

bool Cluster::restart(ServerId server) {
  assert(!is_correct(server) && !byz_[server]);
  mount(server);  // the Shim constructor re-attached the network handler
  if (!checkpointers_[server]->restore_from_storage()) {
    crash(server);
    return false;
  }
  if (started_) shims_[server]->start();
  return true;
}

bool Cluster::quiesce_and_converge(std::size_t max_rounds) {
  quiesce();
  // The flush realizes Assumption 1's "eventually": transient drops stop
  // (the drop budget is finite by configuration; zero probability is that
  // budget's exhaustion) so each round's blocks actually arrive instead of
  // the recovery chasing freshly dropped blocks forever.
  net_->set_drop_regime(0.0, 0);
  return rt::converge_rounds(
      max_rounds, /*collect_garbage=*/false,
      [this](const std::function<void(Shim&)>& fn) {
        for (const auto& shim : shims_) {
          if (shim) fn(*shim);
        }
      },
      [this] {
        sched_.run();
        return true;
      });
}

bool Cluster::dags_converged() const {
  const Shim* reference = nullptr;
  for (const auto& shim : shims_) {
    if (!shim) continue;
    if (!reference) {
      reference = shim.get();
      continue;
    }
    const BlockDag& a = reference->dag();
    const BlockDag& b = shim->dag();
    if (a.size() != b.size() || !a.subgraph_of(b)) return false;
  }
  return true;
}

std::size_t Cluster::indicated_count(Label label) const {
  std::size_t count = 0;
  for (const auto& shim : shims_) {
    if (!shim) continue;
    for (const UserIndication& ind : shim->indications()) {
      if (ind.label == label) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace blockdag
