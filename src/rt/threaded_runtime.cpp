#include "rt/threaded_runtime.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <string>

#include "crypto/sha256.h"
#include "util/thread_name.h"

namespace blockdag::rt {

CheckpointWriterThread::CheckpointWriterThread(ServerId server, Mailbox& owner,
                                               IdleTracker& idle)
    : owner_(owner), idle_(idle), thread_([this, server] { run(server); }) {}

CheckpointWriterThread::~CheckpointWriterThread() { stop(); }

bool CheckpointWriterThread::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    jobs_.push_back(std::move(job));
    idle_.add();
  }
  cv_.notify_one();
  return true;
}

void CheckpointWriterThread::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriterThread::run(ServerId server) {
  name_this_thread("bd-ckpt" + std::to_string(server));
  // On Linux a thread id's niceness applies to that thread alone; if the
  // call fails the writer keeps the default priority.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 10);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopped_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopped and drained
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();
    job = nullptr;  // the snapshot it held is released here, off the server
    idle_.sub();
    lock.lock();
  }
}

ThreadedRuntime::ThreadedRuntime(const ProtocolFactory& factory,
                                 ThreadedConfig config)
    : factory_(factory), config_(std::move(config)) {
  local_ = config_.backend == TransportBackend::kTcp ? config_.tcp.local_servers
           : config_.backend == TransportBackend::kUdp
               ? config_.udp.local_servers
               : std::vector<ServerId>{};
  if (local_.empty()) {
    for (ServerId s = 0; s < config_.n_servers; ++s) local_.push_back(s);
  }
  std::sort(local_.begin(), local_.end());
  std::vector<ServerId> raw = config_.raw_servers;
  std::sort(raw.begin(), raw.end());
  for (const ServerId s : local_) {
    if (!std::binary_search(raw.begin(), raw.end(), s)) shimmed_.push_back(s);
  }

  if (config_.sig_scheme != SigScheme::kIdeal) {
    const SigScheme scheme = config_.sig_scheme;
    const std::uint32_t n = config_.n_servers;
    const std::uint64_t seed = config_.seed;
    pool_ = std::make_unique<VerifierPool>(
        [scheme, n, seed] { return make_signature_provider(scheme, n, seed); },
        config_.verifier_pool);
    pool_->start();  // workers just park on the queue until submissions come
  }

  nodes_.resize(config_.n_servers);
  std::vector<Mailbox*> mailboxes(config_.n_servers, nullptr);
  for (const ServerId s : local_) {
    assert(s < config_.n_servers);
    auto node = std::make_unique<Node>();
    node->mailbox = std::make_unique<Mailbox>(idle_);
    mailboxes[s] = node->mailbox.get();
    nodes_[s] = std::move(node);
  }

  if (config_.backend == TransportBackend::kTcp) {
    TcpConfig tcp = config_.tcp;
    tcp.n_servers = config_.n_servers;
    tcp.local_servers = local_;
    auto transport =
        std::make_unique<TcpTransport>(std::move(tcp), std::move(mailboxes), &idle_);
    tcp_ = transport.get();
    link_ = tcp_;
    transport_ = std::move(transport);
  } else if (config_.backend == TransportBackend::kUdp) {
    UdpConfig udp = config_.udp;
    udp.n_servers = config_.n_servers;
    udp.local_servers = local_;
    auto transport =
        std::make_unique<UdpTransport>(std::move(udp), std::move(mailboxes), &idle_);
    udp_ = transport.get();
    link_ = udp_;
    transport_ = std::move(transport);
  } else {
    assert(local_.size() == config_.n_servers &&
           "the loopback backend hosts every server in-process");
    transport_ = std::make_unique<LoopbackTransport>(std::move(mailboxes));
  }

  for (const ServerId s : local_) {
    Node& node = *nodes_[s];
    node.timers = std::make_unique<NodeTimerService>(*node.mailbox, epoch_);
  }
  for (const ServerId s : shimmed_) {
    Node& node = *nodes_[s];
    node.sigs = make_signature_provider(config_.sig_scheme, config_.n_servers,
                                        config_.seed);
    if (pool_) {
      Mailbox* mailbox = node.mailbox.get();
      node.verify_handle = pool_->make_handle(
          [mailbox](std::function<void()> task) {
            return mailbox->push(std::move(task));
          },
          [this](bool retain) { retain ? idle_.add() : idle_.sub(); });
    }
    node.storage = config_.storage ? config_.storage(s) : nullptr;
    // mount_node attaches the server's network handler; all of this
    // happens before any thread runs, so no synchronization beyond thread
    // creation is needed. Raw (adversary-hosted) servers get no stack —
    // the harness attaches its own handler via raw_transport().
    mount_node(s);
  }
  // Resume from durable state before any thread or socket moves: restore
  // must see exactly what the checkpoint + log describe, not a DAG that
  // live traffic already started growing.
  for (const ServerId s : shimmed_) {
    Node& node = *nodes_[s];
    if (node.checkpointer && !node.checkpointer->restore_from_storage()) {
      restore_failures_.push_back(s);
      node.shim->halt();  // never run a half-restored server
    }
    // Only now that log replay is done may verification go asynchronous.
    attach_async_verifier(s);
  }
  for (const ServerId s : local_) {
    Node* node = nodes_[s].get();
    node->thread = std::thread([node, s] {
      name_this_thread("bd-srv" + std::to_string(s));
      drain_loop(*node);
    });
  }
  // Sockets only move bytes once every handler is attached.
  if (link_) link_->start();
}

void ThreadedRuntime::mount_node(ServerId server) {
  Node& node = *nodes_[server];
  // The previous incarnation (if any) must already be retired — resetting
  // it here would free objects that in-flight timers still point at.
  assert(!node.shim && !node.checkpointer && !node.writer && !node.sync_engine);
  node.shim = std::make_unique<Shim>(server, *node.timers, *transport_,
                                     *node.sigs, factory_, config_.n_servers,
                                     config_.gossip, config_.pacing,
                                     config_.seq_mode);
  // Egress rides drain_loop's flush; restart() incarnations re-enable here
  // (the flush hook dereferences node.shim, so it follows the swap).
  node.shim->gossip().set_egress_batching(true);
  if (node.storage != nullptr || config_.checkpoint.epoch_blocks != 0) {
    node.writer =
        std::make_unique<CheckpointWriterThread>(server, *node.mailbox, idle_);
    node.checkpointer = std::make_unique<blockdag::sync::Checkpointer>(
        *node.shim, *node.sigs, config_.n_servers, node.storage,
        config_.checkpoint, node.writer.get());
  }
  if (config_.enable_state_sync) {
    blockdag::sync::SyncConfig sync_cfg = config_.sync;
    if (config_.sync_tweak) config_.sync_tweak(server, sync_cfg);
    node.sync_engine = std::make_unique<blockdag::sync::SyncEngine>(
        *node.shim, *node.timers, *transport_, *node.sigs, config_.n_servers,
        sync_cfg);
  }
}

void ThreadedRuntime::attach_async_verifier(ServerId server) {
  Node& node = *nodes_[server];
  if (!pool_ || !node.verify_handle) return;
  VerifierPool::Handle* handle = node.verify_handle.get();
  node.shim->gossip().set_async_verifier(
      [handle](ServerId claimed, const Hash256& ref, Bytes sigma,
               std::function<void(bool)> done) {
        handle->submit(claimed, ref, std::move(sigma), std::move(done));
      });
}

bool ThreadedRuntime::transport_ok() const { return !link_ || link_->ok(); }

void ThreadedRuntime::set_control_handler(ServerId server,
                                          Transport::Handler handler) {
  assert(link_ && "the loopback backend has no control plane");
  link_->set_control_handler(server, std::move(handler));
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void ThreadedRuntime::drain_loop(Node& node) {
  Mailbox& mailbox = *node.mailbox;
  std::deque<Mailbox::Task> batch;
  while (mailbox.pop_all(batch)) {
    const std::uint64_t n = batch.size();
    for (Mailbox::Task& task : batch) {
      task();
      task = nullptr;  // release captured state before the next task runs
    }
    batch.clear();
    // Flush what the batch buffered BEFORE releasing its work units: the
    // transport / pool take their own units during the flush, so the
    // IdleTracker never dips to zero with traffic still parked here. The
    // shim pointer is read per flush — restart() swaps incarnations via a
    // task on this very thread, so no torn read is possible.
    if (node.shim) node.shim->gossip().flush_egress();
    if (node.verify_handle) node.verify_handle->flush();
    mailbox.task_done(n);
  }
}

void ThreadedRuntime::start() {
  running_ = true;
  for (const ServerId s : shimmed_) {
    Shim* shim = nodes_[s]->shim.get();
    nodes_[s]->mailbox->push([shim] { shim->start(); });
  }
}

void ThreadedRuntime::stop() {
  running_ = false;
  for (const ServerId s : shimmed_) {
    Shim* shim = nodes_[s]->shim.get();
    nodes_[s]->mailbox->push([shim] { shim->stop(); });
  }
}

void ThreadedRuntime::crash(ServerId server) {
  assert(hosts(server));
  Node* node = nodes_[server].get();
  call(server, [node](Shim& shim) {
    shim.halt();
    if (node->sync_engine) node->sync_engine->halt();
    if (node->writer) node->writer->stop();
  });
}

bool ThreadedRuntime::restart(ServerId server) {
  assert(hosts(server));
  Node* node = nodes_[server].get();
  const bool start_now = running_;
  return call(server, [this, node, server, start_now](Shim& old_shim) {
    // Make sure the old incarnation is inert (restart without a prior
    // crash() is allowed), then retire it: armed timers and queued tasks
    // still hold raw pointers into it, so it must outlive them.
    old_shim.halt();
    if (node->sync_engine) {
      node->sync_engine->halt();
      node->retired_sync.push_back(std::move(node->sync_engine));
    }
    if (node->writer) {
      node->writer->stop();  // no-op after crash()
      node->retired_writers.push_back(std::move(node->writer));
    }
    if (node->checkpointer) {
      node->retired_checkpointers.push_back(std::move(node->checkpointer));
    }
    node->retired_shims.push_back(std::move(node->shim));
    // Fresh incarnation over the same mailbox, timers, keys and storage
    // sink — exactly what a process restart on the same data dir gets.
    mount_node(server);
    if (node->checkpointer && !node->checkpointer->restore_from_storage()) {
      node->shim->halt();
      return false;
    }
    // Log replay above ran synchronously; live traffic may verify off-thread
    // again (the handle — and its verdict cache — survived the crash).
    attach_async_verifier(server);
    if (start_now) node->shim->start();
    // Fetch whatever the cluster built while this server was down.
    if (node->sync_engine) node->sync_engine->start();
    return true;
  });
}

void ThreadedRuntime::start_sync(ServerId server) {
  assert(hosts(server));
  Node* node = nodes_[server].get();
  call(server, [node](Shim&) {
    assert(node->sync_engine && "enable_state_sync not set");
    if (node->sync_engine) node->sync_engine->start();
  });
}

ThreadedRuntime::SyncSnapshot ThreadedRuntime::sync_snapshot(ServerId server) {
  assert(hosts(server));
  Node* node = nodes_[server].get();
  return call(server, [node](Shim& shim) {
    SyncSnapshot snap;
    if (node->checkpointer) {
      snap.checkpointer = node->checkpointer->stats();
      snap.restore = node->checkpointer->restore_stats();
      snap.epoch = node->checkpointer->epoch();
    }
    if (node->sync_engine) {
      snap.sync = node->sync_engine->stats();
      snap.sync_active = node->sync_engine->syncing();
      snap.sync_completed = node->sync_engine->completed();
    }
    snap.blocks_interpreted = shim.interpreter().stats().blocks_interpreted;
    return snap;
  });
}

void ThreadedRuntime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Order matters: stop the verifier pool first (its workers post verdicts
  // into mailboxes), then the sockets (the poll thread posts deliveries),
  // then the checkpoint writers (each finishes its job in flight, whose
  // continuation still finds its mailbox open). Closing a mailbox then
  // drops its armed timers; its node drains what is queued and exits.
  if (pool_) pool_->stop();
  if (link_) link_->stop();
  for (const ServerId s : local_) {
    if (nodes_[s]->writer) nodes_[s]->writer->stop();
  }
  for (const ServerId s : local_) nodes_[s]->mailbox->close();
  for (const ServerId s : local_) {
    if (nodes_[s]->thread.joinable()) nodes_[s]->thread.join();
  }
}

void ThreadedRuntime::request(ServerId server, Label label, Bytes request) {
  Shim* shim = shim_of(server);
  mailbox_of(server).push(
      [shim, label, request = std::move(request)]() mutable {
        shim->request(label, std::move(request));
      });
}

bool ThreadedRuntime::wait_idle(std::chrono::nanoseconds timeout) {
  return idle_.wait_idle(timeout);
}

bool ThreadedRuntime::quiesce_and_converge(std::size_t max_rounds,
                                           std::chrono::nanoseconds round_timeout) {
  stop();
  const auto drain = [this, round_timeout] { return wait_idle(round_timeout); };
  if (!drain()) return false;
  return converge_rounds(
      max_rounds, config_.checkpoint.epoch_blocks != 0,
      [this](const std::function<void(Shim&)>& fn) {
        for (const ServerId s : shimmed_) call(s, fn);
      },
      drain);
}

Bytes ThreadedRuntime::dag_digest(ServerId server) {
  return call(server, [](Shim& shim) { return rt::dag_digest(shim.dag()); });
}

Bytes ThreadedRuntime::interpretation_digest(ServerId server) {
  return call(server, [](Shim& shim) {
    return rt::interpretation_digest(shim.interpreter(), shim.dag());
  });
}

std::size_t ThreadedRuntime::indicated_count(Label label) {
  std::size_t count = 0;
  for (const ServerId s : shimmed_) {
    count += call(s, [label](Shim& shim) -> std::size_t {
      for (const UserIndication& ind : shim.indications()) {
        if (ind.label == label) return 1;
      }
      return 0;
    });
  }
  return count;
}

std::uint64_t ThreadedRuntime::total_blocks_inserted() {
  std::uint64_t total = 0;
  for (const ServerId s : shimmed_) {
    total += call(s, [](Shim& shim) { return shim.gossip().stats().blocks_inserted; });
  }
  return total;
}

VerifierPoolStats ThreadedRuntime::verifier_stats() {
  VerifierPoolStats total;
  if (!pool_) return total;
  total = pool_->stats();  // verified / batches / dropped
  for (const ServerId s : shimmed_) {
    VerifierPool::Handle* handle = nodes_[s]->verify_handle.get();
    // Handle counters are owner-thread state: read them on that thread.
    const VerifierPoolStats h =
        call(s, [handle](Shim&) { return handle->stats(); });
    total.submitted += h.submitted;
    total.cache_hits += h.cache_hits;
    total.results_posted += h.results_posted;
  }
  return total;
}

InterpreterStats ThreadedRuntime::interpreter_stats() {
  InterpreterStats total;
  for (const ServerId s : shimmed_) {
    const InterpreterStats st =
        call(s, [](Shim& shim) { return shim.interpreter().stats(); });
    total.blocks_interpreted += st.blocks_interpreted;
    total.requests_processed += st.requests_processed;
    total.messages_delivered += st.messages_delivered;
    total.messages_materialized += st.messages_materialized;
    total.indications += st.indications;
    total.instance_clones += st.instance_clones;
  }
  return total;
}

namespace {
std::vector<Hash256> sorted_refs(const BlockDag& dag) {
  std::vector<Hash256> refs;
  refs.reserve(dag.size());
  for (const BlockPtr& b : dag.topological_order()) refs.push_back(b->ref());
  std::sort(refs.begin(), refs.end());
  return refs;
}
}  // namespace

Bytes dag_digest(const BlockDag& dag) {
  Sha256 h;
  for (const Hash256& ref : sorted_refs(dag)) h.update(ref.span());
  const Sha256::Digest d = h.finalize();
  return Bytes(d.begin(), d.end());
}

bool converge_rounds(std::size_t max_rounds, bool collect_garbage,
                     const EachShim& each, const std::function<bool()>& drain) {
  std::uint64_t last_progress = UINT64_MAX;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    std::optional<Bytes> reference;
    bool agree = true;
    std::uint64_t progress = 0;
    each([&](Shim& shim) {
      if (collect_garbage) shim.collect_garbage();
      Bytes digest = dag_digest(shim.dag());
      if (!reference) {
        reference = std::move(digest);
      } else if (digest != *reference) {
        agree = false;
      }
      const InterpreterStats& stats = shim.interpreter().stats();
      progress += stats.messages_delivered + stats.messages_materialized +
                  stats.indications;
    });
    if (agree && progress == last_progress) return true;
    last_progress = progress;
    each([](Shim& shim) { shim.tick_disseminate(); });
    if (!drain()) return false;
    each([](Shim& shim) { shim.tick_interpret(); });
    if (!drain()) return false;
  }
  return false;
}

Bytes interpretation_digest(const Interpreter& interpreter, const BlockDag& dag) {
  Sha256 h;
  for (const Hash256& ref : sorted_refs(dag)) {
    h.update(ref.span());
    // Uninterpreted blocks contribute a marker so "same DAG, lagging
    // interpretation" never collides with a converged digest.
    if (interpreter.is_interpreted(ref)) {
      const Bytes state = interpreter.digest_of(ref);
      h.update(state);
    } else {
      static constexpr std::uint8_t kUninterpreted[1] = {0xff};
      h.update(kUninterpreted);
    }
  }
  const Sha256::Digest d = h.finalize();
  return Bytes(d.begin(), d.end());
}

}  // namespace blockdag::rt
