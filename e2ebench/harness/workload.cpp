#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "decorators.h"
#include "protocols/brb.h"
#include "protocols/pbft_lite.h"
#include "replay.h"
#include "schedule.h"
#include "sync/storage.h"
#include "util/rng.h"

namespace e2ebench {

using namespace blockdag;
namespace fs = std::filesystem;
using rt::TransportBackend;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"brb-tcp-open", Proto::kBrb, TransportBackend::kTcp, SigScheme::kIdeal,
       100, false, 0},
      {"pbft-wots-tcp", Proto::kPbft, TransportBackend::kTcp, SigScheme::kWots,
       50, true, 0},
      {"brb-udp-durable", Proto::kBrb, TransportBackend::kUdp,
       SigScheme::kIdeal, 50, false, 400},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::int64_t kNsPerMs = 1'000'000;
constexpr std::int64_t kNsPerS = 1'000'000'000;
constexpr std::int64_t kSetupTimeout = 30 * kNsPerS;
constexpr std::int64_t kDrainTimeout = 10 * kNsPerS;
// Load offered before the measured window opens. Lazily filled state (WOTS
// key directories, verdict caches, socket buffers, allocator arenas) makes
// the first second of a fresh cluster several times slower at the tail.
constexpr double kWarmupSeconds = 1.0;

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3) +
         (static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The run's inputs, all derived from the seed before anything is timed.
// Label indices (label - 1 indexes every per-label array):
//   [0, n)                 set-up warm-ups, one per server;
//   [n, first_measured)    the warm-up load, kWarmupSeconds at the offered
//                          rate, before the measured window;
//   [first_measured, ...)  the measured requests.
// due_ns holds, per label index >= n, the due time from the load start.
struct Plan {
  std::uint32_t n = 0;
  std::size_t first_measured = 0;
  std::vector<std::int64_t> due_ns;  // per label index; 0 for set-up warm-ups
  std::vector<ServerId> server;      // per label index
  std::vector<Bytes> request;        // per label index
  std::vector<Bytes> indication;     // expected, per label index

  std::size_t labels() const { return server.size(); }
  std::size_t measured() const { return labels() - first_measured; }
  static Label label_of(std::size_t idx) { return idx + 1; }
};

Plan make_plan(const RunConfig& cfg) {
  const WorkloadSpec& w = *cfg.spec;
  Plan p;
  p.n = cfg.n;
  const auto warm = static_cast<std::size_t>(w.rate_rps * kWarmupSeconds + 0.5);
  const auto measured = static_cast<std::size_t>(w.rate_rps * cfg.window_s + 0.5);
  const auto warm_ns = static_cast<std::int64_t>(kWarmupSeconds * kNsPerS);
  p.first_measured = cfg.n + warm;
  p.due_ns.assign(cfg.n, 0);
  for (const std::int64_t t : poisson_due_times(cfg.seed ^ 0x7761726dULL, warm, warm_ns)) {
    p.due_ns.push_back(t);
  }
  for (const std::int64_t t : poisson_due_times(
           cfg.seed, measured, static_cast<std::int64_t>(cfg.window_s * kNsPerS))) {
    p.due_ns.push_back(warm_ns + t);
  }
  Rng values(cfg.seed ^ 0x76616c756573ULL);  // "values"
  for (std::size_t idx = 0; idx < p.due_ns.size(); ++idx) {
    // All requests go to the view-0 leader under PBFT, where only its
    // proposal decides; otherwise round-robin.
    p.server.push_back(w.to_leader ? 0 : static_cast<ServerId>(idx % cfg.n));
    Bytes value(16);
    const std::uint64_t label = Plan::label_of(idx);
    const std::uint64_t noise = values.next();
    for (int b = 0; b < 8; ++b) {
      value[b] = static_cast<std::uint8_t>(label >> (8 * b));
      value[8 + b] = static_cast<std::uint8_t>(noise >> (8 * b));
    }
    if (w.proto == Proto::kBrb) {
      p.request.push_back(brb::make_broadcast(value));
      p.indication.push_back(brb::make_deliver(value));
    } else {
      p.request.push_back(pbft::make_propose(value));
      p.indication.push_back(pbft::make_decide(value));
    }
  }
  return p;
}

// Lock-free, preallocated sink for indications and first on_request calls,
// written from server and interpreter threads.
class Recorder {
 public:
  Recorder(std::uint32_t n, std::size_t labels)
      : n_(n),
        labels_(labels),
        at_(new std::atomic<std::int64_t>[labels * n]),
        count_(new std::atomic<std::uint32_t>[labels * n]),
        servers_done_(new std::atomic<std::uint32_t>[labels]),
        first_request_(new std::atomic<std::int64_t>[labels]) {
    reset();
  }
  // Server threads hold its address.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void reset() {
    for (std::size_t i = 0; i < labels_ * n_; ++i) {
      at_[i].store(0);
      count_[i].store(0);
    }
    for (std::size_t i = 0; i < labels_; ++i) {
      servers_done_[i].store(0);
      first_request_[i].store(0);
    }
    completed_.store(0);
    unknown_.store(0);
  }

  void indicated(ServerId s, Label label, std::int64_t t) {
    const std::size_t idx = label - 1;
    if (label == 0 || idx >= labels_ || s >= n_) {
      unknown_.fetch_add(1);
      return;
    }
    const std::size_t slot = idx * n_ + s;
    if (count_[slot].fetch_add(1) != 0) return;  // duplicates are checked later
    at_[slot].store(t);
    if (servers_done_[idx].fetch_add(1) + 1 == n_) completed_.fetch_add(1);
  }

  void requested(Label label, std::int64_t t) {
    const std::size_t idx = label - 1;
    if (label == 0 || idx >= labels_) return;
    std::int64_t expected = 0;
    first_request_[idx].compare_exchange_strong(expected, t);
  }

  bool complete(std::size_t idx) const { return servers_done_[idx].load() == n_; }
  std::size_t completed() const { return completed_.load(); }
  std::int64_t at(std::size_t idx, ServerId s) const { return at_[idx * n_ + s].load(); }
  std::uint32_t count(std::size_t idx, ServerId s) const {
    return count_[idx * n_ + s].load();
  }
  std::int64_t first_request(std::size_t idx) const { return first_request_[idx].load(); }
  std::uint64_t unknown() const { return unknown_.load(); }

 private:
  const std::uint32_t n_;
  const std::size_t labels_;
  std::unique_ptr<std::atomic<std::int64_t>[]> at_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> count_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> servers_done_;
  std::unique_ptr<std::atomic<std::int64_t>[]> first_request_;
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::uint64_t> unknown_{0};
};

// Counters read once after the dissemination loops stopped.
struct Counters {
  std::vector<GossipStats> gossip;
  InterpreterStats interp;
  VerifierPoolStats verifier;
  rt::TcpStats tcp;
  rt::UdpStats udp;
  WireMetrics wire;
  std::vector<rt::ThreadedRuntime::SyncSnapshot> sync;
  double life_s = 0;  // start() to stop()
};

// One cluster deployment. Member order matters: the runtime is declared
// last so it is destroyed first, before the factories and sinks it borrows.
class Deployment {
 public:
  Deployment(const RunConfig& cfg, const Plan& plan, Recorder& rec, bool traced)
      : cfg_(cfg), plan_(plan), rec_(rec), traced_(traced) {
    if (cfg.spec->proto == Proto::kBrb) {
      base_ = std::make_unique<brb::BrbFactory>();
    } else {
      base_ = std::make_unique<pbft::PbftFactory>();
    }
    if (traced_) {
      timed_ = std::make_unique<TimingFactory>(
          *base_, [&rec](Label label) { rec.requested(label, now_ns()); });
    }
  }

  // The runtime's callbacks hold `this`.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ~Deployment() {
    rt_.reset();
    if (cfg_.spec->epoch_blocks != 0) {
      std::error_code ec;
      fs::remove_all(data_root(), ec);
    }
  }

  // Constructs, starts and warms the cluster. Returns set-up seconds, or
  // nullopt with `error` set.
  std::optional<double> setup(std::string& error) {
    const WorkloadSpec& w = *cfg_.spec;
    rec_.reset();
    if (w.epoch_blocks != 0) {
      std::error_code ec;
      fs::remove_all(data_root(), ec);
      fs::create_directories(data_root(), ec);
    }
    const std::int64_t t0 = now_ns();
    rt::ThreadedConfig tc;
    tc.n_servers = cfg_.n;
    tc.seed = cfg_.seed;
    tc.sig_scheme = w.scheme;
    tc.backend = w.backend;
    if (w.epoch_blocks != 0) {
      for (ServerId s = 0; s < cfg_.n; ++s) {
        auto dir = std::make_unique<sync::DataDir>(
            (data_root() / std::to_string(s)).string());
        if (!dir->ok()) {
          error = "cannot create data dir under " + data_root().string();
          return std::nullopt;
        }
        if (traced_) sinks_.push_back(std::make_unique<TimingSink>(*dir, s == 0));
        dirs_.push_back(std::move(dir));
      }
      tc.storage = [this](ServerId s) -> sync::StorageSink* {
        if (traced_) return sinks_[s].get();
        return dirs_[s].get();
      };
      tc.checkpoint.epoch_blocks = w.epoch_blocks;
    }
    const ProtocolFactory& factory =
        traced_ ? static_cast<const ProtocolFactory&>(*timed_) : *base_;
    rt_ = std::make_unique<rt::ThreadedRuntime>(factory, tc);
    if (!rt_->transport_ok()) {
      error = "socket backend failed to bind";
      return std::nullopt;
    }
    for (ServerId s = 0; s < cfg_.n; ++s) {
      rt_->call(s, [this, s](Shim& shim) {
        shim.set_indication_handler([this, s](Label label, const Bytes&) {
          rec_.indicated(s, label, now_ns());
        });
      });
    }
    rt_->start();
    started_ns_ = now_ns();
    for (std::size_t idx = 0; idx < cfg_.n; ++idx) {
      rt_->request(plan_.server[idx], Plan::label_of(idx), plan_.request[idx]);
    }
    while (!(links_up() && rec_.completed() == cfg_.n)) {
      if (now_ns() - t0 > kSetupTimeout) {
        error = "set-up timed out: links or warm-up indications missing";
        return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return static_cast<double>(now_ns() - t0) / kNsPerS;
  }

  // Offers the warm-up and measured load, drains, converges and checks.
  // Fills `out`; only the measured requests count in its numbers.
  void measure(E2e& out) {
    const std::size_t n = cfg_.n;
    const std::size_t first = plan_.first_measured;
    const std::size_t count = plan_.measured();
    const std::size_t labels = plan_.labels();
    std::vector<Bytes> requests(plan_.request.begin(), plan_.request.end());
    if (traced_) {
      push_start_ns_.assign(count, 0);
      push_ns_.assign(count, 0);
    }
    std::int64_t late_max = 0;

    const std::int64_t start = now_ns() + 2 * kNsPerMs;
    load_start_ns_ = start;
    const std::int64_t window_start = start + plan_.due_ns[first];
    double cpu0 = 0;
    std::thread generator([&] {
      for (std::size_t idx = n; idx < labels; ++idx) {
        const std::int64_t due = start + plan_.due_ns[idx];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const std::int64_t t0 = now_ns();
        if (idx == first) {
          cpu0 = cpu_ms();
        }
        if (idx >= first) late_max = std::max(late_max, t0 - due);
        rt_->request(plan_.server[idx], Plan::label_of(idx), std::move(requests[idx]));
        if (traced_ && idx >= first) {
          push_start_ns_[idx - first] = t0;
          push_ns_[idx - first] = now_ns() - t0;
        }
      }
    });
    generator.join();
    const std::int64_t drain_deadline = now_ns() + kDrainTimeout;
    while (rec_.completed() < labels && now_ns() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double cpu1 = cpu_ms();

    std::vector<double> samples;
    samples.reserve(count * n);
    std::vector<double> inscribe;
    std::size_t completed = 0;
    std::int64_t last = window_start;
    for (std::size_t idx = first; idx < labels; ++idx) {
      if (!rec_.complete(idx)) continue;
      ++completed;
      const std::int64_t due = start + plan_.due_ns[idx];
      for (ServerId s = 0; s < n; ++s) {
        samples.push_back(static_cast<double>(rec_.at(idx, s) - due) / kNsPerMs);
        last = std::max(last, rec_.at(idx, s));
      }
      if (traced_ && rec_.first_request(idx) != 0) {
        inscribe.push_back(static_cast<double>(rec_.first_request(idx) - due) / kNsPerMs);
      }
    }
    out.attempted = count;
    out.failed = count - completed;
    if (rec_.completed() != labels - count + completed) {
      out.errors.push_back("warm-up requests not indicated at every server after the drain");
    }
    if (out.failed != 0) {
      out.errors.push_back(std::to_string(out.failed) +
                           " requests not indicated at every server after the drain");
    }
    // Per-deployment figures are informational (a short window may have
    // too few samples for p99); the run's percentiles pool all deployments.
    out.lat_p50_ms = percentile(samples, 0.50).value_or(0);
    out.lat_p99_ms = percentile(samples, 0.99).value_or(0);
    out.latency_ms = std::move(samples);
    out.window_s = static_cast<double>(last - window_start) / kNsPerS;
    out.goodput_rps = out.window_s > 0 ? static_cast<double>(completed) / out.window_s : 0;
    out.cpu_ms_per_req = completed ? (cpu1 - cpu0) / static_cast<double>(completed) : 0;
    out.gen_late_ms_max = static_cast<double>(late_max) / kNsPerMs;
    inscribe_p50_ms_ = percentile(inscribe, 0.50).value_or(0);
    out.interpret_workers = rt_->interpret_workers();
    out.verifier_workers =
        cfg_.spec->scheme == SigScheme::kIdeal ? 0 : rt::ThreadedConfig{}.verifier_pool.workers;

    rt_->stop();
    rt_->wait_idle(std::chrono::seconds(10));
    if (traced_) read_counters(static_cast<double>(now_ns() - started_ns_) / kNsPerS);
    check(out);
    out.peak_rss_mb = peak_rss_mb();
  }

  // Server 0's insertion history: its DAG, or (under epoch GC, which
  // prunes the DAG) the block log captured by its TimingSink.
  std::vector<BlockPtr> history() {
    if (!sinks_.empty()) {
      std::vector<BlockPtr> blocks;
      for (const Bytes& payload : sinks_[0]->captured()) {
        if (auto b = Block::decode(payload)) {
          blocks.push_back(std::make_shared<const Block>(std::move(*b)));
        }
      }
      return blocks;
    }
    return rt_->call(0, [](Shim& shim) { return shim.dag().topological_order(); });
  }

  // Server 0's interpretation digest, as taken by the correctness gate.
  const Bytes& live_interpretation_digest() const { return live_digest_; }
  void shutdown() { rt_->shutdown(); }

  const Counters& counters() const { return counters_; }
  const TimingFactory& timed() const { return *timed_; }
  const std::vector<std::unique_ptr<TimingSink>>& sinks() const { return sinks_; }
  // Traced runs: when and for how long request() ran, per measured request.
  const std::vector<std::int64_t>& push_start_ns() const { return push_start_ns_; }
  const std::vector<std::int64_t>& push_ns() const { return push_ns_; }
  std::int64_t load_start_ns() const { return load_start_ns_; }
  double inscribe_p50_ms() const { return inscribe_p50_ms_; }
  const ProtocolFactory& base_factory() const { return *base_; }

 private:
  fs::path data_root() const { return fs::path(cfg_.work_dir) / "data"; }

  bool links_up() {
    const std::uint32_t n = cfg_.n;
    if (rt::TcpTransport* tcp = rt_->tcp()) {
      return tcp->stats().connects >= static_cast<std::uint64_t>(n) * (n - 1);
    }
    if (rt::UdpTransport* udp = rt_->udp()) {
      for (ServerId from = 0; from < n; ++from) {
        for (ServerId to = 0; to < n; ++to) {
          if (from != to && udp->link_stats(from, to).chunks_delivered == 0) {
            return false;
          }
        }
      }
    }
    return true;
  }

  void read_counters(double life_s) {
    Counters& c = counters_;
    c.life_s = life_s;
    for (ServerId s = 0; s < cfg_.n; ++s) {
      c.gossip.push_back(rt_->call(s, [](Shim& shim) { return shim.gossip().stats(); }));
      c.sync.push_back(rt_->sync_snapshot(s));
    }
    c.interp = rt_->interpreter_stats();
    c.verifier = rt_->verifier_stats();
    if (rt_->tcp()) c.tcp = rt_->tcp()->stats();
    if (rt_->udp()) c.udp = rt_->udp()->stats();
    c.wire = rt_->wire_metrics();
  }

  // The correctness gate: convergence, digest agreement, and exactly one
  // expected indication per label at every server.
  void check(E2e& out) {
    const std::uint32_t n = cfg_.n;
    if (!rt_->quiesce_and_converge()) {
      out.errors.push_back("quiesce_and_converge did not reach a fixed point");
      return;
    }
    // Interpretation digests cost O(blocks x labels) each; take them on
    // all servers at once (each call runs on its own server's thread).
    std::vector<std::future<std::pair<Bytes, Bytes>>> digests;
    for (ServerId s = 0; s < n; ++s) {
      digests.push_back(std::async(std::launch::async, [this, s] {
        return std::make_pair(rt_->dag_digest(s), rt_->interpretation_digest(s));
      }));
    }
    std::vector<std::pair<Bytes, Bytes>> got;
    for (auto& f : digests) got.push_back(f.get());
    live_digest_ = got[0].second;
    for (ServerId s = 1; s < n; ++s) {
      if (got[s].first != got[0].first) {
        out.errors.push_back("DAG digest of server " + std::to_string(s) + " differs");
      }
      if (got[s].second != got[0].second) {
        out.errors.push_back("interpretation digest of server " + std::to_string(s) +
                             " differs");
      }
    }
    if (rec_.unknown() != 0) {
      out.errors.push_back("indication for a label that was never requested");
    }
    const std::size_t labels = plan_.labels();
    std::size_t bad = 0;
    for (ServerId s = 0; s < n; ++s) {
      const auto log = rt_->call(s, [](Shim& shim) { return shim.indications(); });
      std::vector<std::uint32_t> seen(labels, 0);
      for (const UserIndication& ind : log) {
        const std::size_t idx = ind.label - 1;
        if (ind.label == 0 || idx >= labels || ind.indication != plan_.indication[idx]) {
          ++bad;
          continue;
        }
        ++seen[idx];
      }
      for (std::size_t idx = 0; idx < labels; ++idx) {
        if (seen[idx] != 1 || rec_.count(idx, s) != 1) ++bad;
      }
    }
    if (bad != 0) {
      out.errors.push_back(std::to_string(bad) +
                           " (server, label) pairs without exactly one expected " +
                           (cfg_.spec->proto == Proto::kBrb ? "deliver" : "decide"));
    }
  }

  const RunConfig& cfg_;
  const Plan& plan_;
  Recorder& rec_;
  const bool traced_;
  std::unique_ptr<ProtocolFactory> base_;
  std::unique_ptr<TimingFactory> timed_;
  std::vector<std::unique_ptr<sync::DataDir>> dirs_;
  std::vector<std::unique_ptr<TimingSink>> sinks_;
  std::vector<std::int64_t> push_start_ns_;
  std::vector<std::int64_t> push_ns_;
  std::int64_t load_start_ns_ = 0;
  std::int64_t started_ns_ = 0;
  double inscribe_p50_ms_ = 0;
  Bytes live_digest_;
  Counters counters_;
  std::unique_ptr<rt::ThreadedRuntime> rt_;  // last: destroyed first
};

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Writes the spans of a traced deployment to <work_dir>/spans-<workload>.tsv,
// one line per span, times in ns from the load start; the spans of one
// request share its label. push = the request() call; inscribe = due time
// to the first on_request anywhere; indicate = due time to the indication
// at `server`.
void write_spans(const RunConfig& cfg, const Plan& plan, const Deployment& d,
                 const Recorder& rec) {
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  const fs::path path = fs::path(cfg.work_dir) / (std::string("spans-") + cfg.spec->name + ".tsv");
  std::ofstream out(path);
  const std::int64_t t0 = d.load_start_ns();
  auto span = [&](std::size_t idx, const char* kind, ServerId server, std::int64_t from,
                  std::int64_t to) {
    out << Plan::label_of(idx) << '\t' << kind << '\t' << server << '\t' << from << '\t'
        << to << '\n';
  };
  out << "label\tkind\tserver\tstart_ns\tend_ns\n";
  for (std::size_t j = 0; j < d.push_ns().size(); ++j) {
    const std::size_t idx = plan.first_measured + j;
    const std::int64_t due = plan.due_ns[idx];
    const std::int64_t pushed = d.push_start_ns()[j] - t0;
    span(idx, "push", plan.server[idx], pushed, pushed + d.push_ns()[j]);
    if (rec.first_request(idx) != 0) {
      span(idx, "inscribe", plan.server[idx], due, rec.first_request(idx) - t0);
    }
    for (ServerId s = 0; s < plan.n; ++s) {
      if (rec.at(idx, s) != 0) span(idx, "indicate", s, due, rec.at(idx, s) - t0);
    }
  }
}

}  // namespace

E2e run_deployment(const RunConfig& cfg) {
  const Plan plan = make_plan(cfg);
  Recorder rec(cfg.n, plan.labels());
  E2e out;
  Deployment d(cfg, plan, rec, /*traced=*/false);
  std::string error;
  const auto seconds = d.setup(error);
  if (!seconds) {
    out.errors.push_back(error);
    out.attempted = out.failed = plan.measured();
    return out;
  }
  out.setup_s.push_back(*seconds);
  d.measure(out);
  return out;
}

std::optional<double> setup_only(const RunConfig& cfg, std::string& error) {
  const Plan plan = make_plan(cfg);
  Recorder rec(cfg.n, plan.labels());
  Deployment d(cfg, plan, rec, /*traced=*/false);
  return d.setup(error);
}

E2e run_traced(const RunConfig& cfg, MetricList& layers,
               std::vector<std::string>& notes) {
  const Plan plan = make_plan(cfg);
  Recorder rec(cfg.n, plan.labels());
  E2e out;
  Deployment d(cfg, plan, rec, /*traced=*/true);
  std::string error;
  const auto seconds = d.setup(error);
  if (!seconds) {
    out.errors.push_back(error);
    out.attempted = out.failed = plan.measured();
    return out;
  }
  out.setup_s.push_back(*seconds);
  d.measure(out);
  if (!out.correct()) return out;

  // Serial replay of server 0's history; the first pass warms caches (the
  // signature provider's key directory, the allocator) and is discarded.
  const std::vector<BlockPtr> history = d.history();
  const Bytes live_digest = d.live_interpretation_digest();
  d.shutdown();
  auto sigs = make_signature_provider(cfg.spec->scheme, cfg.n, cfg.seed);
  replay_pass(history, d.base_factory(), *sigs, cfg.n, cfg.spec->epoch_blocks);
  const ReplayResult r =
      replay_pass(history, d.base_factory(), *sigs, cfg.n, cfg.spec->epoch_blocks);
  if (!r.ok) {
    out.errors.push_back(r.error);
    return out;
  }
  // Without GC the replayed DAG is server 0's whole DAG, so its
  // interpretation must match the live one byte for byte.
  if (cfg.spec->epoch_blocks == 0 && r.interpretation_digest != live_digest) {
    out.errors.push_back("replayed interpretation digest differs from the live one");
    return out;
  }

  const Counters& c = d.counters();
  const double blocks = static_cast<double>(r.blocks);
  GossipStats g;
  for (const GossipStats& s : c.gossip) {
    g.blocks_built += s.blocks_built;
    g.blocks_received += s.blocks_received;
    g.fwd_requests_sent += s.fwd_requests_sent;
  }
  const double requests = static_cast<double>(plan.labels());
  const auto& v = c.verifier;
  const auto& in = c.interp;
  const CallTotals calls = d.timed().totals();
  SinkTotals sink;
  for (const auto& s : d.sinks()) {
    const SinkTotals& t = s->totals();
    sink.appends += t.appends;
    sink.append_ns += t.append_ns;
    sink.checkpoints += t.checkpoints;
    sink.checkpoint_ns_max = std::max(sink.checkpoint_ns_max, t.checkpoint_ns_max);
    sink.checkpoint_bytes += t.checkpoint_bytes;
  }
  std::uint64_t store_failures = 0;
  for (const auto& s : c.sync) store_failures += s.checkpointer.store_failures;
  double push_sum = 0;
  for (const std::int64_t ns : d.push_ns()) push_sum += static_cast<double>(ns);
  const double interp_self_ns =
      static_cast<double>(r.interpret_ns) - static_cast<double>(r.protocol_ns);
  const double tcp_envelopes = static_cast<double>(c.tcp.frames_sent - c.tcp.batches_sent +
                                                   c.tcp.batched_envelopes);

  layers = {
      {"shim.inscribe_wait_ms_p50", d.inscribe_p50_ms(), "ms"},
      {"gossip.blocks_per_s", ratio(static_cast<double>(g.blocks_built), c.life_s), "1/s"},
      {"gossip.empty_block_share", ratio(static_cast<double>(r.empty_blocks), blocks), "ratio"},
      {"gossip.reqs_per_block", ratio(static_cast<double>(r.requests), blocks), "count"},
      {"gossip.fwd_requests", static_cast<double>(g.fwd_requests_sent), "count"},
      {"rt.request_push_us", ratio(push_sum / 1e3, static_cast<double>(d.push_ns().size())), "us"},
      {"rt.tcp.frames_per_s", ratio(static_cast<double>(c.tcp.frames_sent), c.life_s), "1/s"},
      {"rt.tcp.envelopes_per_frame",
       ratio(tcp_envelopes, static_cast<double>(c.tcp.frames_sent)), "count"},
      {"rt.tcp.evicted", static_cast<double>(c.tcp.evicted_envelopes), "count"},
      {"rt.tcp.resets", static_cast<double>(c.tcp.resets), "count"},
      {"rt.udp.datagrams_per_frame",
       ratio(static_cast<double>(c.udp.datagrams_sent), static_cast<double>(c.udp.frames_sent)), "count"},
      {"rt.udp.retransmits", static_cast<double>(c.udp.retransmits), "count"},
      {"rt.udp.duplicates_dropped", static_cast<double>(c.udp.duplicates_dropped), "count"},
      {"rt.udp.channel_resets", static_cast<double>(c.udp.channel_resets), "count"},
      {"net.wire_bytes_per_req", ratio(static_cast<double>(c.wire.total_bytes()), requests), "B"},
      {"net.wire_msgs_per_req", ratio(static_cast<double>(c.wire.total_messages()), requests), "count"},
      {"net.block_bytes_mean", ratio(static_cast<double>(r.wire_bytes), blocks), "B"},
      {"net.codec_us_per_block", ratio(static_cast<double>(r.codec_ns) / 1e3, blocks), "us"},
      {"crypto.verify_us_per_block", ratio(static_cast<double>(r.verify_ns) / 1e3, blocks), "us"},
      {"crypto.verified_per_block",
       ratio(static_cast<double>(v.verified), static_cast<double>(g.blocks_received)), "count"},
      {"crypto.verify_cache_hit_ratio",
       ratio(static_cast<double>(v.cache_hits), static_cast<double>(v.cache_hits + v.submitted)), "ratio"},
      {"crypto.verify_batch_mean",
       ratio(static_cast<double>(v.verified), static_cast<double>(v.batches)), "count"},
      {"dag.insert_us_per_block", ratio(static_cast<double>(r.insert_ns) / 1e3, blocks), "us"},
      {"interpret.self_us_per_block", ratio(interp_self_ns / 1e3, blocks), "us"},
      {"interpret.clones_per_block",
       ratio(static_cast<double>(in.instance_clones), static_cast<double>(in.blocks_interpreted)), "count"},
      {"interpret.msgs_per_block",
       ratio(static_cast<double>(in.messages_delivered),
             static_cast<double>(in.blocks_interpreted)), "count"},
      {"interpret.parallel_batch_share",
       ratio(static_cast<double>(in.parallel_batches),
             static_cast<double>(in.parallel_batches + in.serial_batches)), "ratio"},
      {"interpret.merge_ms", static_cast<double>(in.merge_ns) / 1e6, "ms"},
      {"protocols.busy_us_per_block",
       ratio(static_cast<double>(calls.busy_ns()) / 1e3,
             static_cast<double>(in.blocks_interpreted)), "us"},
      {"protocols.clone_us_mean",
       ratio(static_cast<double>(calls.clone_ns) / 1e3, static_cast<double>(calls.clone_calls)), "us"},
      {"protocols.calls_per_block",
       ratio(static_cast<double>(calls.calls()), static_cast<double>(in.blocks_interpreted)), "count"},
      {"sync.append_us_mean",
       ratio(static_cast<double>(sink.append_ns) / 1e3, static_cast<double>(sink.appends)), "us"},
      {"sync.appends_per_s", ratio(static_cast<double>(sink.appends), c.life_s), "1/s"},
      {"sync.checkpoint_store_ms_max", static_cast<double>(sink.checkpoint_ns_max) / 1e6, "ms"},
      {"sync.checkpoint_kb_mean",
       ratio(static_cast<double>(sink.checkpoint_bytes) / 1024.0,
             static_cast<double>(sink.checkpoints)), "KiB"},
      {"sync.checkpoints", static_cast<double>(sink.checkpoints), "count"},
      {"sync.store_failures", static_cast<double>(store_failures), "count"},
      {"harness.gen_late_ms_max", out.gen_late_ms_max, "ms"},
  };

  // Replayed layer time, largest first: the check on the workload choice.
  std::vector<std::pair<std::string, double>> time_ms = {
      {"net", static_cast<double>(r.codec_ns) / 1e6},
      {"crypto", static_cast<double>(r.verify_ns) / 1e6},
      {"dag", static_cast<double>(r.insert_ns) / 1e6},
      {"interpret", interp_self_ns / 1e6},
      {"protocols", static_cast<double>(r.protocol_ns) / 1e6},
  };
  std::sort(time_ms.begin(), time_ms.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string line = "replay of server 0 (" + std::to_string(r.blocks) + " blocks), ms:";
  for (const auto& [layer, ms] : time_ms) {
    line += " " + layer + "=" + std::to_string(ms);
  }
  notes.push_back(line);
  notes.push_back("largest replayed layer: " + time_ms.front().first);
  write_spans(cfg, plan, d, rec);
  return out;
}

}  // namespace e2ebench
