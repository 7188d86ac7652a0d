// The pending-buffer sweep (Algorithm 1 lines 6–11) under adversarial
// arrival orders. GossipServer visits only the buffered blocks that can
// have become decidable, yet it must insert, reject and FWD-request
// exactly as a full rescan of the buffer per arrival would: the insertion
// order is the order of the references in the block under construction,
// so any deviation changes every later ref and every digest.
//
// One server is fed a seeded stream of blocks by four builders — valid
// rounds delivered late, twice or out of order; blocks with a forged σ,
// no parent, a bad sequence number or a pred nobody holds; orphans of
// rejected blocks; late blocks over pruned history — interleaved with its
// own disseminations, epoch GC and FWD timer firings (half the seeds give
// up after three retries). Everything it does (insertions, sends, armed
// timers, buffer sizes, GC counts) is hashed into one trace digest. The
// golden digests were recorded with the full-rescan implementation.
#include "gossip/gossip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "gossip/wire.h"
#include "util/hex.h"

namespace blockdag {
namespace {

class Trace {
 public:
  void line(const std::string& s) {
    hash_.update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    hash_.update(std::span<const std::uint8_t>(&kNewline, 1));
  }
  std::string digest() { return to_hex(hash_.finalize()); }

 private:
  static constexpr std::uint8_t kNewline = '\n';
  Sha256 hash_;
};

std::string short_hex(const Hash256& h) { return to_hex(h.span()).substr(0, 16); }

// A clock the test advances by hand; due timers fire in (due, arm) order.
class ManualTimers final : public TimerService {
 public:
  explicit ManualTimers(Trace& trace) : trace_(trace) {}
  SimTime now() const override { return now_; }
  TimerId schedule_after(SimTime delay, Action action) override {
    trace_.line("T " + std::to_string(delay));
    armed_.emplace(std::make_pair(now_ + delay, next_), std::move(action));
    return next_++;
  }
  bool cancel(TimerId) override { return false; }
  void advance(SimTime by) {
    now_ += by;
    while (!armed_.empty() && armed_.begin()->first.first <= now_) {
      Action action = std::move(armed_.begin()->second);
      armed_.erase(armed_.begin());
      action();
    }
  }

 private:
  Trace& trace_;
  SimTime now_ = 0;
  TimerId next_ = 1;
  std::map<std::pair<SimTime, TimerId>, Action> armed_;
};

// Records what the server sends; delivers nothing.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(Trace& trace, std::uint32_t n) : trace_(trace), n_(n) {}
  void attach(ServerId, Handler) override {}
  std::uint32_t size() const override { return n_; }
  void send(ServerId, ServerId to, WireKind kind, Bytes payload) override {
    trace_.line("S " + std::to_string(to) + " " + std::to_string(static_cast<int>(kind)) +
                " " + short_hex(Hash256::of(payload)));
  }
  void broadcast(ServerId, WireKind kind, const Bytes& payload) override {
    trace_.line("B " + std::to_string(static_cast<int>(kind)) + " " +
                short_hex(Hash256::of(payload)));
  }
  WireMetrics wire_metrics() const override { return {}; }

 private:
  Trace& trace_;
  std::uint32_t n_;
};

std::string sweep_trace(std::uint64_t seed, int rounds) {
  constexpr std::uint32_t kServers = 5;  // builders 0..3, and the server under test
  constexpr ServerId kSelf = 4;
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t m) { return m == 0 ? 0 : rng() % m; };
  IdealSignatureProvider sigs(kServers, 7);
  const auto make = [&](ServerId b, SeqNo k, std::vector<Hash256> preds, bool may_forge) {
    std::vector<LabeledRequest> rs;
    if (pick(3) == 0) rs.push_back({static_cast<Label>(pick(1000)), Bytes{1, 2}});
    const Hash256 ref = Block::compute_ref(b, k, preds, rs);
    Bytes sigma = sigs.sign(b, ref.span());
    if (may_forge && pick(4) == 0) sigma[0] ^= 1;
    return Block(b, k, std::move(preds), std::move(rs), std::move(sigma));
  };

  // The stream: (delivery time, block), stably sorted by time.
  std::vector<std::pair<std::uint64_t, Block>> stream;
  std::vector<std::vector<Hash256>> chain(4);
  std::vector<std::vector<Hash256>> unreferenced(4);
  std::vector<std::set<Hash256>> skipped(4);
  std::uint64_t t = 0;
  for (int r = 0; r < rounds; ++r) {
    for (ServerId b = 0; b < 4; ++b) {
      // Each other builder's block is referenced once, the round after it
      // was built or (one time in five) a round later still.
      std::vector<Hash256> preds;
      if (r > 0) preds.push_back(chain[b].back());
      std::vector<Hash256> keep;
      for (const Hash256& p : unreferenced[b]) {
        if (skipped[b].count(p) || pick(5) != 0) {
          preds.push_back(p);
          if (pick(20) == 0) preds.push_back(p);  // a duplicate reference
        } else {
          skipped[b].insert(p);
          keep.push_back(p);
        }
      }
      unreferenced[b] = keep;
      Block block = make(b, r, preds, false);
      chain[b].push_back(block.ref());
      const std::uint64_t delay = pick(10) == 0 ? 30 + pick(200) : pick(8);
      stream.emplace_back(t + delay, block);
      if (pick(15) == 0) stream.emplace_back(t + pick(40), block);  // again
      ++t;
    }
    for (ServerId b = 0; b < 4; ++b) {
      for (ServerId c = 0; c < 4; ++c) {
        if (c != b) unreferenced[c].push_back(chain[b].back());
      }
    }
    const Hash256& recent = chain[pick(4)].back();
    if (pick(4) == 0) {
      // An invalid block by builder 3 (no parent, a bad sequence number or
      // a genesis with a parent), maybe forged, and an orphan of it.
      std::vector<Hash256> preds{recent};
      SeqNo k = r + 100;
      const std::uint64_t kind = pick(3);
      if (kind == 1 && r > 0) {
        preds.push_back(chain[3].back());
        k = r + 5;
      } else if (kind == 2) {
        preds.push_back(chain[3].front());
        k = 0;
      }
      const Block bad = make(3, k, preds, true);
      const Block orphan = make(3, r + 200, {bad.ref(), chain[3].back()}, false);
      stream.emplace_back(t + pick(20), orphan);
      stream.emplace_back(t + pick(60), bad);
    }
    if (pick(6) == 0) {
      // A pred nobody holds: FWD-requested until the retries give up.
      const Hash256 ghost = Hash256::of(Bytes{static_cast<std::uint8_t>(pick(256)), 9});
      const Block dangling = make(2, r + 300, {ghost, chain[2].back()}, false);
      stream.emplace_back(t + pick(10), dangling);
    }
    if (pick(10) == 0 && r > 5) {
      // Late, over history that GC may have pruned by then.
      const Block late = make(1, r + 400, {chain[1][pick(4)], chain[0][pick(4)]}, false);
      stream.emplace_back(t + 100 + pick(100), late);
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  Trace trace;
  ManualTimers timers(trace);
  RecordingTransport net(trace, kServers);
  RequestBuffer rqsts;
  GossipConfig cfg;
  cfg.fwd_retry_delay = sim_ms(5);
  cfg.max_fwd_retries = seed % 2 == 0 ? 3 : 0;
  cfg.rejected_capacity = 16;
  GossipServer server(kSelf, timers, net, sigs, rqsts, cfg);
  server.set_block_inserted_handler([&trace](const BlockPtr& b) {
    trace.line("I " + std::to_string(b->n()) + " " + std::to_string(b->k()) + " " +
               short_hex(b->ref()));
  });
  for (const auto& [at, block] : stream) {
    (void)at;
    server.on_network(block.n(), encode_block_envelope(block, WireKind::kBlock));
    if (pick(5) == 0) server.disseminate(/*even_if_empty=*/pick(2) == 0);
    if (pick(3) == 0) timers.advance(sim_ms(pick(8)));
    if (pick(25) == 0) trace.line("G " + std::to_string(server.collect_garbage(kServers)));
    trace.line("P " + std::to_string(server.pending_blocks()));
  }
  for (int i = 0; i < 40; ++i) timers.advance(sim_ms(5));
  const GossipStats& s = server.stats();
  trace.line("END " + std::to_string(s.blocks_inserted) + " " +
             std::to_string(s.blocks_rejected) + " " + std::to_string(s.fwd_requests_sent) +
             " " + std::to_string(s.blocks_pruned) + " " +
             std::to_string(server.building_preds().size()));
  return trace.digest();
}

TEST(PendingSweep, InsertsRejectsAndRequestsAsAFullRescanWould) {
  static const char* kGolden[] = {
      "ae777c6b6118ebf95cccce6f1c60322abae7ef374f62a94e279dd547f2e80603",
      "ea3163c71abe5fadcaba89ee6bde3e858977891d21620628b7feb9f41f40b1f8",
      "39dfe7eb65f09c651c71a9dd3266e7b6e25db73e2e293182bbe95acd3b8cdecd",
      "8fffb3852e056c1aa37516e972518005c77f26b7e0843dfec4bcf8d582fa143b",
      "179936ba77dc80367f00a42dcb3c66f591e3b2ebede3b3c6406b196e81194303",
      "2f80d18f080e489f0f62161e837edf75888df050071d5836de4e9289a1f4cec9",
      "a93f8a08904335b8fa55967ad92e9c1230afb5264f1aff3f01c7fdb5cb4332a5",
      "c444553fa7e845226498594282c8e7d3b2180e9d5044fedc83eba608ac28ed15",
  };
  for (std::uint64_t seed = 0; seed < std::size(kGolden); ++seed) {
    EXPECT_EQ(sweep_trace(seed, 60), kGolden[seed]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace blockdag
