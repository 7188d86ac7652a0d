// The harness's own checks:
//   1. the timing decorators are transparent — a seeded simulator run gives
//      byte-identical DAG and interpretation digests, checkpoints and block
//      logs with and without them;
//   2. the percentile rule reports a percentile only with >= 10 samples
//      beyond it;
//   3. seeded arrival schedules reproduce exactly.
// Exit status 0 = all checks passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "decorators.h"
#include "protocols/brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "schedule.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"

namespace {

using namespace blockdag;
using namespace e2ebench;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

struct SimOutcome {
  std::vector<Bytes> dag_digests;
  std::vector<Bytes> interpretation_digests;
  std::vector<std::vector<UserIndication>> indications;
  std::uint64_t checkpoint_epoch = 0;
  Bytes checkpoint;
  std::vector<sync::LogRecord> log;
};

// BRB on the deterministic simulator, server 0 checkpointing into a
// MemStore (behind a TimingSink when `decorated`).
SimOutcome run_sim(bool decorated) {
  brb::BrbFactory brb;
  std::size_t hook_calls = 0;
  TimingFactory timed(brb, [&hook_calls](Label) { ++hook_calls; });
  ClusterConfig cfg;
  cfg.seed = 7;
  Cluster cluster(decorated ? static_cast<const ProtocolFactory&>(timed) : brb, cfg);
  sync::MemStore store;
  TimingSink sink(store, /*capture=*/true);
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(),
                                  cfg.n_servers,
                                  decorated ? static_cast<sync::StorageSink*>(&sink) : &store,
                                  sync::CheckpointerConfig{40});
  cluster.start();
  for (Label l = 1; l <= 24; ++l) {
    cluster.request(static_cast<ServerId>(l % cfg.n_servers), l,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(l), 0x42}));
  }
  cluster.run_for(sim_sec(2));
  cluster.quiesce();

  SimOutcome out;
  for (ServerId s = 0; s < cfg.n_servers; ++s) {
    const Shim& shim = cluster.shim(s);
    out.dag_digests.push_back(rt::dag_digest(shim.dag()));
    out.interpretation_digests.push_back(
        rt::interpretation_digest(shim.interpreter(), shim.dag()));
    out.indications.push_back(shim.indications());
  }
  store.load_latest(out.checkpoint_epoch, out.checkpoint, out.log);
  if (decorated) {
    const CallTotals calls = timed.totals();
    CHECK(hook_calls == calls.request_calls);
    CHECK(calls.request_calls > 0);
    CHECK(calls.message_calls > 0);
    CHECK(calls.clone_calls > 0);
    CHECK(sink.totals().checkpoints > 0);
    CHECK(sink.totals().appends == sink.captured().size());
    CHECK(sink.totals().failures == 0);
  }
  return out;
}

void decorators_are_transparent() {
  const SimOutcome plain = run_sim(false);
  const SimOutcome timed = run_sim(true);
  CHECK(plain.dag_digests == timed.dag_digests);
  CHECK(plain.interpretation_digests == timed.interpretation_digests);
  for (std::size_t s = 0; s < plain.indications.size(); ++s) {
    CHECK(plain.indications[s].size() == 24);
    CHECK(plain.indications[s].size() == timed.indications[s].size());
    for (std::size_t i = 0;
         i < std::min(plain.indications[s].size(), timed.indications[s].size()); ++i) {
      CHECK(plain.indications[s][i].label == timed.indications[s][i].label);
      CHECK(plain.indications[s][i].indication == timed.indications[s][i].indication);
    }
  }
  CHECK(plain.checkpoint_epoch > 0);
  CHECK(plain.checkpoint_epoch == timed.checkpoint_epoch);
  CHECK(plain.checkpoint == timed.checkpoint);
  CHECK(plain.log.size() == timed.log.size());
  for (std::size_t i = 0; i < std::min(plain.log.size(), timed.log.size()); ++i) {
    CHECK(plain.log[i].kind == timed.log[i].kind);
    CHECK(plain.log[i].payload == timed.log[i].payload);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  auto v = ramp(1000);
  CHECK(percentile(v, 0.99) == 990.0);  // rank 990, 10 beyond
  v = ramp(999);
  CHECK(!percentile(v, 0.99));  // rank 990, 9 beyond
  v = ramp(20);
  CHECK(percentile(v, 0.50) == 10.0);  // rank 10, 10 beyond
  v = ramp(19);
  CHECK(!percentile(v, 0.50));
  v.clear();
  CHECK(!percentile(v, 0.50));
}

void seeded_schedules_reproduce() {
  constexpr std::int64_t kWindow = 10'000'000'000;
  const auto a = poisson_due_times(3, 1000, kWindow);
  const auto b = poisson_due_times(3, 1000, kWindow);
  const auto c = poisson_due_times(4, 1000, kWindow);
  CHECK(a.size() == 1000);
  CHECK(a == b);
  CHECK(a != c);
  for (std::size_t i = 0; i < a.size(); ++i) {
    CHECK(a[i] >= 0 && a[i] < kWindow);
    if (i > 0) CHECK(a[i] >= a[i - 1]);
  }
  // Exponential gaps: the mean gap is window/(count+1) by construction and
  // the spread is that of Exp(1) — coefficient of variation near 1.
  double sum = 0;
  double sq = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double gap = static_cast<double>(a[i] - a[i - 1]);
    sum += gap;
    sq += gap * gap;
  }
  const double mean = sum / static_cast<double>(a.size() - 1);
  const double cv = std::sqrt(sq / static_cast<double>(a.size() - 1) - mean * mean) / mean;
  CHECK(cv > 0.85 && cv < 1.15);
}

}  // namespace

int main() {
  decorators_are_transparent();
  percentile_needs_ten_samples_beyond();
  seeded_schedules_reproduce();
  if (g_failures != 0) {
    std::fprintf(stderr, "e2ebench harness_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2ebench harness_test: all checks passed\n");
  return 0;
}
