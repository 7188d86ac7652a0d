// ABL-PRUNE (DESIGN.md §4): the §7 memory limitation, quantified — "the
// full block DAG has to be stored by all correct parties forever" — and
// the checkpoint-pruning extension that bounds it when the higher-level
// protocol signals information will never be needed again.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "runtime/bench_report.h"
#include "runtime/cluster.h"
#include "runtime/table.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"

namespace {

using namespace blockdag;

struct PruneRow {
  std::size_t blocks_before;
  std::size_t blocks_after;
  std::uint64_t bytes_before;
  std::uint64_t bytes_after;
};

PruneRow run(std::uint32_t rounds) {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 3;
  cfg.pacing.interval = sim_ms(10);
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.request(i, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(sim_ms(10) * rounds);
  cluster.quiesce();

  // Work on a copy (the live gossip DAG is append-only; see DESIGN.md).
  BlockDag copy;
  copy.absorb(cluster.shim(0).dag());

  const auto footprint = [](const BlockDag& dag) {
    std::uint64_t bytes = 0;
    for (const BlockPtr& b : dag.topological_order()) bytes += b->encode().size();
    return bytes;
  };

  PruneRow row{};
  row.blocks_before = copy.size();
  row.bytes_before = footprint(copy);

  // Checkpoint = each server's tip: everything below is "delivered history"
  // (all 4 BRB instances have indicated by now).
  std::map<ServerId, BlockPtr> tips;
  for (const BlockPtr& b : copy.topological_order()) {
    auto& tip = tips[b->n()];
    if (!tip || b->k() > tip->k()) tip = b;
  }
  std::vector<Hash256> checkpoints;
  for (const auto& [n, b] : tips) {
    (void)n;
    checkpoints.push_back(b->ref());
  }
  copy.prune_below(checkpoints);
  row.blocks_after = copy.size();
  row.bytes_after = footprint(copy);
  return row;
}

std::uint64_t footprint_of(const BlockDag& dag) {
  std::uint64_t bytes = 0;
  for (const BlockPtr& b : dag.topological_order()) bytes += b->encode().size();
  return bytes;
}

// One resident-set sample per checkpoint epoch under the live Checkpointer
// (the src/sync/ epoch cadence, not the manual prune above): every
// epoch_blocks interpreted blocks it checkpoints, rotates the block log
// and GCs the DAG, so the resident set must stay flat no matter how long
// the cluster runs — this is the §7 "store the DAG forever" limitation
// actually bounded in steady state.
struct EpochRow {
  std::uint64_t epoch;
  std::size_t resident_blocks;
  std::uint64_t resident_bytes;
};

std::vector<EpochRow> run_epochs(std::uint64_t epochs,
                                 std::uint64_t epoch_blocks) {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 7;
  cfg.pacing.interval = sim_ms(10);
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  sync::MemStore store;
  sync::CheckpointerConfig ck;
  ck.epoch_blocks = epoch_blocks;
  sync::Checkpointer checkpointer(cluster.shim(0), cluster.signatures(), 4,
                                  &store, ck);
  cluster.start();

  std::vector<EpochRow> rows;
  // Keep a paced broadcast workload running until enough epochs elapsed
  // (bounded: each instance interprets several blocks, so the cap is slack).
  for (std::uint32_t i = 0; rows.size() < epochs && i < epochs * epoch_blocks;
       ++i) {
    cluster.request(i % 4, 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
    cluster.run_for(sim_ms(40));
    const std::uint64_t epoch = checkpointer.stats().checkpoints_stored;
    if (epoch > (rows.empty() ? 0 : rows.back().epoch) &&
        rows.size() < epochs) {
      const BlockDag& dag = cluster.shim(0).dag();
      rows.push_back({epoch, dag.size(), footprint_of(dag)});
    }
  }
  return rows;
}

// Epoch-step cost split (DESIGN.md §10): where one checkpoint epoch step
// spends its time, by thread, with `labels` BRB instances in history. The
// Checkpointer runs under an inline writer that charges every job and
// continuation to the thread it would run on in a ThreadedRuntime: the
// server thread (GC, snapshot, boundary record, signature, bookkeeping)
// or the checkpoint writer (digests, B.PIs serialization, encoding and
// the durable store into a real DataDir).
class SplitTimingWriter final : public sync::CheckpointWriter {
 public:
  enum Side { kServer = 0, kWriter = 1 };

  bool submit(std::function<void()> job) override {
    run(kWriter, job);
    return true;
  }
  bool post_back(std::function<void()> task) override {
    run(kServer, task);
    return true;
  }
  // Runs `fn` charged to `side`; nested runs are charged to their own side.
  void run(Side side, const std::function<void()>& fn) {
    const auto start = Clock::now();
    if (!stack_.empty()) ns_[stack_.back()] += since(mark_, start);
    stack_.push_back(side);
    mark_ = start;
    fn();
    const auto end = Clock::now();
    ns_[stack_.back()] += since(mark_, end);
    stack_.pop_back();
    mark_ = end;
  }
  void reset() { ns_[0] = ns_[1] = 0; }
  double us(Side side) const { return static_cast<double>(ns_[side]) / 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  static std::uint64_t since(Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }
  std::vector<Side> stack_;
  Clock::time_point mark_;
  std::uint64_t ns_[2] = {0, 0};
};

struct StepRow {
  std::uint32_t labels;
  std::size_t live_blocks;
  double server_us;  // median over the measured steps
  double writer_us;
  double checkpoint_kb;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

StepRow run_epoch_step(std::uint32_t labels, int samples) {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 11;
  cfg.pacing.interval = sim_ms(10);
  brb::BrbFactory factory;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (std::uint32_t label = 1; label <= labels; ++label) {
    cluster.request((label - 1) % 4, label,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(label), 1}));
    if (label % 40 == 0) cluster.run_for(sim_ms(10));
  }
  // Let every instance finish and the beats run on, so the live blocks
  // carry no in-flight messages: the labels are history, not load.
  cluster.run_for(sim_ms(200));
  cluster.quiesce();

  char tmpl[] = "bench_pruning_XXXXXX";
  const std::string dir_path = ::mkdtemp(tmpl) != nullptr ? tmpl : "";
  StepRow row{labels, 0, 0.0, 0.0, 0.0};
  {
    sync::DataDir dir(dir_path);
    SplitTimingWriter writer;
    sync::CheckpointerConfig ck;
    ck.epoch_blocks = 1;  // every manual tick below takes a boundary
    Shim& shim = cluster.shim(0);
    sync::Checkpointer checkpointer(shim, cluster.signatures(), 4, &dir, ck,
                                    &writer);
    std::vector<double> server, written;
    // Step 0 is the warm-up: its GC prunes the whole quiesced history.
    for (int i = 0; i <= samples; ++i) {
      shim.tick_disseminate();  // one new own block: the cadence is due
      writer.reset();
      writer.run(SplitTimingWriter::kServer, [&shim] { shim.tick_interpret(); });
      if (i == 0) continue;
      server.push_back(writer.us(SplitTimingWriter::kServer));
      written.push_back(writer.us(SplitTimingWriter::kWriter));
    }
    if (checkpointer.stats().checkpoints_stored !=
        static_cast<std::uint64_t>(samples) + 1) {
      std::fprintf(stderr, "epoch_step: a step did not store\n");
    }
    std::uint64_t epoch = 0;
    Bytes ckpt;
    std::vector<sync::LogRecord> log;
    dir.load_latest(epoch, ckpt, log);
    row.live_blocks = shim.dag().size();
    row.server_us = median(server);
    row.writer_us = median(written);
    row.checkpoint_kb = static_cast<double>(ckpt.size()) / 1024.0;
  }
  std::error_code ec;
  if (!dir_path.empty()) std::filesystem::remove_all(dir_path, ec);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_pruning", argc, argv);
  std::printf("ABL-PRUNE: DAG memory growth vs checkpoint pruning (§7)\n\n");
  const std::vector<std::uint32_t> sweep =
      report.smoke() ? std::vector<std::uint32_t>{25, 50}
                     : std::vector<std::uint32_t>{25, 50, 100, 200, 400};
  Table table({"rounds", "blocks (full)", "KB (full)", "blocks (pruned)",
               "KB (pruned)", "reduction"});
  for (std::uint32_t rounds : sweep) {
    const PruneRow r = run(rounds);
    table.add_row(
        {Table::num(static_cast<std::uint64_t>(rounds)),
         Table::num(static_cast<std::uint64_t>(r.blocks_before)),
         Table::num(static_cast<double>(r.bytes_before) / 1e3, 1),
         Table::num(static_cast<std::uint64_t>(r.blocks_after)),
         Table::num(static_cast<double>(r.bytes_after) / 1e3, 1),
         Table::num(100.0 * (1.0 - static_cast<double>(r.bytes_after) /
                                       static_cast<double>(r.bytes_before)), 1) + "%"});
  }
  report.add("pruning", table);
  std::printf(
      "Expected shape: unpruned storage grows linearly with rounds forever\n"
      "(the paper's limitation); checkpoint pruning keeps the retained state\n"
      "at ~one round of blocks per server.\n\n");

  // Steady state under the real epoch machinery (src/sync/Checkpointer):
  // one row per checkpoint epoch; resident blocks/bytes must stay flat.
  const std::uint64_t epochs = report.smoke() ? 4 : 12;
  const std::vector<EpochRow> rows = run_epochs(epochs, /*epoch_blocks=*/8);
  Table steady({"epoch", "resident blocks", "resident KB"});
  std::size_t min_blocks = 0, max_blocks = 0;
  for (const EpochRow& r : rows) {
    if (min_blocks == 0 || r.resident_blocks < min_blocks)
      min_blocks = r.resident_blocks;
    if (r.resident_blocks > max_blocks) max_blocks = r.resident_blocks;
    steady.add_row({Table::num(r.epoch),
                    Table::num(static_cast<std::uint64_t>(r.resident_blocks)),
                    Table::num(static_cast<double>(r.resident_bytes) / 1e3, 1)});
  }
  report.add("checkpoint_steady_state", steady);
  report.note("steady_state_epochs", Table::num(static_cast<std::uint64_t>(rows.size())));
  report.note("steady_state_blocks_min", Table::num(static_cast<std::uint64_t>(min_blocks)));
  report.note("steady_state_blocks_max", Table::num(static_cast<std::uint64_t>(max_blocks)));
  std::printf(
      "Expected shape: resident blocks/bytes are flat across epochs — the\n"
      "Checkpointer's epoch GC bounds the DAG no matter how long it runs\n"
      "(min %zu / max %zu resident blocks over %zu epochs).\n",
      min_blocks, max_blocks, rows.size());

  // Where an epoch step's time goes, by thread, as history grows.
  const std::vector<std::uint32_t> label_sweep =
      report.smoke() ? std::vector<std::uint32_t>{100, 1000}
                     : std::vector<std::uint32_t>{100, 1000, 4000};
  const int samples = report.smoke() ? 3 : 9;
  Table step({"labels", "live blocks", "server-thread us", "writer us",
              "server share", "checkpoint KB"});
  for (const std::uint32_t labels : label_sweep) {
    const StepRow r = run_epoch_step(labels, samples);
    step.add_row({Table::num(static_cast<std::uint64_t>(r.labels)),
                  Table::num(static_cast<std::uint64_t>(r.live_blocks)),
                  Table::num(r.server_us, 1), Table::num(r.writer_us, 1),
                  Table::num(r.server_us / (r.server_us + r.writer_us), 3),
                  Table::num(r.checkpoint_kb, 1)});
  }
  report.add("epoch_step", step);
  std::printf(
      "Expected shape: the server-thread column follows the live blocks and\n"
      "stays near flat as labels grow; the writer column (digests, B.PIs\n"
      "serialization, encoding, fsync'd store) grows with the labels.\n");
  return report.finish();
}
