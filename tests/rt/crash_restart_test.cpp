// Crash/restart fault injection on the threaded runtime (DESIGN.md §10).
//
// The durability claim under test: a server SIGKILLed mid-run (modelled by
// ThreadedRuntime::crash — the shim halts in place, exactly the state the
// kernel leaves behind) and restarted over the same storage sink resumes
// from its newest checkpoint + block log WITHOUT re-interpreting
// checkpointed history, state-syncs what it missed while down, and
// converges back to the identical Lemma 3.7 joint DAG and Lemma 4.2
// interpretation digests. A fresh late joiner — no durable state at all —
// catches up purely via state sync. Corrupt storage is refused cleanly:
// the incarnation stays halted instead of running half-restored.
//
// Run under ThreadSanitizer in CI: restart() re-attaches transport
// handlers and remounts timers while poll threads and peers keep running.
#include "rt/threaded_runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "protocols/brb.h"
#include "sync/storage.h"
#include "testing/failing_sink.h"

namespace blockdag {
namespace {

using rt::ThreadedConfig;
using rt::ThreadedRuntime;

ThreadedConfig recovery_config(std::uint32_t n) {
  ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.pacing.interval = sim_ms(2);
  cfg.gossip.fwd_retry_delay = sim_ms(5);
  cfg.seed = 7;
  cfg.checkpoint.epoch_blocks = 4;  // frequent epochs: exercise GC + rotation
  cfg.enable_state_sync = true;
  cfg.sync.progress_timeout = sim_ms(50);
  cfg.sync.retry_base = sim_ms(10);
  return cfg;
}

// Polls `cond` (which may issue runtime calls) until true or ~10s passed.
template <typename F>
bool eventually(F&& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

void expect_all_digests_equal(ThreadedRuntime& runtime, std::uint32_t n) {
  const Bytes dag0 = runtime.dag_digest(0);
  const Bytes interp0 = runtime.interpretation_digest(0);
  EXPECT_FALSE(dag0.empty());
  for (ServerId s = 1; s < n; ++s) {
    EXPECT_EQ(runtime.dag_digest(s), dag0) << "server " << s;
    EXPECT_EQ(runtime.interpretation_digest(s), interp0) << "server " << s;
  }
}

// One sync::DataDir per server under a scratch directory in the test's
// cwd (the build tree), removed on destruction.
class DataDirs {
 public:
  explicit DataDirs(std::uint32_t n) {
    char tmpl[] = "crash_restart_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) root_ = made;
    for (ServerId s = 0; s < n; ++s) {
      dirs_.push_back(std::make_unique<sync::DataDir>(path(s)));
      EXPECT_TRUE(dirs_.back()->ok());
    }
  }
  ~DataDirs() {
    dirs_.clear();
    std::error_code ec;
    if (!root_.empty()) std::filesystem::remove_all(root_, ec);
  }
  std::string path(ServerId s) const { return root_ + "/" + std::to_string(s); }
  sync::DataDir& dir(ServerId s) { return *dirs_[s]; }
  bool has(ServerId s, const std::string& file) const {
    return std::filesystem::exists(path(s) + "/" + file);
  }

 private:
  std::string root_;
  std::vector<std::unique_ptr<sync::DataDir>> dirs_;
};

void run_crash_restart(ThreadedConfig cfg, std::uint64_t min_checkpoints = 2,
                       bool on_disk = false) {
  brb::BrbFactory factory;
  const std::uint32_t n = cfg.n_servers;
  const ServerId kVictim = n - 1;
  std::vector<sync::MemStore> stores(n);
  std::optional<DataDirs> dirs;
  if (on_disk) {
    dirs.emplace(n);
    cfg.storage = [&dirs](ServerId s) { return &dirs->dir(s); };
  } else {
    cfg.storage = [&stores](ServerId s) { return &stores[s]; };
  }

  ThreadedRuntime runtime(factory, cfg);
  ASSERT_TRUE(runtime.transport_ok());
  ASSERT_TRUE(runtime.restore_failures().empty());
  runtime.start();

  // Phase 1: traffic until the victim has stored at least two checkpoint
  // epochs (so restore genuinely starts from a checkpoint, not genesis,
  // and log rotation has happened at least once). Requests go to the
  // survivors only: one injected into the victim right before the crash
  // would die with it — correct crash semantics (clients retry), but not
  // what the totality assertion below is about.
  std::uint32_t label = 0;
  ASSERT_TRUE(eventually([&] {
    runtime.request(label % (n - 1), 100 + label,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(label)}));
    ++label;
    return runtime.sync_snapshot(kVictim).checkpointer.checkpoints_stored >=
           min_checkpoints;
  })) << "no checkpoints after " << label << " requests";

  // Phase 2: kill the victim; survivors keep building history it misses.
  runtime.crash(kVictim);
  for (int i = 0; i < 20; ++i) {
    runtime.request(i % (n - 1), 500 + i,
                    brb::make_broadcast(Bytes{0xcc, static_cast<std::uint8_t>(i)}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 3: restart over the same storage sink. Restore must succeed and
  // state sync must complete (it retries with backoff until it does).
  ASSERT_TRUE(runtime.restart(kVictim));
  ASSERT_TRUE(eventually(
      [&] { return runtime.sync_snapshot(kVictim).sync_completed; }));

  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_all_digests_equal(runtime, n);

  // The recovery really came from the checkpoint + sync, not a full
  // replay: checkpointed blocks were restored pre-interpreted, so the
  // victim's interpreter ran on strictly fewer blocks than a server that
  // lived through the whole run.
  const auto victim = runtime.sync_snapshot(kVictim);
  EXPECT_TRUE(victim.restore.restored);
  EXPECT_GT(victim.restore.blocks_from_checkpoint, 0u);
  EXPECT_GE(victim.sync.completions, 1u);
  const auto survivor = runtime.sync_snapshot(0);
  EXPECT_LT(victim.blocks_interpreted, survivor.blocks_interpreted)
      << "restart re-interpreted checkpointed history";

  // BRB totality survives the crash: every broadcast (including those sent
  // while the victim was down) is delivered everywhere.
  for (std::uint32_t i = 0; i < label; ++i) {
    EXPECT_EQ(runtime.indicated_count(100 + i), n) << "label " << 100 + i;
  }
}

TEST(CrashRestart, RestoresFromCheckpointAndSyncsOnThreads) {
  run_crash_restart(recovery_config(4));
}

TEST(CrashRestart, RestoresFromCheckpointAndSyncsOnTcp) {
  ThreadedConfig cfg = recovery_config(4);
  cfg.backend = rt::TransportBackend::kTcp;  // ephemeral in-process ports
  run_crash_restart(cfg);
}

TEST(CrashRestart, RestoresAfterManyEpochsFromDataDirs) {
  // Rotation leaves only the newest epochs on disk; a restart after six
  // or more must still find them (and must not come back empty, rebuild
  // from sequence number 0 and equivocate).
  ThreadedConfig cfg = recovery_config(4);
  run_crash_restart(cfg, /*min_checkpoints=*/6, /*on_disk=*/true);
}

// ---------------------------------------------------------------------
// Crash points of the two-phase epoch step (DESIGN.md §10), on real data
// dirs behind a scripted testing::FailingSink. Each crash is compared
// against the crashed incarnation's own final state: the restored server
// must hold the same GC'd live DAG, the same interpretation, the same
// next sequence number and the same indication log — no block lost, none
// re-issued. State sync is off and the cluster stopped around the
// restart, so nothing but durable storage can supply the restored state.

ThreadedConfig crash_point_config() {
  ThreadedConfig cfg = recovery_config(4);
  cfg.enable_state_sync = false;
  return cfg;
}

struct ServerState {
  Bytes dag;
  Bytes interpretation;
  SeqNo next_k = 0;
  std::vector<std::pair<Label, Bytes>> indications;
  bool operator==(const ServerState&) const = default;
};

ServerState state_after_gc(ThreadedRuntime& runtime, ServerId server) {
  return runtime.call(server, [](Shim& shim) {
    shim.collect_garbage();
    ServerState st;
    st.dag = rt::dag_digest(shim.dag());
    st.interpretation = rt::interpretation_digest(shim.interpreter(), shim.dag());
    st.next_k = shim.gossip().next_seq();
    for (const UserIndication& ind : shim.indications()) {
      st.indications.emplace_back(ind.label, ind.indication);
    }
    return st;
  });
}

void broadcast_some(ThreadedRuntime& runtime, Label first, int count) {
  for (int i = 0; i < count; ++i) {
    runtime.request(static_cast<ServerId>(i % 3), first + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i), 0x5a}));
  }
}

// Kills `victim` while its writer is blocked inside a held store, then
// lets that store return unwritten: the store never lands, exactly what a
// SIGKILL before the rename leaves on disk. crash() joins the writer, so
// it runs on a helper thread until the release.
void crash_while_held(ThreadedRuntime& runtime, testing::FailingSink& sink,
                      ServerId victim) {
  std::thread crasher([&runtime, victim] { runtime.crash(victim); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sink.release(/*land=*/false);
  crasher.join();
}

// Restarts the crashed `victim` of a stopped, idle cluster over its sink
// and checks it came back as `before`, restored from checkpoint
// `expected_checkpoint_epoch`.
void restart_and_compare(ThreadedRuntime& runtime, ServerId victim,
                         const ServerState& before,
                         std::uint64_t expected_checkpoint_epoch) {
  ASSERT_TRUE(runtime.restart(victim));
  const auto snap = runtime.sync_snapshot(victim);
  EXPECT_TRUE(snap.restore.restored);
  EXPECT_EQ(snap.restore.checkpoint_epoch, expected_checkpoint_epoch);
  EXPECT_TRUE(state_after_gc(runtime, victim) == before)
      << "restored state differs from the crashed incarnation's";
}

void rejoin_and_converge(ThreadedRuntime& runtime, std::uint32_t n,
                         Label first, int count) {
  runtime.start();
  broadcast_some(runtime, first, count);
  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_all_digests_equal(runtime, n);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(runtime.indicated_count(first + i), n) << "label " << first + i;
  }
}

TEST(CrashRestart, CrashBeforeTheStoreLandsThenAgainFromTheChainedLog) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  const ServerId kVictim = 3;
  DataDirs dirs(n);
  testing::FailingSink sink(dirs.dir(kVictim));
  sink.hold_store(2);  // epoch 2: boundary taken, store cut off
  sink.hold_store(3);  // the first store after the restart: cut off too
  ThreadedConfig cfg = crash_point_config();
  cfg.storage = [&](ServerId s) -> sync::StorageSink* {
    return s == kVictim ? static_cast<sync::StorageSink*>(&sink) : &dirs.dir(s);
  };
  ThreadedRuntime runtime(factory, cfg);
  const testing::FailingSink::HoldGuard release_on_exit(sink);
  runtime.start();
  broadcast_some(runtime, 100, 6);

  // Crash 1: blocks keep landing in epoch 2's log while its store hangs.
  ASSERT_EQ(sink.wait_held(/*appends=*/12), 2u);
  crash_while_held(runtime, sink, kVictim);
  runtime.stop();
  ASSERT_TRUE(runtime.wait_idle(std::chrono::seconds(10)));
  const ServerState before1 = state_after_gc(runtime, kVictim);
  EXPECT_TRUE(dirs.has(kVictim, "checkpoint-1.ckpt"));
  EXPECT_FALSE(dirs.has(kVictim, "checkpoint-2.ckpt"));
  EXPECT_TRUE(dirs.has(kVictim, "blocks-1.log"));
  EXPECT_TRUE(dirs.has(kVictim, "blocks-2.log"));
  restart_and_compare(runtime, kVictim, before1, /*checkpoint epoch=*/1);

  // Crash 2, before the next checkpoint: the restored server took boundary
  // 3 (not 2, which has a log) and its store hangs as well. The restart
  // replays checkpoint 1 + logs 1, 2, 3.
  runtime.start();
  broadcast_some(runtime, 200, 6);
  ASSERT_EQ(sink.wait_held(/*appends=*/12), 3u);
  crash_while_held(runtime, sink, kVictim);
  runtime.stop();
  ASSERT_TRUE(runtime.wait_idle(std::chrono::seconds(10)));
  const ServerState before2 = state_after_gc(runtime, kVictim);
  EXPECT_TRUE(dirs.has(kVictim, "checkpoint-1.ckpt"));
  EXPECT_TRUE(dirs.has(kVictim, "blocks-3.log"));
  restart_and_compare(runtime, kVictim, before2, /*checkpoint epoch=*/1);

  rejoin_and_converge(runtime, n, 300, 6);
  EXPECT_GE(runtime.sync_snapshot(kVictim).checkpointer.checkpoints_stored, 1u)
      << "after the rejoin the victim checkpoints again (store 4 lands)";
}

TEST(CrashRestart, FailedStoreIsCountedOnceAndTheNextStoreRotates) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  const ServerId kVictim = 3;
  DataDirs dirs(n);
  testing::FailingSink sink(dirs.dir(kVictim));
  sink.fail_store(2);  // epoch 2: ENOSPC on the checkpoint write
  sink.hold_store(3);  // epoch 3: held so the test can look in between
  // What the data dir holds just before and just after epoch 3's store
  // (observed on the writer thread, so no later epoch can interfere).
  std::mutex mu;
  std::vector<bool> before_store3;
  std::vector<bool> after_store3;
  sink.observe_stores([&](std::uint64_t epoch, bool after, bool ok) {
    if (epoch != 3) return;
    std::lock_guard<std::mutex> lock(mu);
    std::vector<bool>& seen = after ? after_store3 : before_store3;
    seen = {dirs.has(kVictim, "checkpoint-1.ckpt"), dirs.has(kVictim, "blocks-1.log"),
            dirs.has(kVictim, "blocks-2.log"), dirs.has(kVictim, "checkpoint-3.ckpt"),
            dirs.has(kVictim, "blocks-3.log"), after ? ok : true};
  });
  ThreadedConfig cfg = crash_point_config();
  cfg.storage = [&](ServerId s) -> sync::StorageSink* {
    return s == kVictim ? static_cast<sync::StorageSink*>(&sink) : &dirs.dir(s);
  };
  ThreadedRuntime runtime(factory, cfg);
  const testing::FailingSink::HoldGuard release_on_exit(sink);
  runtime.start();
  broadcast_some(runtime, 100, 6);

  ASSERT_EQ(sink.wait_held(/*appends=*/4), 3u);
  // The failure was reported back and counted once, on the server thread;
  // epoch 1's files survive it.
  auto snap = runtime.sync_snapshot(kVictim);
  EXPECT_EQ(snap.checkpointer.store_failures, 1u);
  EXPECT_EQ(snap.checkpointer.checkpoints_stored, 1u);
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_EQ(sink.failures(), 1u);
  EXPECT_TRUE(dirs.has(kVictim, "checkpoint-1.ckpt"));
  EXPECT_FALSE(dirs.has(kVictim, "checkpoint-2.ckpt"));

  sink.release(/*land=*/true);
  ASSERT_TRUE(eventually([&] { return runtime.sync_snapshot(kVictim).epoch >= 3; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(before_store3, (std::vector<bool>{true, true, true, false, true, true}));
    EXPECT_EQ(after_store3, (std::vector<bool>{false, false, false, true, true, true}))
        << "checkpoint 3 landed and deleted every older epoch's files";
  }
  snap = runtime.sync_snapshot(kVictim);
  EXPECT_EQ(snap.checkpointer.store_failures, 1u);

  runtime.stop();
  ASSERT_TRUE(runtime.wait_idle(std::chrono::seconds(10)));
  runtime.crash(kVictim);
  const auto final_snap = runtime.sync_snapshot(kVictim);
  const ServerState before = state_after_gc(runtime, kVictim);
  restart_and_compare(runtime, kVictim, before, final_snap.epoch);
  rejoin_and_converge(runtime, n, 300, 6);
}

TEST(CrashRestart, FailedReceivedAppendIsCountedAndTheNextCheckpointCoversIt) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  const ServerId kVictim = 3;
  DataDirs dirs(n);
  testing::FailingSink sink(dirs.dir(kVictim));
  sink.fail_recv_append(5);  // EIO on one received block's log record
  ThreadedConfig cfg = crash_point_config();
  cfg.storage = [&](ServerId s) -> sync::StorageSink* {
    return s == kVictim ? static_cast<sync::StorageSink*>(&sink) : &dirs.dir(s);
  };
  ThreadedRuntime runtime(factory, cfg);
  runtime.start();
  broadcast_some(runtime, 100, 6);
  ASSERT_TRUE(eventually([&] { return sink.failures() == 1; }));
  const std::uint64_t stored_then =
      runtime.sync_snapshot(kVictim).checkpointer.checkpoints_stored;
  // A lost received record is benign: the server runs on, and the next
  // checkpoints capture the block from the live DAG.
  ASSERT_TRUE(eventually([&] {
    return runtime.sync_snapshot(kVictim).checkpointer.checkpoints_stored >=
           stored_then + 2;
  }));
  runtime.stop();
  ASSERT_TRUE(runtime.wait_idle(std::chrono::seconds(10)));
  runtime.crash(kVictim);
  const auto snap = runtime.sync_snapshot(kVictim);
  EXPECT_EQ(snap.checkpointer.store_failures, 1u);
  const ServerState before = state_after_gc(runtime, kVictim);
  restart_and_compare(runtime, kVictim, before, snap.epoch);
  rejoin_and_converge(runtime, n, 300, 6);
}

TEST(CrashRestart, RestartsFromADataDirInTheOneLogLayout) {
  // Data dirs written before boundary records existed hold checkpoint e
  // and one blocks-e.log with every block since. Rewrite the victim's
  // chain into that layout after the crash; the restart must not notice.
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  const ServerId kVictim = 3;
  DataDirs dirs(n);
  ThreadedConfig cfg = crash_point_config();
  cfg.storage = [&](ServerId s) { return &dirs.dir(s); };
  ThreadedRuntime runtime(factory, cfg);
  runtime.start();
  broadcast_some(runtime, 100, 6);
  ASSERT_TRUE(eventually([&] {
    return runtime.sync_snapshot(kVictim).checkpointer.checkpoints_stored >= 2;
  }));
  runtime.stop();
  ASSERT_TRUE(runtime.wait_idle(std::chrono::seconds(10)));
  runtime.crash(kVictim);
  const std::uint64_t epoch = runtime.sync_snapshot(kVictim).epoch;
  const ServerState before = state_after_gc(runtime, kVictim);

  // Merge logs epoch, epoch+1, … into blocks-<epoch>.log, boundaries out.
  std::vector<std::uint64_t> log_epochs;
  for (const auto& entry : std::filesystem::directory_iterator(dirs.path(kVictim))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("blocks-", 0) == 0) {
      log_epochs.push_back(std::stoull(name.substr(7)));
    }
  }
  std::sort(log_epochs.begin(), log_epochs.end());
  Bytes merged;
  std::size_t boundaries = 0;
  for (const std::uint64_t e : log_epochs) {
    ASSERT_GE(e, epoch);
    const std::string path = dirs.path(kVictim) + "/blocks-" + std::to_string(e) + ".log";
    std::ifstream in(path, std::ios::binary);
    const Bytes file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    for (const sync::LogRecord& r : sync::decode_log(file)) {
      if (r.kind == sync::LogKind::kEpochBoundary) {
        ++boundaries;
        continue;
      }
      const Bytes rec = sync::encode_log_record(r.kind, r.payload);
      merged.insert(merged.end(), rec.begin(), rec.end());
    }
    std::filesystem::remove(path);
  }
  EXPECT_GE(boundaries, 1u) << "the chain had boundary records to strip";
  {
    std::ofstream out(dirs.path(kVictim) + "/blocks-" + std::to_string(epoch) + ".log",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(merged.data()),
              static_cast<std::streamsize>(merged.size()));
  }
  restart_and_compare(runtime, kVictim, before, epoch);
  rejoin_and_converge(runtime, n, 300, 6);
}

TEST(CrashRestart, FreshLateJoinerSyncsFromPeers) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  const ServerId kJoiner = 3;
  ThreadedConfig cfg = recovery_config(n);
  std::vector<sync::MemStore> stores(n);
  cfg.storage = [&stores](ServerId s) { return &stores[s]; };
  ThreadedRuntime runtime(factory, cfg);
  runtime.start();
  // The joiner is down from the first beat: it never disseminates, so it
  // has no tip anywhere and no peer GCs — the full DAG stays syncable.
  runtime.crash(kJoiner);

  for (int i = 0; i < 12; ++i) {
    runtime.request(i % (n - 1), 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the survivors build some history before the joiner appears.
  ASSERT_TRUE(eventually([&] {
    return runtime.call(ServerId{0}, [](Shim& shim) {
             return shim.gossip().stats().blocks_inserted;
           }) > 10;
  }));

  ASSERT_TRUE(runtime.restart(kJoiner));  // empty store: restore is a no-op
  ASSERT_TRUE(eventually(
      [&] { return runtime.sync_snapshot(kJoiner).sync_completed; }));
  const bool quiesced = runtime.quiesce_and_converge();
  if (!quiesced) {
    for (ServerId s = 0; s < n; ++s) {
      runtime.call(s, [s](Shim& shim) {
        const auto& g = shim.gossip().stats();
        fprintf(stderr,
                "server %u: dag=%zu pending=%zu fwd_sent=%llu replies=%llu "
                "inserted=%llu pruned=%llu\n",
                s, shim.dag().size(), shim.gossip().pending_blocks(),
                (unsigned long long)g.fwd_requests_sent,
                (unsigned long long)g.fwd_replies_sent,
                (unsigned long long)g.blocks_inserted,
                (unsigned long long)g.blocks_pruned);
      });
    }
  }
  ASSERT_TRUE(quiesced);
  expect_all_digests_equal(runtime, n);

  const auto joiner = runtime.sync_snapshot(kJoiner);
  EXPECT_FALSE(joiner.restore.restored) << "there was nothing on disk";
  EXPECT_GE(joiner.sync.completions, 1u);
  EXPECT_GT(joiner.sync.blocks_added, 0u) << "sync delivered no blocks";
}

TEST(CrashRestart, WindowedSyncAcrossMismatchedChunkConfigs) {
  // Two review-driven properties of the transfer protocol in one run:
  // (1) chunk geometry rides in the manifest, so a provider configured
  // with a different chunk_bytes than the requester still syncs (before
  // the fix every manifest was rejected as "absurd" and sync rotated
  // forever); (2) the provider sends at most chunks_per_request chunks
  // per request and the requester pulls window after window, so a
  // payload this size takes several requests, never one full-DAG burst.
  brb::BrbFactory factory;
  const std::uint32_t n = 3;
  const ServerId kJoiner = 2;
  ThreadedConfig cfg = recovery_config(n);
  cfg.sync.chunk_bytes = 64;        // requester's own (unused) geometry
  cfg.sync.chunks_per_request = 2;  // tiny windows: force many rounds
  cfg.sync_tweak = [](ServerId s, sync::SyncConfig& c) {
    if (s != kJoiner) c.chunk_bytes = 96;  // providers slice differently
  };
  std::vector<sync::MemStore> stores(n);
  cfg.storage = [&stores](ServerId s) { return &stores[s]; };
  ThreadedRuntime runtime(factory, cfg);
  runtime.start();
  runtime.crash(kJoiner);  // fresh late joiner: syncs the full DAG

  for (int i = 0; i < 12; ++i) {
    runtime.request(i % (n - 1), 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(eventually([&] {
    return runtime.call(ServerId{0}, [](Shim& shim) {
             return shim.gossip().stats().blocks_inserted;
           }) > 10;
  }));

  ASSERT_TRUE(runtime.restart(kJoiner));
  ASSERT_TRUE(eventually(
      [&] { return runtime.sync_snapshot(kJoiner).sync_completed; }));
  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_all_digests_equal(runtime, n);

  const auto joiner = runtime.sync_snapshot(kJoiner);
  EXPECT_GE(joiner.sync.completions, 1u);
  EXPECT_GT(joiner.sync.chunks_received, 2u)
      << "payload should span more than one 2-chunk window";
  EXPECT_GT(joiner.sync.requests_sent, 1u)
      << "a windowed transfer takes one request per window";
}

TEST(CrashRestart, CorruptStorageRefusedAtConstructionAndRestart) {
  brb::BrbFactory factory;
  const std::uint32_t n = 2;
  std::vector<sync::MemStore> stores(n);
  // Garbage that passes no decode stage: load_latest succeeds (MemStore
  // has no CRC layer of its own) but the checkpoint refuses to decode.
  stores[1].store_checkpoint(1, Bytes{0xde, 0xad, 0xbe, 0xef});

  ThreadedConfig cfg = recovery_config(n);
  cfg.storage = [&stores](ServerId s) { return &stores[s]; };
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_EQ(runtime.restore_failures().size(), 1u);
  EXPECT_EQ(runtime.restore_failures()[0], ServerId{1});

  // A restart over the same corrupt sink fails the same way, and the
  // incarnation stays halted rather than running half-restored.
  EXPECT_FALSE(runtime.restart(ServerId{1}));
  runtime.shutdown();
}

}  // namespace
}  // namespace blockdag
