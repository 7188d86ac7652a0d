// On-disk durability (src/sync/storage): checkpoint file format, the
// append-only block log, epoch rotation, torn-tail repair (discard AND
// on-disk truncation, so re-appends stay replayable) and corrupt-newest
// refusal — everything `simctl serve --data-dir` leans on when a
// SIGKILLed member restarts over the same directory.
#include "sync/storage.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dag/block.h"

namespace blockdag {
namespace {

using sync::DataDir;
using sync::DataDirConfig;
using sync::LogKind;
using sync::LogRecord;
using sync::MemStore;

// Scratch directory under the test's cwd (the build tree), removed on
// destruction so repeated ctest runs start clean.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "storage_test_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (path.empty()) return;
    if (DIR* dir = ::opendir(path.c_str())) {
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

Bytes some_bytes(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return out;
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

void write_raw(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(StorageCodec, CheckpointFileRoundTripsAndRejectsEveryMutation) {
  const Bytes payload = some_bytes(97, 3);
  const Bytes file = sync::encode_checkpoint_file(payload);

  auto decoded = sync::decode_checkpoint_file(file);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);

  // Every proper prefix is rejected (torn writes never reach load_latest
  // thanks to write-tmp→rename, but a corrupted disk can still truncate).
  for (std::size_t len = 0; len < file.size(); ++len) {
    const Bytes torn(file.begin(), file.begin() + len);
    EXPECT_FALSE(sync::decode_checkpoint_file(torn).has_value())
        << "prefix of length " << len << " decoded";
  }
  // Every single-byte flip is rejected: magic, version, CRC field or the
  // CRC-covered payload.
  for (std::size_t i = 0; i < file.size(); ++i) {
    Bytes flipped = file;
    flipped[i] ^= 0xff;
    EXPECT_FALSE(sync::decode_checkpoint_file(flipped).has_value())
        << "flip at byte " << i << " decoded";
  }
  // Trailing garbage is rejected too (the format is self-delimiting).
  Bytes padded = file;
  padded.push_back(0x00);
  EXPECT_FALSE(sync::decode_checkpoint_file(padded).has_value());
}

TEST(StorageCodec, LogDecodeStopsAtTheTear) {
  const std::vector<LogRecord> records = {
      {LogKind::kOwnBlock, some_bytes(21, 1)},
      {LogKind::kRecvBlock, some_bytes(34, 2)},
      {LogKind::kOwnBlock, some_bytes(5, 3)},
  };
  Bytes file;
  std::vector<std::size_t> ends;  // byte offset where record i completes
  for (const LogRecord& rec : records) {
    const Bytes enc = sync::encode_log_record(rec.kind, rec.payload);
    file.insert(file.end(), enc.begin(), enc.end());
    ends.push_back(file.size());
  }

  const std::vector<LogRecord> full = sync::decode_log(file);
  ASSERT_EQ(full.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(static_cast<int>(full[i].kind), static_cast<int>(records[i].kind));
    EXPECT_EQ(full[i].payload, records[i].payload);
  }

  // Truncate at EVERY byte: replay returns exactly the records that end
  // before the tear, each intact — never a partial or shifted record —
  // and reports the valid-prefix offset load_latest truncates the file
  // to (the end of the last intact record).
  for (std::size_t len = 0; len <= file.size(); ++len) {
    const Bytes torn(file.begin(), file.begin() + len);
    std::size_t prefix = 0;
    const std::vector<LogRecord> got = sync::decode_log(torn, prefix);
    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= len) ++expected;
    ASSERT_EQ(got.size(), expected) << "truncated at " << len;
    EXPECT_EQ(prefix, expected == 0 ? 0 : ends[expected - 1])
        << "truncated at " << len;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].payload, records[i].payload);
    }
  }

  // A flipped byte inside record 1 stops replay after record 0: bytes past
  // a corrupt record cannot be trusted to be framed correctly.
  Bytes corrupt = file;
  corrupt[ends[0] + 11] ^= 0xff;
  EXPECT_EQ(sync::decode_log(corrupt).size(), 1u);

  // A forged length pointing past the buffer is a torn tail, not a crash.
  Bytes forged = file;
  forged[ends[0]] = 0xff;
  forged[ends[0] + 1] = 0xff;
  forged[ends[0] + 2] = 0xff;
  forged[ends[0] + 3] = 0xff;
  EXPECT_EQ(sync::decode_log(forged).size(), 1u);
}

TEST(StorageDataDir, StatePersistsAcrossReopen) {
  TempDir tmp;
  const Bytes ckpt = some_bytes(64, 9);
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.ok());
    EXPECT_TRUE(dir.store_checkpoint(1, ckpt));
    EXPECT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(10, 4)));
    EXPECT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(12, 5)));
  }
  DataDir reopened(tmp.path);
  ASSERT_TRUE(reopened.ok());
  std::uint64_t epoch = 99;
  Bytes loaded;
  std::vector<LogRecord> log;
  ASSERT_TRUE(reopened.load_latest(epoch, loaded, log));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(loaded, ckpt);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(static_cast<int>(log[0].kind), static_cast<int>(LogKind::kOwnBlock));
  EXPECT_EQ(log[0].payload, some_bytes(10, 4));
  EXPECT_EQ(log[1].payload, some_bytes(12, 5));

  // Appends after a load continue the loaded epoch's log.
  EXPECT_TRUE(reopened.append_block(LogKind::kRecvBlock, some_bytes(3, 6)));
  DataDir again(tmp.path);
  ASSERT_TRUE(again.load_latest(epoch, loaded, log));
  EXPECT_EQ(log.size(), 3u);
}

TEST(StorageDataDir, RotationDropsSubsumedEpochs) {
  TempDir tmp;
  DataDir dir(tmp.path);
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir.store_checkpoint(1, some_bytes(16, 1)));
  EXPECT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(8, 2)));
  EXPECT_TRUE(dir.store_checkpoint(2, some_bytes(16, 3)));

  // Epoch-1 files are gone: disk usage tracks the live DAG, not history.
  EXPECT_FALSE(file_exists(tmp.path + "/checkpoint-1.ckpt"));
  EXPECT_FALSE(file_exists(tmp.path + "/blocks-1.log"));
  EXPECT_TRUE(file_exists(tmp.path + "/checkpoint-2.ckpt"));

  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(ckpt, some_bytes(16, 3));
  EXPECT_TRUE(log.empty()) << "rotation must truncate the block log";
}

TEST(StorageDataDir, CorruptNewestCheckpointRefusesToLoad) {
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(40, 7)));
    ASSERT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(6, 8)));
  }
  // A later checkpoint whose bytes rotted on disk (flip inside the
  // CRC-covered region). Written by hand: rename-atomicity means only
  // media corruption — not a torn write — can produce this file. Falling
  // back to epoch 1 would be amnesia in the real sequence of events
  // (rotation would already have unlinked blocks-1.log, silently dropping
  // every block since and regressing next_k into sequence reuse), so the
  // load must be refused outright — the server halts / simctl exits 3.
  Bytes rotten = sync::encode_checkpoint_file(some_bytes(40, 9));
  rotten[rotten.size() - 1] ^= 0xff;
  write_raw(tmp.path + "/checkpoint-2.ckpt", rotten);

  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  EXPECT_FALSE(dir.load_latest(epoch, ckpt, log))
      << "corrupt newest checkpoint must refuse, not fall back";
  EXPECT_TRUE(ckpt.empty());
  EXPECT_TRUE(log.empty());
}

TEST(StorageDataDir, TornLogTailIsDiscardedOnLoad) {
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(16, 1)));
    for (std::uint8_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, i)));
    }
  }
  // SIGKILL mid-append: the tail of the last record never hit the file.
  const std::string log_file = tmp.path + "/blocks-1.log";
  struct stat st{};
  ASSERT_EQ(::stat(log_file.c_str(), &st), 0);
  ASSERT_EQ(::truncate(log_file.c_str(), st.st_size - 3), 0);

  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  ASSERT_EQ(log.size(), 2u) << "torn third record should be dropped";
  EXPECT_EQ(log[0].payload, some_bytes(20, 0));
  EXPECT_EQ(log[1].payload, some_bytes(20, 1));

  // The tear is repaired ON DISK, not just skipped in memory: the file
  // now ends exactly where the last valid record does.
  ASSERT_EQ(::stat(log_file.c_str(), &st), 0);
  Bytes repaired_file;
  {
    std::ifstream in(log_file, std::ios::binary);
    repaired_file.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  }
  const Bytes rec0 = sync::encode_log_record(LogKind::kOwnBlock, some_bytes(20, 0));
  const Bytes rec1 = sync::encode_log_record(LogKind::kOwnBlock, some_bytes(20, 1));
  EXPECT_EQ(repaired_file.size(), rec0.size() + rec1.size());
}

TEST(StorageDataDir, AppendsAfterTornTailSurviveTheNextReplay) {
  // The crash-recovery double-fault: SIGKILL tears the log tail, the
  // server restarts and appends new blocks, then crashes again. If the
  // torn bytes were still on disk, the re-opened O_APPEND log would put
  // the new records BEHIND the tear, where the next replay (which stops
  // at the tear) cannot see them — own blocks silently vanish, next_k
  // regresses and the server re-uses sequence numbers. load_latest must
  // truncate the tear away so post-restart appends stay replayable.
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(16, 1)));
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, 0)));
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, 1)));
  }
  const std::string log_file = tmp.path + "/blocks-1.log";
  struct stat st{};
  ASSERT_EQ(::stat(log_file.c_str(), &st), 0);
  ASSERT_EQ(::truncate(log_file.c_str(), st.st_size - 3), 0);  // crash #1

  {
    DataDir dir(tmp.path);
    std::uint64_t epoch = 0;
    Bytes ckpt;
    std::vector<LogRecord> log;
    ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
    ASSERT_EQ(log.size(), 1u);
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, 2)));
  }  // crash #2 (clean close, but the file is whatever appends left)

  DataDir again(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(again.load_latest(epoch, ckpt, log));
  ASSERT_EQ(log.size(), 2u) << "post-restart append lost behind the tear";
  EXPECT_EQ(log[0].payload, some_bytes(20, 0));
  EXPECT_EQ(static_cast<int>(log[1].kind),
            static_cast<int>(LogKind::kOwnBlock));
  EXPECT_EQ(log[1].payload, some_bytes(20, 2));
}

TEST(StorageDataDir, PreCheckpointAppendsLandInEpochZero) {
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(9, 2)));
  }
  DataDir dir(tmp.path);
  std::uint64_t epoch = 7;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 0u);
  EXPECT_TRUE(ckpt.empty());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].payload, some_bytes(9, 2));
}

TEST(StorageDataDir, EmptyDirectoryIsFreshNotAnError) {
  TempDir tmp;
  DataDir dir(tmp.path);
  std::uint64_t epoch = 7;
  Bytes ckpt = some_bytes(4, 1);
  std::vector<LogRecord> log(3);
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 0u);
  EXPECT_TRUE(ckpt.empty());
  EXPECT_TRUE(log.empty());
}

TEST(StorageDataDir, UncreatableRootFailsClosed) {
  DataDir dir("/proc/blockdag-no-such-dir/data");
  EXPECT_FALSE(dir.ok());
  EXPECT_FALSE(dir.store_checkpoint(1, some_bytes(4, 1)));
  EXPECT_FALSE(dir.append_block(LogKind::kOwnBlock, some_bytes(4, 2)));
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  EXPECT_FALSE(dir.load_latest(epoch, ckpt, log));
}

TEST(StorageDataDir, FsyncAppendsModeWorks) {
  TempDir tmp;
  DataDirConfig config;
  config.fsync_appends = true;
  DataDir dir(tmp.path, config);
  ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(8, 1)));
  ASSERT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(8, 2)));
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(log.size(), 1u);
}

TEST(StorageDataDir, RestoresTheNewestOfManyEpochs) {
  // Rotation leaves only the newest epoch on disk, so its number can sit
  // far above 1: the loader must find it by listing, not by probing epochs
  // from 1 up (which gave up after a few misses and came back empty — a
  // restart then re-issued sequence numbers its peers already held).
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    for (std::uint8_t e = 1; e <= 8; ++e) {
      ASSERT_TRUE(dir.store_checkpoint(e, some_bytes(16, e)));
      ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(8, 100 + e)));
    }
  }
  EXPECT_FALSE(file_exists(tmp.path + "/checkpoint-7.ckpt"));
  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 8u);
  EXPECT_EQ(ckpt, some_bytes(16, 8));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].payload, some_bytes(8, 108));
}

TEST(StorageDataDir, BoundaryRecordsChainTheLogsUntilTheStoreLands) {
  // The two-phase epoch step: boundary e starts epoch e's log on the
  // server thread; checkpoint e is stored later. Until it lands, the chain
  // is checkpoint e-1 + logs e-1, e; once it lands, older epochs go.
  TempDir tmp;
  DataDir dir(tmp.path);
  ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(16, 1)));
  ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(8, 2)));
  ASSERT_TRUE(dir.append_block(LogKind::kEpochBoundary,
                               sync::epoch_boundary_payload(2)));
  ASSERT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(8, 3)));
  ASSERT_TRUE(dir.append_block(LogKind::kEpochBoundary,
                               sync::epoch_boundary_payload(3)));
  ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(8, 4)));
  EXPECT_TRUE(file_exists(tmp.path + "/blocks-2.log"));
  EXPECT_TRUE(file_exists(tmp.path + "/blocks-3.log"));

  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  {
    DataDir reopened(tmp.path);
    ASSERT_TRUE(reopened.load_latest(epoch, ckpt, log));
  }
  EXPECT_EQ(epoch, 1u);
  ASSERT_EQ(log.size(), 5u) << "logs 1, 2 and 3, boundaries included, in order";
  EXPECT_EQ(log[0].payload, some_bytes(8, 2));
  EXPECT_EQ(static_cast<int>(log[1].kind), static_cast<int>(LogKind::kEpochBoundary));
  EXPECT_EQ(sync::decode_epoch_boundary(log[1].payload), std::optional<std::uint64_t>(2));
  EXPECT_EQ(log[2].payload, some_bytes(8, 3));
  EXPECT_EQ(sync::decode_epoch_boundary(log[3].payload), std::optional<std::uint64_t>(3));
  EXPECT_EQ(log[4].payload, some_bytes(8, 4));

  // Checkpoint 2 lands (the writer was late): epoch 1 goes, epoch 3's log
  // — already past the boundary the store belongs to — stays.
  ASSERT_TRUE(dir.store_checkpoint(2, some_bytes(16, 5)));
  EXPECT_FALSE(file_exists(tmp.path + "/checkpoint-1.ckpt"));
  EXPECT_FALSE(file_exists(tmp.path + "/blocks-1.log"));
  EXPECT_TRUE(file_exists(tmp.path + "/blocks-2.log"));
  ASSERT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(8, 6)));
  DataDir again(tmp.path);
  ASSERT_TRUE(again.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 2u);
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[1].payload, some_bytes(8, 3));
  EXPECT_EQ(log[3].payload, some_bytes(8, 4));
  // The append after the store went to the newest log, not a deleted one.
  EXPECT_EQ(log[4].payload, some_bytes(8, 6));
}

TEST(StorageDataDir, AHeadlessLogStillReservesItsEpoch) {
  // A kill can tear a new log's very first record, its boundary. The file
  // still proves the epoch was used, so the loader reports the boundary.
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.store_checkpoint(4, some_bytes(16, 1)));
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(8, 2)));
  }
  write_raw(tmp.path + "/blocks-5.log", Bytes{0x01, 0x02});  // torn header
  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 4u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].payload, some_bytes(8, 2));
  EXPECT_EQ(sync::decode_epoch_boundary(log[1].payload), std::optional<std::uint64_t>(5));
  // Appends continue in the repaired newest log.
  ASSERT_TRUE(dir.append_block(LogKind::kRecvBlock, some_bytes(8, 3)));
  DataDir again(tmp.path);
  ASSERT_TRUE(again.load_latest(epoch, ckpt, log));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].payload, some_bytes(8, 3));
}

TEST(StorageDataDir, ATearInsideTheChainIsRefused) {
  // Only the newest log can be torn by a kill; a tear in an older one
  // would replay the newer logs behind a gap.
  TempDir tmp;
  {
    DataDir dir(tmp.path);
    ASSERT_TRUE(dir.store_checkpoint(1, some_bytes(16, 1)));
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, 2)));
    ASSERT_TRUE(dir.append_block(LogKind::kEpochBoundary,
                                 sync::epoch_boundary_payload(2)));
    ASSERT_TRUE(dir.append_block(LogKind::kOwnBlock, some_bytes(20, 3)));
  }
  const std::string older = tmp.path + "/blocks-1.log";
  struct stat st{};
  ASSERT_EQ(::stat(older.c_str(), &st), 0);
  ASSERT_EQ(::truncate(older.c_str(), st.st_size - 3), 0);
  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  EXPECT_FALSE(dir.load_latest(epoch, ckpt, log));
  EXPECT_TRUE(log.empty());
}

TEST(StorageDataDir, AParentLayoutDirLoadsAsAOneLogChain) {
  // A data dir written before boundary records existed: checkpoint e and
  // blocks-e.log holding every block since, nothing else.
  TempDir tmp;
  write_raw(tmp.path + "/checkpoint-6.ckpt",
            sync::encode_checkpoint_file(some_bytes(16, 1)));
  Bytes log_file = sync::encode_log_record(LogKind::kOwnBlock, some_bytes(8, 2));
  const Bytes second = sync::encode_log_record(LogKind::kRecvBlock, some_bytes(8, 3));
  log_file.insert(log_file.end(), second.begin(), second.end());
  write_raw(tmp.path + "/blocks-6.log", log_file);
  DataDir dir(tmp.path);
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 6u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].payload, some_bytes(8, 2));
  EXPECT_EQ(log[1].payload, some_bytes(8, 3));
}

TEST(StorageDataDir, RotationDeletesStaleTempFilesAndIgnoresStrangers) {
  TempDir tmp;
  DataDir dir(tmp.path);
  write_raw(tmp.path + "/checkpoint-1.ckpt.tmp", some_bytes(4, 1));
  write_raw(tmp.path + "/notes.txt", some_bytes(4, 2));
  write_raw(tmp.path + "/blocks-x.log", some_bytes(4, 3));
  ASSERT_TRUE(dir.store_checkpoint(2, some_bytes(16, 4)));
  EXPECT_FALSE(file_exists(tmp.path + "/checkpoint-1.ckpt.tmp"));
  EXPECT_TRUE(file_exists(tmp.path + "/notes.txt"));
  EXPECT_TRUE(file_exists(tmp.path + "/blocks-x.log"));
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(dir.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 2u);
}

TEST(StorageMemStore, ChainsLogsLikeTheDataDir) {
  MemStore store;
  ASSERT_TRUE(store.store_checkpoint(1, some_bytes(10, 1)));
  ASSERT_TRUE(store.append_block(LogKind::kOwnBlock, some_bytes(4, 2)));
  ASSERT_TRUE(store.append_block(LogKind::kEpochBoundary,
                                 sync::epoch_boundary_payload(2)));
  ASSERT_TRUE(store.append_block(LogKind::kRecvBlock, some_bytes(4, 3)));
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 1u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(static_cast<int>(log[1].kind), static_cast<int>(LogKind::kEpochBoundary));
  ASSERT_TRUE(store.store_checkpoint(2, some_bytes(10, 4)));
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 2u);
  ASSERT_EQ(log.size(), 2u) << "epoch 2's log survives its own store";
  EXPECT_EQ(log[1].payload, some_bytes(4, 3));
}

// The runtime's thread split on one sink: the server thread appends
// blocks and boundary records while a writer thread stores the previous
// epoch's checkpoint, one store in flight at a time. Under ThreadSanitizer
// this is the race the sinks must be free of; here it also checks that
// no record is lost to a store's rotation.
void race_appends_against_stores(sync::StorageSink& sink) {
  constexpr std::uint64_t kEpochs = 12;
  constexpr std::uint8_t kPerEpoch = 20;
  std::thread writer;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    if (writer.joinable()) writer.join();  // at most one store in flight
    ASSERT_TRUE(sink.append_block(LogKind::kEpochBoundary,
                                  sync::epoch_boundary_payload(e)));
    writer = std::thread([&sink, e] {
      EXPECT_TRUE(sink.store_checkpoint(e, some_bytes(64, static_cast<std::uint8_t>(e))));
    });
    for (std::uint8_t i = 0; i < kPerEpoch; ++i) {
      ASSERT_TRUE(sink.append_block(LogKind::kRecvBlock,
                                    some_bytes(12, static_cast<std::uint8_t>(e * 31 + i))));
    }
  }
  writer.join();
  std::uint64_t epoch = 0;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(sink.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, kEpochs);
  EXPECT_EQ(ckpt, some_bytes(64, static_cast<std::uint8_t>(kEpochs)));
  ASSERT_EQ(log.size(), 1u + kPerEpoch);
  EXPECT_EQ(sync::decode_epoch_boundary(log[0].payload),
            std::optional<std::uint64_t>(kEpochs));
  for (std::uint8_t i = 0; i < kPerEpoch; ++i) {
    EXPECT_EQ(log[1 + i].payload,
              some_bytes(12, static_cast<std::uint8_t>(kEpochs * 31 + i)));
  }
}

TEST(StorageDataDir, AppendsRaceAWriterSideStoreWithoutLoss) {
  TempDir tmp;
  DataDir dir(tmp.path);
  race_appends_against_stores(dir);
}

TEST(StorageMemStore, AppendsRaceAWriterSideStoreWithoutLoss) {
  MemStore store;
  race_appends_against_stores(store);
}

TEST(StorageCodec, EpochBoundaryPayloadIsNoBlock) {
  const Bytes payload = sync::epoch_boundary_payload(42);
  EXPECT_EQ(sync::decode_epoch_boundary(payload), std::optional<std::uint64_t>(42));
  EXPECT_FALSE(sync::decode_epoch_boundary(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(Block::decode(payload).has_value());
  // The log codec carries it like any other record.
  const auto back = sync::decode_log(sync::encode_log_record(LogKind::kEpochBoundary, payload));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(static_cast<int>(back[0].kind), static_cast<int>(LogKind::kEpochBoundary));
}

TEST(StorageMemStore, MirrorsDataDirSemantics) {
  MemStore store;
  std::uint64_t epoch = 9;
  Bytes ckpt;
  std::vector<LogRecord> log;
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 0u);
  EXPECT_TRUE(ckpt.empty());

  EXPECT_TRUE(store.append_block(LogKind::kOwnBlock, some_bytes(4, 1)));
  EXPECT_TRUE(store.store_checkpoint(1, some_bytes(10, 2)));  // rotates
  EXPECT_TRUE(store.append_block(LogKind::kRecvBlock, some_bytes(4, 3)));
  ASSERT_TRUE(store.load_latest(epoch, ckpt, log));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(ckpt, some_bytes(10, 2));
  ASSERT_EQ(log.size(), 1u) << "pre-checkpoint append must be rotated away";
  EXPECT_EQ(log[0].payload, some_bytes(4, 3));
}

}  // namespace
}  // namespace blockdag
