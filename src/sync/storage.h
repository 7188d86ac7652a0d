// Durable per-server storage: checkpoints plus a chain of append-only
// block logs.
//
// Two record families per epoch e:
//   checkpoint-<e>.ckpt  — magic "BDCK", format version, CRC32, then the
//                          signed checkpoint bytes. Written write-tmp →
//                          fsync → rename, so a kill mid-write leaves
//                          either the old checkpoint or the new one,
//                          never a torn file.
//   blocks-<e>.log       — append-only records of every block inserted
//                          from epoch e's boundary on, in insertion order:
//                          u32 length | u8 version | u8 kind | u32 crc |
//                          payload. A SIGKILL can tear the tail; replay
//                          stops at the first record whose length or CRC
//                          does not check out, discards the rest (the
//                          cluster re-delivers anything lost via state
//                          sync), and load_latest truncates the file to
//                          the valid prefix so post-restart appends never
//                          land behind torn bytes replay cannot reach.
//
// The log chain. An epoch step is cut in two (sync/checkpointer.h): the
// server thread snapshots its state and appends a kEpochBoundary record
// for epoch e, which starts blocks-<e>.log; a writer thread later stores
// checkpoint e. Blocks the server inserts in between land in epoch e's
// log, never in one the store then deletes. The invariants:
//   * checkpoint e captures exactly the blocks logged before boundary e,
//     so checkpoint e plus logs e, e+1, … in order is the whole state;
//   * store_checkpoint(e) deletes files of epochs below e only, and only
//     after checkpoint e is durable — a failed or interrupted store leaves
//     checkpoint e-1 and its logs, still a complete chain;
//   * load_latest returns the newest checkpoint and every log from its
//     epoch on, boundary records included, so a restarted Checkpointer
//     never reuses an epoch number that already has a log;
//   * epochs are found by listing the directory, never by probing
//     numbers (rotation leaves only the newest epochs on disk).
// A data dir written before boundary records existed is the special case
// of a chain with one log. Appends are NOT fsynced by default: a SIGKILL
// (the fault the kill/restart harness injects) never loses page cache,
// only a power failure does, and the state-sync path recovers from that
// too. Set DataDirConfig::fsync_appends for the paranoid mode.
//
// Threads: append_block runs on the server thread, store_checkpoint on its
// checkpoint writer, and the two may overlap; load_latest runs only while
// no writer job is in flight (restore). Both sinks below are safe under
// that split.
//
// StorageSink is the seam: DataDir is the on-disk implementation the
// multi-process runtime uses; MemStore backs in-process crash/restart
// tests (and fuzzing) without touching a filesystem.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace blockdag::sync {

inline constexpr std::uint8_t kStorageVersion = 1;

// Block-log record kinds. The builder is recoverable from the block bytes;
// the kind byte keeps replay independent of decode order and versionable.
enum class LogKind : std::uint8_t {
  kOwnBlock = 1,   // built by this server (replay restores next_k/preds)
  kRecvBlock = 2,  // received from a peer
  // Epoch e's boundary: the sink starts blocks-<e>.log with it. Its payload
  // (epoch_boundary_payload) is no block; replay skips it.
  kEpochBoundary = 3,
};

// An 8-byte payload naming the epoch; fails Block::decode by length.
Bytes epoch_boundary_payload(std::uint64_t epoch);
std::optional<std::uint64_t> decode_epoch_boundary(const Bytes& payload);

struct LogRecord {
  LogKind kind;
  Bytes payload;
};

class StorageSink {
 public:
  virtual ~StorageSink() = default;

  // Durably stores the signed checkpoint for `epoch`, then drops the files
  // of every older epoch. If no boundary record for `epoch` came first
  // (a caller storing in one step), the store also starts epoch's log.
  virtual bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) = 0;

  // Appends one record to the current log. A kEpochBoundary record starts
  // the log of the epoch it names (and is that log's first record).
  virtual bool append_block(LogKind kind, const Bytes& payload) = 0;

  // Loads the newest checkpoint (empty bytes if none was ever stored) and
  // the records of every log from its epoch on, in order, tolerating — and
  // repairing — a torn tail on the newest log. False on unreadable storage
  // AND on a newest checkpoint that fails to decode: falling back to an
  // older epoch whose log rotation already deleted would silently lose
  // every block since (amnesia → sequence reuse), so corrupt storage is
  // refused outright. A tear inside an older log of the chain is refused
  // too: the records after it would replay behind a gap.
  virtual bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                           std::vector<LogRecord>& log) = 0;
};

struct DataDirConfig {
  bool fsync_appends = false;
};

// Filesystem-backed sink rooted at `dir` (created if missing).
class DataDir final : public StorageSink {
 public:
  explicit DataDir(std::string dir, DataDirConfig config = {});
  ~DataDir() override;

  // False if the directory could not be created/opened.
  bool ok() const { return ok_; }

  bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) override;
  bool append_block(LogKind kind, const Bytes& payload) override;
  bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                   std::vector<LogRecord>& log) override;

 private:
  // Opens `epoch`'s log as the append target (caller holds mu_).
  bool open_log(std::uint64_t epoch, bool truncate);
  bool write_record(int fd, LogKind kind, const Bytes& payload);

  const std::string dir_;
  const DataDirConfig config_;
  bool ok_ = false;
  // The append target. Guarded because a one-step store_checkpoint may
  // rotate it from the writer thread while the server thread appends.
  std::mutex mu_;
  std::uint64_t epoch_ = 0;  // epoch the open log belongs to
  int log_fd_ = -1;
};

// In-memory sink for in-process crash/restart tests and fuzzing, with the
// DataDir's chain semantics. One mutex guards it: the server thread
// appends while the writer thread stores.
class MemStore final : public StorageSink {
 public:
  MemStore() = default;
  // Movable while unused, so it can live in a std::vector.
  MemStore(MemStore&& other) noexcept;

  bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) override;
  bool append_block(LogKind kind, const Bytes& payload) override;
  bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                   std::vector<LogRecord>& log) override;

 private:
  std::mutex mu_;
  std::uint64_t checkpoint_epoch_ = 0;
  Bytes checkpoint_;
  std::uint64_t log_epoch_ = 0;  // the log appends go to
  std::map<std::uint64_t, std::vector<LogRecord>> logs_;
};

// Serialization of the two on-disk formats, exposed for tests/fuzzing.
Bytes encode_checkpoint_file(const Bytes& signed_checkpoint);
std::optional<Bytes> decode_checkpoint_file(const Bytes& file);
Bytes encode_log_record(LogKind kind, const Bytes& payload);
// Parses records until the bytes run out or a record fails its length or
// CRC check (torn tail): everything before the tear is returned. The
// second form also reports the byte length of the valid prefix — the
// offset the file must be truncated to before it is appended to again.
std::vector<LogRecord> decode_log(const Bytes& file);
std::vector<LogRecord> decode_log(const Bytes& file,
                                  std::size_t& valid_prefix);

}  // namespace blockdag::sync
