#include "sync/storage.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>

#include "util/crc32.h"
#include "util/serialize.h"

namespace blockdag::sync {

namespace {

constexpr char kCheckpointMagic[4] = {'B', 'D', 'C', 'K'};

std::string ckpt_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/checkpoint-" + std::to_string(epoch) + ".ckpt";
}

std::string log_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/blocks-" + std::to_string(epoch) + ".log";
}

// One epoch-numbered file of a data dir, as found by listing it.
struct EpochFile {
  enum Kind { kCheckpoint, kCheckpointTmp, kLog } kind;
  std::uint64_t epoch;
  std::string name;
};

// Parses "<prefix><digits><suffix>"; nullopt for any other name.
std::optional<std::uint64_t> epoch_in(const std::string& name,
                                      const std::string& prefix,
                                      const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  std::uint64_t epoch = 0;
  const auto [end, ec] = std::from_chars(first, last, epoch);
  if (ec != std::errc() || end != last) return std::nullopt;
  return epoch;
}

// Every checkpoint, stale checkpoint temp file and log in `dir`, sorted by
// epoch. Empty with ok = false when the directory cannot be read.
std::vector<EpochFile> list_epoch_files(const std::string& dir, bool& ok) {
  std::vector<EpochFile> files;
  DIR* d = ::opendir(dir.c_str());
  ok = d != nullptr;
  if (!ok) return files;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (auto e = epoch_in(name, "checkpoint-", ".ckpt")) {
      files.push_back({EpochFile::kCheckpoint, *e, name});
    } else if (auto t = epoch_in(name, "checkpoint-", ".ckpt.tmp")) {
      files.push_back({EpochFile::kCheckpointTmp, *t, name});
    } else if (auto l = epoch_in(name, "blocks-", ".log")) {
      files.push_back({EpochFile::kLog, *l, name});
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end(),
            [](const EpochFile& a, const EpochFile& b) {
              return a.epoch < b.epoch;
            });
  return files;
}

bool read_file(const std::string& path, Bytes& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return !in.bad();
}

// write-tmp → fsync(file) → rename → fsync(dir): the rename is atomic, so
// a kill at any point leaves either no file or a complete one.
bool write_file_durably(const std::string& dir, const std::string& path,
                        const Bytes& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace

Bytes epoch_boundary_payload(std::uint64_t epoch) {
  Writer w;
  w.u64(epoch);
  return std::move(w).take();
}

std::optional<std::uint64_t> decode_epoch_boundary(const Bytes& payload) {
  Reader r(payload);
  const auto epoch = r.u64();
  if (!epoch || !r.done()) return std::nullopt;
  return epoch;
}

Bytes encode_checkpoint_file(const Bytes& signed_checkpoint) {
  Writer w;
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kCheckpointMagic), 4));
  w.u8(kStorageVersion);
  w.u32(crc32(signed_checkpoint));
  w.bytes(signed_checkpoint);
  return std::move(w).take();
}

std::optional<Bytes> decode_checkpoint_file(const Bytes& file) {
  Reader r(file);
  const auto magic = r.raw(4);
  if (!magic || std::memcmp(magic->data(), kCheckpointMagic, 4) != 0) {
    return std::nullopt;
  }
  const auto version = r.u8();
  if (!version || *version != kStorageVersion) return std::nullopt;
  const auto crc = r.u32();
  auto payload = r.bytes();
  if (!crc || !payload || !r.done()) return std::nullopt;
  if (crc32(*payload) != *crc) return std::nullopt;
  return payload;
}

Bytes encode_log_record(LogKind kind, const Bytes& payload) {
  // u32 length | u8 version | u8 kind | u32 crc | payload. The length
  // covers everything after itself, so one read tells a replayer whether
  // the record is complete (torn-tail detection before the CRC check).
  Writer w;
  w.u32(static_cast<std::uint32_t>(1 + 1 + 4 + payload.size()));
  w.u8(kStorageVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(crc32(payload));
  w.raw(payload);
  return std::move(w).take();
}

std::vector<LogRecord> decode_log(const Bytes& file) {
  std::size_t valid_prefix = 0;
  return decode_log(file, valid_prefix);
}

std::vector<LogRecord> decode_log(const Bytes& file,
                                  std::size_t& valid_prefix) {
  std::vector<LogRecord> out;
  valid_prefix = 0;
  Reader r(file);
  while (r.remaining() > 0) {
    const auto len = r.u32();
    if (!len || *len < 6 || *len > r.remaining()) break;  // torn tail
    const auto version = r.u8();
    const auto kind = r.u8();
    const auto crc = r.u32();
    auto payload = r.raw(*len - 6);
    if (!version || !kind || !crc || !payload) break;
    if (*version != kStorageVersion) break;
    if (*kind != static_cast<std::uint8_t>(LogKind::kOwnBlock) &&
        *kind != static_cast<std::uint8_t>(LogKind::kRecvBlock) &&
        *kind != static_cast<std::uint8_t>(LogKind::kEpochBoundary)) {
      break;
    }
    if (crc32(*payload) != *crc) break;  // torn or corrupt: stop replaying
    out.push_back(LogRecord{static_cast<LogKind>(*kind), std::move(*payload)});
    valid_prefix = file.size() - r.remaining();
  }
  return out;
}

DataDir::DataDir(std::string dir, DataDirConfig config)
    : dir_(std::move(dir)), config_(config) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) return;
  ok_ = true;
}

DataDir::~DataDir() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

bool DataDir::open_log(std::uint64_t epoch, bool truncate) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
  const int fd = ::open(log_path(dir_, epoch).c_str(), flags, 0644);
  if (fd < 0) return false;
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = fd;
  epoch_ = epoch;
  return true;
}

bool DataDir::write_record(int fd, LogKind kind, const Bytes& payload) {
  const Bytes rec = encode_log_record(kind, payload);
  std::size_t off = 0;
  while (off < rec.size()) {
    const ::ssize_t n = ::write(fd, rec.data() + off, rec.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return !config_.fsync_appends || ::fsync(fd) == 0;
}

bool DataDir::store_checkpoint(std::uint64_t epoch, const Bytes& bytes) {
  if (!ok_) return false;
  if (!write_file_durably(dir_, ckpt_path(dir_, epoch),
                          encode_checkpoint_file(bytes))) {
    return false;
  }
  {
    // A one-step caller (no boundary record for `epoch`): start epoch's
    // log here, as the boundary would have.
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ < epoch && !open_log(epoch, /*truncate=*/true)) return false;
  }
  // Checkpoint `epoch` is durable: drop what it subsumes. The files come
  // from a listing, so the cost follows what is on disk, not the epoch
  // number. Unlink failures are ignored (stale files waste space but
  // load_latest picks the newest checkpoint anyway).
  bool listed = false;
  for (const EpochFile& f : list_epoch_files(dir_, listed)) {
    if (f.epoch >= epoch) break;
    ::unlink((dir_ + "/" + f.name).c_str());
  }
  return true;
}

bool DataDir::append_block(LogKind kind, const Bytes& payload) {
  if (!ok_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == LogKind::kEpochBoundary) {
    const auto epoch = decode_epoch_boundary(payload);
    if (!epoch) return false;
    // Open the new log beside the current one and switch only once the
    // boundary is in it: on failure appends continue in the old log.
    const int fd = ::open(log_path(dir_, *epoch).c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (fd < 0) return false;
    if (!write_record(fd, kind, payload)) {
      ::close(fd);
      return false;
    }
    if (log_fd_ >= 0) ::close(log_fd_);
    log_fd_ = fd;
    epoch_ = *epoch;
    return true;
  }
  if (log_fd_ < 0 && !open_log(epoch_, /*truncate=*/false)) return false;
  return write_record(log_fd_, kind, payload);
}

bool DataDir::load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                          std::vector<LogRecord>& log) {
  epoch = 0;
  checkpoint.clear();
  log.clear();
  if (!ok_) return false;
  bool listed = false;
  const std::vector<EpochFile> files = list_epoch_files(dir_, listed);
  if (!listed) return false;
  std::uint64_t newest = 0;
  bool have_checkpoint = false;
  for (const EpochFile& f : files) {
    if (f.kind == EpochFile::kCheckpoint) {
      newest = f.epoch;
      have_checkpoint = true;
    }
  }
  if (have_checkpoint) {
    // A newest checkpoint that does not decode is corrupt storage, and
    // falling back to an older surviving epoch would be amnesia: rotation
    // already unlinked that epoch's log, so every block appended since —
    // own blocks included — would silently vanish and next_k would regress
    // into sequence reuse. Refuse the whole load instead (the runtime
    // leaves the server halted; simctl exits 3).
    Bytes file;
    if (!read_file(ckpt_path(dir_, newest), file)) return false;
    auto payload = decode_checkpoint_file(file);
    if (!payload) return false;
    epoch = newest;
    checkpoint = std::move(*payload);
  }
  std::vector<const EpochFile*> chain;
  for (const EpochFile& f : files) {
    if (f.kind == EpochFile::kLog && f.epoch >= newest) chain.push_back(&f);
  }
  std::uint64_t append_epoch = newest;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::uint64_t e = chain[i]->epoch;
    const std::string path = log_path(dir_, e);
    Bytes log_file;
    if (!read_file(path, log_file)) {
      log.clear();
      return false;
    }
    std::size_t valid_prefix = 0;
    std::vector<LogRecord> records = decode_log(log_file, valid_prefix);
    if (valid_prefix < log_file.size()) {
      // Only the newest log can be torn by a kill: every older one was
      // closed by the next boundary. A tear inside the chain is corruption.
      // The newest log's tear is dropped on disk, not just in memory: the
      // log is reopened with O_APPEND, and a record written after leftover
      // torn bytes would be invisible to every future replay (which stops
      // at the tear) — silent loss of own blocks, i.e. sequence reuse after
      // the next crash.
      if (i + 1 != chain.size() ||
          ::truncate(path.c_str(), static_cast<::off_t>(valid_prefix)) != 0) {
        log.clear();
        return false;
      }
    }
    // A log past the checkpoint always begins with its boundary; only a
    // torn first write loses it. The file itself still proves the epoch
    // was used, and the restored Checkpointer must not reuse it.
    if (e > newest && (records.empty() ||
                       records.front().kind != LogKind::kEpochBoundary)) {
      log.push_back(LogRecord{LogKind::kEpochBoundary, epoch_boundary_payload(e)});
    }
    for (LogRecord& r : records) log.push_back(std::move(r));
    append_epoch = e;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  epoch_ = append_epoch;
  return true;
}

MemStore::MemStore(MemStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  checkpoint_epoch_ = other.checkpoint_epoch_;
  checkpoint_ = std::move(other.checkpoint_);
  log_epoch_ = other.log_epoch_;
  logs_ = std::move(other.logs_);
}

bool MemStore::store_checkpoint(std::uint64_t epoch, const Bytes& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_epoch_ = epoch;
  checkpoint_ = bytes;
  if (log_epoch_ < epoch) {
    log_epoch_ = epoch;
    logs_[epoch].clear();
  }
  logs_.erase(logs_.begin(), logs_.lower_bound(epoch));
  return true;
}

bool MemStore::append_block(LogKind kind, const Bytes& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == LogKind::kEpochBoundary) {
    const auto epoch = decode_epoch_boundary(payload);
    if (!epoch) return false;
    log_epoch_ = *epoch;
    logs_[log_epoch_] = {LogRecord{kind, payload}};
    return true;
  }
  logs_[log_epoch_].push_back(LogRecord{kind, payload});
  return true;
}

bool MemStore::load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                           std::vector<LogRecord>& log) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch = checkpoint_epoch_;
  checkpoint = checkpoint_;
  log.clear();
  for (auto it = logs_.lower_bound(checkpoint_epoch_); it != logs_.end(); ++it) {
    log.insert(log.end(), it->second.begin(), it->second.end());
  }
  return true;
}

}  // namespace blockdag::sync
