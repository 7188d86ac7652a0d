#include "rt/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "net/backoff.h"
#include "net/codec.h"

namespace blockdag::rt {

namespace {

using Clock = std::chrono::steady_clock;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  // Frames are latency-sensitive protocol beats, not bulk data: disable
  // Nagle so a lone block frame is not held hostage to a pending ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

TcpTransport::TcpTransport(TcpConfig config, std::vector<Mailbox*> mailboxes,
                           IdleTracker* idle)
    : config_(std::move(config)),
      mailboxes_(std::move(mailboxes)),
      idle_(idle),
      handlers_(config_.n_servers),
      control_(config_.n_servers),
      reconnect_prng_(config_.reconnect_jitter_seed) {
  assert(mailboxes_.size() == config_.n_servers);
  if (config_.local_servers.empty()) {
    for (ServerId s = 0; s < config_.n_servers; ++s) {
      config_.local_servers.push_back(s);
    }
  }
  acceptor_fds_.assign(config_.n_servers, -1);
  ports_.assign(config_.n_servers, 0);

  struct in_addr addr {};
  if (::inet_aton(config_.host.c_str(), &addr) == 0) return;  // ok_ stays false

  // Remote servers are reachable only through the deterministic
  // base_port + id scheme; ephemeral ports cannot be derived for them.
  const bool any_remote = config_.local_servers.size() < config_.n_servers;
  if (any_remote && config_.base_port == 0) return;
  // The whole cluster must fit in the port space — base_port + s would
  // otherwise silently wrap and dial the wrong (or an ephemeral) port.
  if (config_.base_port != 0 &&
      static_cast<std::uint32_t>(config_.base_port) + config_.n_servers - 1 >
          65535) {
    return;
  }
  for (ServerId s = 0; s < config_.n_servers; ++s) {
    if (config_.base_port != 0) {
      ports_[s] = static_cast<std::uint16_t>(config_.base_port + s);
    }
  }

  // One acceptor per hosted server. Bound (and, for ephemeral ports,
  // resolved) in the constructor so port_of() is meaningful before start().
  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0) return;
  wake_rd_ = wake_fds[0];
  wake_wr_ = wake_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  for (const ServerId s : config_.local_servers) {
    assert(s < config_.n_servers && mailboxes_[s] != nullptr);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    acceptor_fds_[s] = fd;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in sa {};
    sa.sin_family = AF_INET;
    sa.sin_addr = addr;
    sa.sin_port = htons(ports_[s]);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(fd, SOMAXCONN) != 0 || !set_nonblocking(fd)) {
      return;
    }
    socklen_t len = sizeof sa;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&sa), &len) != 0) {
      return;
    }
    ports_[s] = ntohs(sa.sin_port);
  }
  ok_ = true;
}

TcpTransport::~TcpTransport() { stop(); }

std::uint16_t TcpTransport::port_of(ServerId server) const {
  assert(server < ports_.size());
  return ports_[server];
}

void TcpTransport::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || !ok_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { poll_loop(); });
}

void TcpTransport::stop() {
  bool was_running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_running = running_;
    stopping_ = true;  // latches: sends from here on are dropped
  }
  if (was_running) {
    wake();
    if (thread_.joinable()) thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, out] : out_) {
    (void)key;
    close_fd(out.fd);
    if (idle_ && out.queued_envelopes > 0) idle_->sub(out.queued_envelopes);
    out.pending.clear();
    out.queue.clear();
    out.queued_envelopes = 0;
    out.queued_bytes = 0;
  }
  out_.clear();
  for (auto& in : in_) close_fd(in->fd);
  in_.clear();
  for (int& fd : acceptor_fds_) close_fd(fd);
  close_fd(wake_rd_);
  close_fd(wake_wr_);
  running_ = false;
}

void TcpTransport::attach(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void TcpTransport::set_control_handler(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  control_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void TcpTransport::deliver_local_many(ServerId to, ServerId from,
                                      const std::vector<Envelope>& envelopes) {
  std::shared_ptr<const Handler> proto;
  std::shared_ptr<const Handler> ctrl;
  {
    std::lock_guard<std::mutex> lock(mu_);
    proto = handlers_[to];
    ctrl = control_[to];
  }
  if (!proto && !ctrl) return;
  // One mailbox wakeup delivers the whole batch, in order.
  mailboxes_[to]->push([proto = std::move(proto), ctrl = std::move(ctrl), from,
                        envelopes] {
    for (const Envelope& e : envelopes) {
      const auto& handler = e.kind == WireKind::kControl ? ctrl : proto;
      if (handler) (*handler)(from, *e.payload);
    }
  });
}

// mu_ held. Applies the per-peer envelope and byte caps; false = evicted.
bool TcpTransport::admit_locked(OutConn& out, std::size_t payload_bytes) {
  if (out.queued_envelopes >= config_.max_queued_frames_per_peer ||
      out.queued_bytes + payload_bytes > config_.max_queued_bytes_per_peer) {
    ++metrics_.dropped;
    ++stats_.evicted_envelopes;
    stats_.evicted_bytes += payload_bytes;
    if (out.link) ++out.link->evicted;
    return false;
  }
  ++out.queued_envelopes;
  out.queued_bytes += payload_bytes;
  if (out.link) ++out.link->enqueued;
  return true;
}

// mu_ held. Parks the envelope on the link; returns true if the poll
// thread needs a wake (link was drained or is not connected).
bool TcpTransport::enqueue_envelope_locked(ServerId from, ServerId to,
                                           const Envelope& envelope) {
  OutConn& out = out_[{from, to}];
  if (!out.link) out.link = &link_stats_[{from, to}];
  const std::size_t payload_bytes = envelope.payload->size();
  const bool was_empty = out.queued_envelopes == 0;
  if (!admit_locked(out, payload_bytes)) return false;
  const auto k = static_cast<std::size_t>(envelope.kind);
  metrics_.messages[k] += 1;
  metrics_.bytes[k] += payload_bytes;
  out.pending.push_back(envelope);
  if (idle_) idle_->add();
  return was_empty || out.state != OutConn::State::kConnected;
}

void TcpTransport::send(ServerId from, ServerId to, WireKind kind, Bytes payload) {
  send_many(from, to,
            {Envelope{kind, std::make_shared<const Bytes>(std::move(payload))}});
}

void TcpTransport::broadcast(ServerId from, WireKind kind, const Bytes& payload) {
  broadcast_many(from, {Envelope{kind, std::make_shared<const Bytes>(payload)}});
}

void TcpTransport::send_many(ServerId from, ServerId to,
                             const std::vector<Envelope>& envelopes) {
  assert(to < config_.n_servers);
  if (envelopes.empty()) return;
  if (to == from) {
    // Self-delivery is local and free of wire cost on every transport.
    deliver_local_many(to, from, envelopes);
    return;
  }
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Envelopes may queue before start() (the poll thread flushes them once
    // it runs); after stop() has latched they are dropped.
    if (stopping_) {
      metrics_.dropped += envelopes.size();
      return;
    }
    for (const Envelope& e : envelopes) {
      need_wake |= enqueue_envelope_locked(from, to, e);
    }
  }
  if (need_wake) wake();
}

void TcpTransport::broadcast_many(ServerId from,
                                  const std::vector<Envelope>& envelopes) {
  if (envelopes.empty()) return;
  // Every peer's pending queue shares the same immutable payload buffers;
  // frames are packed per link at flush time.
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics_.dropped +=
          envelopes.size() * (config_.n_servers > 0 ? config_.n_servers - 1 : 0);
    } else {
      for (ServerId to = 0; to < config_.n_servers; ++to) {
        if (to == from) continue;
        for (const Envelope& e : envelopes) {
          need_wake |= enqueue_envelope_locked(from, to, e);
        }
      }
    }
  }
  if (need_wake) wake();
  deliver_local_many(from, from, envelopes);
}

WireMetrics TcpTransport::wire_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

TcpStats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

TcpLinkStats TcpTransport::link_stats(ServerId from, ServerId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = link_stats_.find({from, to});
  return it == link_stats_.end() ? TcpLinkStats{} : it->second;
}

void TcpTransport::drop_connections(ServerId a, ServerId b) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, out] : out_) {
      if ((key.first == a && key.second == b) ||
          (key.first == b && key.second == a)) {
        if (out.fd >= 0) fail_out(out);
      }
    }
    for (auto& in : in_) {
      if (in->dead) continue;
      if ((in->owner == a && in->peer == b) || (in->owner == b && in->peer == a)) {
        close_fd(in->fd);
        in->dead = true;
        ++stats_.resets;
      }
    }
  }
  wake();
}

void TcpTransport::wake() {
  // Under mu_: stop() closes (and -1s) wake_wr_ under the same lock, so a
  // late sender can never write into a closed — possibly reused — fd. No
  // caller holds mu_ here, and the write is nonblocking (a full pipe
  // already guarantees a pending wakeup).
  std::lock_guard<std::mutex> lock(mu_);
  if (wake_wr_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr_, &byte, 1);
  }
}

// Next re-dial delay: reconnect_delay spread by ±reconnect_jitter so peers
// whose connections died together (one member SIGKILLed) do not hammer the
// restarted listener in lockstep. Caller holds mu_ (all re-dial decisions
// happen on the poll thread or under the send-path lock).
std::chrono::steady_clock::duration TcpTransport::reconnect_backoff() {
  const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
      config_.reconnect_delay);
  return std::chrono::nanoseconds(
      jittered_delay(static_cast<std::uint64_t>(base.count()),
                     config_.reconnect_jitter, reconnect_prng_));
}

void TcpTransport::dial(ServerId from, ServerId to, OutConn& out) {
  ++stats_.dials;
  struct in_addr addr {};
  ::inet_aton(config_.host.c_str(), &addr);  // validated in the constructor
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) ::close(fd);
    out.state = OutConn::State::kBackoff;
    out.retry_at = Clock::now() + reconnect_backoff();
    return;
  }
  struct sockaddr_in sa {};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(ports_[to]);
  out.fd = fd;
  const int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof sa);
  if (rc == 0) {
    out.state = OutConn::State::kConnected;
    ++stats_.connects;
    set_nodelay(fd);
  } else if (errno == EINPROGRESS) {
    out.state = OutConn::State::kConnecting;
  } else {
    close_fd(out.fd);
    out.state = OutConn::State::kBackoff;
    out.retry_at = Clock::now() + reconnect_backoff();
  }
  (void)from;
}

void TcpTransport::fail_out(OutConn& out) {
  if (out.state == OutConn::State::kConnected) ++stats_.resets;
  close_fd(out.fd);
  if (out.front_offset > 0) {
    // A partially written frame cannot be resumed on a fresh connection
    // (the receiver discarded its partial tail at EOF) and must not be
    // resent whole (the receiver may have gotten all of it). Drop it:
    // transient loss, recovered by gossip FWD.
    const WireFrame& front = out.queue.front();
    metrics_.dropped += front.units;
    if (idle_) idle_->sub(front.units);
    out.queued_envelopes -= front.units;
    out.queued_bytes -= front.payload_bytes;
    out.queue.pop_front();
    out.front_offset = 0;
  }
  out.state = OutConn::State::kBackoff;
  out.retry_at = Clock::now() + reconnect_backoff();
}

// mu_ held. Packs everything pending on the link into wire frames and
// drains the wire queue with gather-writes, as many queued frames per
// syscall as iovec slots allow, resuming mid-frame at front_offset.
void TcpTransport::flush_out(ServerId from, OutConn& out) {
  const std::size_t batch_byte_limit =
      std::min(kTcpMaxBatchBytes, config_.max_frame_payload);
  while (!out.pending.empty()) {
    PackedFrame packed = pack_frame(from, out.pending, batch_byte_limit);
    if (packed.envelopes > 1) {
      ++stats_.batches_sent;
      stats_.batched_envelopes += packed.envelopes;
      ++out.link->batches_sent;
      out.link->batched_envelopes += packed.envelopes;
    }
    out.queue.push_back(
        WireFrame{std::make_shared<const Bytes>(std::move(packed.frame)),
                  static_cast<std::uint32_t>(packed.envelopes),
                  packed.payload_bytes});
  }
  while (!out.queue.empty()) {
    constexpr std::size_t kMaxIov = 64;
    struct iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    std::size_t offset = out.front_offset;
    for (const WireFrame& wf : out.queue) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(wf.bytes->data() + offset);
      iov[iovcnt].iov_len = wf.bytes->size() - offset;
      offset = 0;
      ++iovcnt;
    }
    const auto n = ::writev(out.fd, iov, static_cast<int>(iovcnt));
    if (n > 0) {
      ++stats_.writev_calls;
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        WireFrame& front = out.queue.front();
        const std::size_t remaining = front.bytes->size() - out.front_offset;
        if (left < remaining) {
          out.front_offset += left;
          break;
        }
        left -= remaining;
        ++stats_.frames_sent;
        if (idle_) idle_->sub(front.units);
        out.queued_envelopes -= front.units;
        out.queued_bytes -= front.payload_bytes;
        out.queue.pop_front();
        out.front_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    fail_out(out);
    return;
  }
}

void TcpTransport::service_in(InConn& in) {
  std::uint8_t buf[65536];
  for (;;) {
    const auto n = ::read(in.fd, buf, sizeof buf);
    if (n > 0) {
      in.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      while (auto frame = in.decoder.next()) {
        if (frame->header.from >= config_.n_servers) {
          ++stats_.corrupt_streams;
          close_fd(in.fd);
          in.dead = true;
          return;
        }
        in.peer = frame->header.from;
        ++stats_.frames_received;
        const WireKind kind = frame->header.kind;
        const ServerId from = frame->header.from;
        if (kind == WireKind::kBatch) {
          // Unpack before posting: split_batch bounds-checks every inner
          // length against the remaining bytes pre-allocation. A malformed
          // batch is payload corruption, not framing corruption — drop the
          // batch (counted), keep the stream live.
          const auto entries = split_batch(frame->payload);
          if (!entries) {
            ++stats_.batch_decode_failures;
            continue;
          }
          ++stats_.batches_received;
          stats_.batched_envelopes_received += entries->size();
          std::shared_ptr<const Handler> proto = handlers_[in.owner];
          std::shared_ptr<const Handler> ctrl = control_[in.owner];
          if (!proto && !ctrl) continue;
          // Record (kind, offset, length) per inner — the heap buffer is
          // stable across the move into the shared payload below.
          struct Inner {
            WireKind kind;
            std::size_t off;
            std::size_t len;
          };
          std::vector<Inner> inners;
          inners.reserve(entries->size());
          for (const BatchEntry& e : *entries) {
            inners.push_back(Inner{
                e.kind,
                static_cast<std::size_t>(e.envelope.data() -
                                         frame->payload.data()),
                e.envelope.size()});
          }
          auto payload = std::make_shared<const Bytes>(std::move(frame->payload));
          // One mailbox wakeup dispatches every inner envelope in order.
          mailboxes_[in.owner]->push(
              [proto = std::move(proto), ctrl = std::move(ctrl), from,
               payload = std::move(payload), inners = std::move(inners)] {
                for (const Inner& e : inners) {
                  const auto& handler =
                      e.kind == WireKind::kControl ? ctrl : proto;
                  if (!handler) continue;
                  const Bytes envelope(payload->begin() +
                                           static_cast<std::ptrdiff_t>(e.off),
                                       payload->begin() +
                                           static_cast<std::ptrdiff_t>(e.off +
                                                                       e.len));
                  (*handler)(from, envelope);
                }
              });
          continue;
        }
        std::shared_ptr<const Handler> handler =
            kind == WireKind::kControl ? control_[in.owner] : handlers_[in.owner];
        if (handler) {
          auto payload =
              std::make_shared<const Bytes>(std::move(frame->payload));
          mailboxes_[in.owner]->push(
              [handler = std::move(handler), from,
               payload = std::move(payload)] { (*handler)(from, *payload); });
        }
      }
      if (in.decoder.corrupt()) {
        // Never resynchronise a framed stream against a byzantine peer:
        // reset the connection (the peer re-dials if it is honest).
        ++stats_.corrupt_streams;
        close_fd(in.fd);
        in.dead = true;
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;  // drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: the sender redials and resumes from its queue.
    if (n == 0 || n < 0) {
      close_fd(in.fd);
      in.dead = true;
      ++stats_.resets;
      return;
    }
  }
}

void TcpTransport::poll_loop() {
  enum class Slot { kWake, kAcceptor, kIn, kOut };
  struct Entry {
    Slot slot;
    ServerId server = 0;                       // kAcceptor
    std::size_t index = 0;                     // kIn
    std::pair<ServerId, ServerId> key{0, 0};   // kOut
  };
  std::vector<struct pollfd> fds;
  std::vector<Entry> entries;

  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Dial every link that wants a connection; compute the next retry.
    const auto now = Clock::now();
    auto next_retry = Clock::time_point::max();
    for (auto& [key, out] : out_) {
      if (out.queue.empty() && out.pending.empty()) continue;
      if (out.state == OutConn::State::kIdle ||
          (out.state == OutConn::State::kBackoff && now >= out.retry_at)) {
        dial(key.first, key.second, out);
      }
      if (out.state == OutConn::State::kBackoff) {
        next_retry = std::min(next_retry, out.retry_at);
      }
    }

    fds.clear();
    entries.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    entries.push_back({Slot::kWake, 0, 0, {0, 0}});
    for (const ServerId s : config_.local_servers) {
      fds.push_back({acceptor_fds_[s], POLLIN, 0});
      entries.push_back({Slot::kAcceptor, s, 0, {0, 0}});
    }
    for (std::size_t i = 0; i < in_.size(); ++i) {
      if (in_[i]->dead) continue;
      fds.push_back({in_[i]->fd, POLLIN, 0});
      entries.push_back({Slot::kIn, 0, i, {0, 0}});
    }
    for (auto& [key, out] : out_) {
      if (out.state == OutConn::State::kConnecting ||
          (out.state == OutConn::State::kConnected &&
           (!out.queue.empty() || !out.pending.empty()))) {
        fds.push_back({out.fd, POLLOUT, 0});
        entries.push_back({Slot::kOut, 0, 0, key});
      }
    }

    int timeout_ms = -1;
    if (next_retry != Clock::time_point::max()) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_retry - Clock::now());
      timeout_ms = std::max<int>(1, static_cast<int>(wait.count()) + 1);
    }

    lock.unlock();
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    lock.lock();
    if (stopping_) break;
    if (ready < 0) continue;  // EINTR

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      const Entry& e = entries[i];
      switch (e.slot) {
        case Slot::kWake: {
          char drain[256];
          while (::read(wake_rd_, drain, sizeof drain) > 0) {
          }
          break;
        }
        case Slot::kAcceptor: {
          for (;;) {
            const int fd = ::accept(acceptor_fds_[e.server], nullptr, nullptr);
            if (fd < 0) break;  // EAGAIN or transient error: retry next poll
            if (!set_nonblocking(fd)) {
              ::close(fd);
              continue;
            }
            set_nodelay(fd);
            auto in = std::make_unique<InConn>();
            in->fd = fd;
            in->owner = e.server;
            in->decoder = FrameDecoder(config_.max_frame_payload);
            in_.push_back(std::move(in));
            ++stats_.accepts;
          }
          break;
        }
        case Slot::kIn: {
          InConn& in = *in_[e.index];
          // drop_connections() may have closed it while we were polling.
          if (!in.dead && in.fd >= 0) service_in(in);
          break;
        }
        case Slot::kOut: {
          const auto it = out_.find(e.key);
          if (it == out_.end()) break;
          OutConn& out = it->second;
          if (out.fd < 0) break;  // dropped while polling
          if (out.state == OutConn::State::kConnecting) {
            int err = 0;
            socklen_t len = sizeof err;
            ::getsockopt(out.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err == 0 && (revents & (POLLERR | POLLHUP)) == 0) {
              out.state = OutConn::State::kConnected;
              ++stats_.connects;
              set_nodelay(out.fd);
              flush_out(e.key.first, out);
            } else {
              close_fd(out.fd);
              out.state = OutConn::State::kBackoff;
              out.retry_at = Clock::now() + reconnect_backoff();
            }
          } else if (out.state == OutConn::State::kConnected) {
            if (revents & (POLLERR | POLLHUP)) {
              fail_out(out);
            } else {
              flush_out(e.key.first, out);
            }
          }
          break;
        }
      }
    }

    in_.erase(std::remove_if(in_.begin(), in_.end(),
                             [](const std::unique_ptr<InConn>& in) {
                               return in->dead;
                             }),
              in_.end());
  }
}

}  // namespace blockdag::rt
