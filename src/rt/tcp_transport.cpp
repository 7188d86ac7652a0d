#include "rt/tcp_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "net/backoff.h"

namespace blockdag::rt {

namespace {

using Clock = std::chrono::steady_clock;

void set_nodelay(int fd) {
  // Frames are latency-sensitive protocol beats, not bulk data: disable
  // Nagle so a lone block frame is not held hostage to a pending ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpTransport::TcpTransport(TcpConfig config, std::vector<Mailbox*> mailboxes,
                           IdleTracker* idle)
    : LinkLayer(std::move(config), std::move(mailboxes), idle,
                kTcpMaxBatchBytes) {
  // One acceptor per hosted server, bound (and, for ephemeral ports,
  // resolved) here so port_of() is meaningful before start().
  for (const ServerId s : local_servers()) {
    if (!ok_) return;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    }
    ok_ = bind_local(s, fd) && ::listen(fd, SOMAXCONN) == 0;
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::close_locked() {
  // The wire frames dropped here stay counted in their queue's
  // queued_envelopes, which the link layer drops next.
  for (auto& [key, out] : out_) {
    (void)key;
    close_fd(out.fd);
  }
  out_.clear();
  for (auto& in : in_) close_fd(in->fd);
  in_.clear();
}

TcpStats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TcpStats stats = stats_;
  static_cast<LinkLayerStats&>(stats) = counters_;
  return stats;
}

TcpLinkStats TcpTransport::link_stats(ServerId from, ServerId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return egress_stats_locked(from, to);
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

// Next re-dial delay: kTcpReconnectDelay spread by ±kTcpReconnectJitter so
// peers whose connections died together (one member SIGKILLed) do not
// hammer the restarted listener in lockstep. Caller holds mu_ (all re-dial
// decisions happen on the poll thread or under the send-path lock).
std::chrono::steady_clock::duration TcpTransport::reconnect_backoff() {
  const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
      kTcpReconnectDelay);
  return std::chrono::nanoseconds(
      jittered_delay(static_cast<std::uint64_t>(base.count()),
                     kTcpReconnectJitter, reconnect_prng_));
}

void TcpTransport::dial(ServerId to, OutConn& out) {
  ++stats_.dials;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) ::close(fd);
    out.state = OutConn::State::kBackoff;
    out.retry_at = Clock::now() + reconnect_backoff();
    return;
  }
  const sockaddr_in sa = address_of(to);
  out.fd = fd;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
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
    retire_locked(*out.egress, front.units, front.payload_bytes,
                  /*dropped=*/true);
    out.queue.pop_front();
    out.front_offset = 0;
  }
  // The frames already written died with the connection; the queue is
  // resent on the next dial.
  write_off_locked(*out.egress);
  out.state = OutConn::State::kBackoff;
  out.retry_at = Clock::now() + reconnect_backoff();
}

// mu_ held. Packs everything pending on the link into wire frames and
// drains the wire queue with gather-writes, as many queued frames per
// syscall as iovec slots allow, resuming mid-frame at front_offset.
void TcpTransport::flush_out(ServerId from, ServerId to, OutConn& out) {
  while (!out.egress->pending.empty()) {
    PackedFrame packed = pack_locked(from, *out.egress);
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
        sent_locked(to, *out.egress, front.units, front.payload_bytes);
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
        if (frame->header.from >= n_) {
          ++stats_.corrupt_streams;
          close_fd(in.fd);
          in.dead = true;
          return;
        }
        in.peer = frame->header.from;
        dispatch_locked(in.owner, *frame);
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
    for (auto& [key, q] : egress_) {
      if (q.queued_envelopes == 0) continue;
      OutConn& out = out_[key];
      out.egress = &q;
      if (out.state == OutConn::State::kIdle ||
          (out.state == OutConn::State::kBackoff && now >= out.retry_at)) {
        dial(key.second, out);
      }
      if (out.state == OutConn::State::kBackoff) {
        next_retry = std::min(next_retry, out.retry_at);
      }
    }

    fds.clear();
    entries.clear();
    fds.push_back({wake_fd(), POLLIN, 0});
    entries.push_back({Slot::kWake, 0, 0, {0, 0}});
    for (const ServerId s : local_servers()) {
      fds.push_back({fds_[s], POLLIN, 0});
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
           out.egress->queued_envelopes > 0)) {
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
        case Slot::kWake:
          drain_wake();
          break;
        case Slot::kAcceptor: {
          for (;;) {
            const int fd = ::accept(fds_[e.server], nullptr, nullptr);
            if (fd < 0) break;  // EAGAIN or transient error: retry next poll
            if (!set_nonblocking(fd)) {
              ::close(fd);
              continue;
            }
            set_nodelay(fd);
            auto in = std::make_unique<InConn>();
            in->fd = fd;
            in->owner = e.server;
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
              flush_out(e.key.first, e.key.second, out);
            } else {
              close_fd(out.fd);
              out.state = OutConn::State::kBackoff;
              out.retry_at = Clock::now() + reconnect_backoff();
            }
          } else if (out.state == OutConn::State::kConnected) {
            if (revents & (POLLERR | POLLHUP)) {
              fail_out(out);
            } else {
              flush_out(e.key.first, e.key.second, out);
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
