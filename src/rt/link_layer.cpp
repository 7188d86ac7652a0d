#include "rt/link_layer.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>

#include "util/thread_name.h"

namespace blockdag::rt {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

LinkLayer::LinkLayer(LinkConfig config, std::vector<Mailbox*> mailboxes,
                     IdleTracker* idle, std::size_t max_batch_bytes)
    : n_(config.n_servers),
      idle_(idle),
      fds_(config.n_servers, -1),
      local_(std::move(config.local_servers)),
      mailboxes_(std::move(mailboxes)),
      max_batch_bytes_(max_batch_bytes),
      ports_(config.n_servers, 0),
      handlers_(config.n_servers),
      control_(config.n_servers) {
  assert(mailboxes_.size() == n_);
  if (local_.empty()) {
    for (ServerId s = 0; s < n_; ++s) local_.push_back(s);
  }
  if (::inet_aton(config.host.c_str(), &addr_) == 0) return;  // ok_ stays false

  // Remote servers are reachable only through the deterministic
  // base_port + id scheme; ephemeral ports cannot be derived for them.
  const bool any_remote = local_.size() < n_;
  if (any_remote && config.base_port == 0) return;
  // The whole cluster must fit in the port space — base_port + s would
  // otherwise silently wrap and reach the wrong (or an ephemeral) port.
  if (config.base_port != 0) {
    if (static_cast<std::uint32_t>(config.base_port) + n_ - 1 > 65535) return;
    for (ServerId s = 0; s < n_; ++s) {
      ports_[s] = static_cast<std::uint16_t>(config.base_port + s);
    }
  }

  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0) return;
  wake_rd_ = wake_fds[0];
  wake_wr_ = wake_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
  ok_ = true;
}

bool LinkLayer::bind_local(ServerId s, int fd) {
  assert(s < n_ && mailboxes_[s] != nullptr);
  fds_[s] = fd;
  if (fd < 0) return false;
  sockaddr_in sa = address_of(s);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      !set_nonblocking(fd)) {
    return false;
  }
  socklen_t len = sizeof sa;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return false;
  }
  ports_[s] = ntohs(sa.sin_port);
  return true;
}

sockaddr_in LinkLayer::address_of(ServerId server) const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr_;
  sa.sin_port = htons(ports_[server]);
  return sa;
}

std::uint16_t LinkLayer::port_of(ServerId server) const {
  assert(server < ports_.size());
  return ports_[server];
}

void LinkLayer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || stopping_ || !ok_) return;
  running_ = true;
  thread_ = std::thread([this] {
    name_this_thread("bd-poll");
    poll_loop();
  });
}

void LinkLayer::stop() {
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
  running_ = false;
  if (closed_) return;
  closed_ = true;
  close_locked();
  // Whatever is still queued was charged to WireMetrics::messages when it
  // was admitted; it will never reach the wire.
  for (auto& [key, q] : egress_) {
    (void)key;
    q.pending.clear();
    retire_locked(q, q.queued_envelopes, q.queued_bytes, /*dropped=*/true);
    write_off_locked(q);
  }
  for (int& fd : fds_) close_fd(fd);
  close_fd(wake_rd_);
  close_fd(wake_wr_);
}

void LinkLayer::attach(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void LinkLayer::set_control_handler(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  control_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void LinkLayer::deliver_local_many(ServerId to, ServerId from,
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

bool LinkLayer::enqueue_locked(ServerId from, ServerId to,
                               const Envelope& envelope) {
  EgressQueue& q = egress_[{from, to}];
  const std::size_t bytes = envelope.payload->size();
  if (q.queued_envelopes >= kMaxQueuedEnvelopesPerLink ||
      q.queued_bytes + bytes > kMaxQueuedBytesPerLink) {
    ++metrics_.dropped;
    ++counters_.evicted_envelopes;
    counters_.evicted_bytes += bytes;
    ++q.stats.evicted;
    return false;
  }
  const bool was_empty = q.queued_envelopes == 0;
  ++q.queued_envelopes;
  q.queued_bytes += bytes;
  ++q.stats.enqueued;
  const auto k = static_cast<std::size_t>(envelope.kind);
  metrics_.messages[k] += 1;
  metrics_.bytes[k] += bytes;
  q.pending.push_back(envelope);
  if (idle_) idle_->add();
  return was_empty;
}

void LinkLayer::send(ServerId from, ServerId to, WireKind kind, Bytes payload) {
  send_many(from, to,
            {Envelope{kind, std::make_shared<const Bytes>(std::move(payload))}});
}

void LinkLayer::broadcast(ServerId from, WireKind kind, const Bytes& payload) {
  broadcast_many(from, {Envelope{kind, std::make_shared<const Bytes>(payload)}});
}

void LinkLayer::send_many(ServerId from, ServerId to,
                          const std::vector<Envelope>& envelopes) {
  assert(to < n_);
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
      need_wake |= enqueue_locked(from, to, e);
    }
  }
  if (need_wake) wake();
}

void LinkLayer::broadcast_many(ServerId from,
                               const std::vector<Envelope>& envelopes) {
  if (envelopes.empty()) return;
  // Every peer's queue shares the same immutable payload buffers; frames
  // are packed per link at flush time.
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ServerId to = 0; to < n_; ++to) {
      if (to == from) continue;
      if (stopping_) {
        metrics_.dropped += envelopes.size();
        continue;
      }
      for (const Envelope& e : envelopes) {
        need_wake |= enqueue_locked(from, to, e);
      }
    }
  }
  if (need_wake) wake();
  deliver_local_many(from, from, envelopes);
}

WireMetrics LinkLayer::wire_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

void LinkLayer::wake() {
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

void LinkLayer::drain_wake() {
  char drain[256];
  while (::read(wake_rd_, drain, sizeof drain) > 0) {
  }
}

bool LinkLayer::links_settled() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, q] : egress_) {
    (void)key;
    if (q.frames_sent != q.frames_dispatched) return false;
  }
  return true;
}

PackedFrame LinkLayer::pack_locked(ServerId from, EgressQueue& q) {
  PackedFrame packed = pack_frame(from, q.pending, max_batch_bytes_);
  if (packed.envelopes > 1) {
    ++counters_.batches_sent;
    counters_.batched_envelopes += packed.envelopes;
    ++q.stats.batches_sent;
    q.stats.batched_envelopes += packed.envelopes;
  }
  return packed;
}

void LinkLayer::retire_locked(EgressQueue& q, std::size_t envelopes,
                              std::size_t bytes, bool dropped) {
  q.queued_envelopes -= envelopes;
  q.queued_bytes -= bytes;
  if (dropped) metrics_.dropped += envelopes;
  if (idle_ && envelopes > 0) idle_->sub(envelopes);
}

void LinkLayer::sent_locked(ServerId to, EgressQueue& q, std::size_t envelopes,
                            std::size_t bytes) {
  q.queued_envelopes -= envelopes;
  q.queued_bytes -= bytes;
  std::size_t release = envelopes;
  if (is_local(to)) {
    ++q.frames_sent;
    --release;  // the frame's own unit, until dispatch
  }
  if (idle_ && release > 0) idle_->sub(release);
}

void LinkLayer::write_off_locked(EgressQueue& q) {
  const std::uint64_t lost = q.frames_sent - q.frames_dispatched;
  q.frames_sent = q.frames_dispatched;
  if (idle_ && lost > 0) idle_->sub(lost);
}

void LinkLayer::dispatch_locked(ServerId owner, Frame& frame, bool counted) {
  const ServerId from = frame.header.from;
  post_locked(owner, frame);
  // Released only after the post, which holds its own unit, so the
  // IdleTracker never dips to zero between the wire and the mailbox.
  if (!counted || !is_local(from)) return;
  const auto it = egress_.find({from, owner});
  if (it == egress_.end() || it->second.frames_sent == it->second.frames_dispatched) {
    return;
  }
  ++it->second.frames_dispatched;
  if (idle_) idle_->sub();
}

void LinkLayer::post_locked(ServerId owner, Frame& frame) {
  ++counters_.frames_received;
  const ServerId from = frame.header.from;
  const WireKind kind = frame.header.kind;
  std::shared_ptr<const Handler> proto = handlers_[owner];
  std::shared_ptr<const Handler> ctrl = control_[owner];
  // (kind, offset, length) per envelope the frame carries; the payload's
  // heap buffer is stable across the move into the shared pointer below.
  struct Inner {
    WireKind kind;
    std::size_t off;
    std::size_t len;
  };
  std::vector<Inner> inners;
  if (kind != WireKind::kBatch) {
    if (!(kind == WireKind::kControl ? ctrl : proto)) return;
    inners.push_back(Inner{kind, 0, frame.payload.size()});
  } else {
    // Unpack before posting: split_batch bounds-checks every inner length
    // against the remaining bytes before allocating. A malformed batch is
    // payload corruption, not framing corruption — drop the batch
    // (counted), keep the link live.
    const auto entries = split_batch(frame.payload);
    if (!entries) {
      ++counters_.batch_decode_failures;
      return;
    }
    ++counters_.batches_received;
    counters_.batched_envelopes_received += entries->size();
    inners.reserve(entries->size());
    for (const BatchEntry& e : *entries) {
      inners.push_back(Inner{
          e.kind,
          static_cast<std::size_t>(e.envelope.data() - frame.payload.data()),
          e.envelope.size()});
    }
    if (!proto && !ctrl) return;
  }
  auto payload = std::make_shared<const Bytes>(std::move(frame.payload));
  // One mailbox wakeup dispatches every envelope of the frame, in order.
  mailboxes_[owner]->push([proto = std::move(proto), ctrl = std::move(ctrl),
                           from, payload = std::move(payload),
                           inners = std::move(inners)] {
    for (const Inner& e : inners) {
      const auto& handler = e.kind == WireKind::kControl ? ctrl : proto;
      if (!handler) continue;
      if (e.len == payload->size()) {  // a plain frame: its whole payload
        (*handler)(from, *payload);
        continue;
      }
      const Bytes envelope(
          payload->begin() + static_cast<std::ptrdiff_t>(e.off),
          payload->begin() + static_cast<std::ptrdiff_t>(e.off + e.len));
      (*handler)(from, envelope);
    }
  });
}

LinkEgressStats LinkLayer::egress_stats_locked(ServerId from,
                                               ServerId to) const {
  const auto it = egress_.find({from, to});
  return it == egress_.end() ? LinkEgressStats{} : it->second.stats;
}

}  // namespace blockdag::rt
