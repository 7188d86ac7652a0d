#include "rt/udp_transport.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace blockdag::rt {

UdpTransport::UdpTransport(UdpConfig config, std::vector<Mailbox*> mailboxes,
                           IdleTracker* idle)
    : LinkLayer(config, std::move(mailboxes), idle, kUdpMaxBatchBytes),
      channel_config_(config.channel),
      fault_rng_(config.fault_seed),
      default_fault_(config.default_fault),
      blackholed_(static_cast<std::size_t>(n_) * n_, false) {
  for (const ServerId s : local_servers()) {
    if (!ok_) return;
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd >= 0) {
      // Generous kernel buffers: a dissemination burst at n·(n−1) links can
      // outrun the drain; kernel drops are just extra loss for the
      // retransmission layer, but there is no reason to invite them.
      int bufsize = 1 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof bufsize);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof bufsize);
    }
    ok_ = bind_local(s, fd);
  }
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::close_locked() {
  // Frames still awaiting acks are outstanding work units; release them or
  // wait_idle() would hang forever after a teardown. The channels stay, so
  // their counters remain readable.
  for (auto& [key, l] : links_) {
    (void)key;
    if (l.sender && idle_) {
      idle_->sub(l.sender->take_retired_frames() + l.sender->pending_frames());
    }
  }
  while (!delayed_.empty()) delayed_.pop();
}

UdpTransport::Link& UdpTransport::link(ServerId from, ServerId to) {
  return links_[{from, to}];
}

const LinkFault& UdpTransport::fault_of(ServerId from, ServerId to) const {
  const auto it = fault_overrides_.find({from, to});
  return it != fault_overrides_.end() ? it->second : default_fault_;
}

void UdpTransport::set_link_fault(ServerId from, ServerId to,
                                  const LinkFault& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_overrides_[{from, to}] = fault;
}

void UdpTransport::set_partition(const std::vector<ServerId>& side_a,
                                 const std::vector<ServerId>& side_b,
                                 bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ServerId a : side_a) {
    for (const ServerId b : side_b) {
      if (a >= n_ || b >= n_) continue;
      blackholed_[a * n_ + b] = active;
      blackholed_[b * n_ + a] = active;
    }
  }
}

// mu_ held. Packs everything queued on the link into wire frames and
// offers them to the sender channel. The idle accounting swaps k envelope
// units for one frame unit per offered frame (add before the retire's sub,
// so the count never transiently hits zero).
void UdpTransport::pack_queued(ServerId from, ServerId to, EgressQueue& q) {
  Link& l = link(from, to);
  if (!l.sender) {
    l.sender = std::make_unique<SenderChannel>(from, channel_config_);
  }
  while (!q.pending.empty()) {
    const PackedFrame packed = pack_locked(from, q);
    // A full channel queue refuses the frame: its envelopes are dropped
    // whole — transient loss, gossip FWD recovers (the channel counts the
    // refused frame in frames_dropped).
    const bool offered = l.sender->offer(packed.frame);
    if (offered) {
      ++stats_.frames_sent;
      if (idle_) idle_->add();
      sent_locked(to, q, packed.envelopes, packed.payload_bytes);
    } else {
      retire_locked(q, packed.envelopes, packed.payload_bytes, /*dropped=*/true);
    }
  }
}

void UdpTransport::transmit(ServerId from, ServerId to, const Bytes& datagram) {
  const int fd = fds_[from];
  if (fd < 0) return;
  const sockaddr_in sa = address_of(to);
  const auto n = ::sendto(fd, datagram.data(), datagram.size(), 0,
                          reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (n == static_cast<ssize_t>(datagram.size())) {
    ++stats_.datagrams_sent;
    ++link(from, to).datagrams_sent;
  }
  // A full kernel buffer (EAGAIN/ENOBUFS) is ordinary datagram loss: the
  // retransmission layer recovers it like any other drop.
}

void UdpTransport::emit(ServerId from, ServerId to,
                        std::shared_ptr<const Bytes> datagram, bool injectable,
                        Clock::time_point now) {
  if (stopping_) return;
  if (injectable) {
    const LinkFault& f = fault_of(from, to);
    Link& l = link(from, to);
    if (f.blackhole || blackholed_[from * n_ + to]) {
      ++l.injected_drops;
      return;
    }
    if (f.drop > 0 && fault_rng_.chance(f.drop)) {
      ++l.injected_drops;
      return;
    }
    std::uint64_t delay_us = 0;
    if (f.delay_max_us > 0) {
      delay_us = fault_rng_.between(f.delay_min_us, f.delay_max_us);
    }
    if (f.reorder > 0 && fault_rng_.chance(f.reorder)) {
      // Hold this datagram back long enough for later ones to overtake.
      delay_us += fault_rng_.between(f.reorder_hold_us / 2,
                                     f.reorder_hold_us + f.reorder_hold_us / 2);
    }
    if (f.duplicate > 0 && fault_rng_.chance(f.duplicate)) {
      ++l.injected_dups;
      delayed_.push({now + std::chrono::microseconds(
                               delay_us + fault_rng_.between(200, 1500)),
                     from, to, datagram});
    }
    if (delay_us > 0) {
      ++l.injected_delays;
      delayed_.push({now + std::chrono::microseconds(delay_us), from, to,
                     std::move(datagram)});
      return;
    }
  }
  transmit(from, to, *datagram);
}

void UdpTransport::service_socket(ServerId owner) {
  std::uint8_t buf[65536];
  std::vector<Frame> frames;
  const int fd = fds_[owner];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained (any other error: nothing to service)
    }
    if (n == 0) continue;  // zero-length datagram: below minimum, malformed
    ++stats_.datagrams_received;
    const auto view =
        decode_datagram(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (!view || view->header.from >= n_ ||
        view->header.from == owner) {
      // Truncated, forged-length, unknown version/kind, impossible sender:
      // dropped whole, pre-allocation, no channel state touched.
      ++stats_.malformed_dropped;
      continue;
    }
    const ServerId peer = view->header.from;
    if (view->header.kind == DatagramKind::kAck) {
      ++stats_.acks_received;
      Link& l = link(owner, peer);  // acks retire our owner→peer stream
      if (l.sender) {
        l.sender->on_ack(view->header.epoch, view->header.ack);
        if (idle_) idle_->sub(l.sender->take_retired_frames());
      }
      continue;
    }
    Link& l = link(peer, owner);  // data on the peer→owner stream
    if (!l.receiver) {
      l.receiver = std::make_unique<ReceiverChannel>(channel_config_);
    }
    l.receiver->on_data(*view, frames);
    // A frame of an epoch the sender has since reset was written off with
    // that reset; it still delivers, but no longer counts.
    const bool counted = !l.sender || l.sender->epoch() == l.receiver->epoch();
    for (Frame& frame : frames) {
      if (frame.header.from >= n_) {
        ++stats_.malformed_dropped;
        continue;
      }
      dispatch_locked(owner, frame, counted);
    }
    frames.clear();
  }
}

UdpTransport::Clock::time_point UdpTransport::pump(Clock::time_point now) {
  auto earliest = Clock::time_point::max();
  // Everything queued since the last pump coalesces here — the flush
  // window is one pump cadence (the poll loop wakes immediately on new
  // work, so an idle link flushes at once and a busy one accumulates).
  for (auto& [key, q] : egress_) {
    if (!q.pending.empty()) pack_queued(key.first, key.second, q);
  }
  std::vector<Bytes> batch;
  for (auto& [key, l] : links_) {
    if (l.sender) {
      batch.clear();
      const std::uint32_t epoch = l.sender->epoch();
      l.sender->poll(to_ns(now), batch);
      if (l.sender->epoch() != epoch) {
        // A channel reset dropped every frame in flight on the link.
        write_off_locked(egress_[key]);
      }
      for (Bytes& d : batch) {
        emit(key.first, key.second,
             std::make_shared<const Bytes>(std::move(d)), /*injectable=*/true,
             now);
      }
      if (idle_) idle_->sub(l.sender->take_retired_frames());
      const std::uint64_t deadline = l.sender->next_deadline_ns();
      if (deadline != UINT64_MAX) {
        earliest = std::min(
            earliest, Clock::time_point(std::chrono::nanoseconds(deadline)));
      }
    }
    if (l.receiver) {
      // Coalesced ack: one kAck per pump covering every chunk delivered
      // since the previous one, flowing key.second → key.first.
      if (auto ack = l.receiver->take_ack(key.second)) {
        ++stats_.acks_sent;
        emit(key.second, key.first,
             std::make_shared<const Bytes>(std::move(*ack)),
             /*injectable=*/true, now);
      }
    }
  }
  while (!delayed_.empty() && delayed_.top().due <= now) {
    // Already-injected datagrams released at their due time; no
    // re-injection (a datagram is dropped/delayed/duplicated once).
    const Delayed d = delayed_.top();
    delayed_.pop();
    transmit(d.from, d.to, *d.datagram);
  }
  if (!delayed_.empty()) earliest = std::min(earliest, delayed_.top().due);
  return earliest;
}

void UdpTransport::poll_loop() {
  std::vector<struct pollfd> fds;
  std::vector<ServerId> owners;  // fds[i+1] belongs to owners[i]

  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto now = Clock::now();
    const auto deadline = pump(now);

    fds.clear();
    owners.clear();
    fds.push_back({wake_fd(), POLLIN, 0});
    for (const ServerId s : local_servers()) {
      fds.push_back({fds_[s], POLLIN, 0});
      owners.push_back(s);
    }

    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms = std::max<int>(1, static_cast<int>(wait.count()) + 1);
    }

    lock.unlock();
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    lock.lock();
    if (stopping_) break;
    if (ready < 0) continue;  // EINTR

    if (fds[0].revents != 0) drain_wake();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      service_socket(owners[i - 1]);
    }
  }
}

WireMetrics UdpTransport::wire_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireMetrics metrics = metrics_;
  for (const auto& [key, l] : links_) {
    (void)key;
    if (l.sender) metrics.dropped += l.sender->stats().frames_dropped;
  }
  return metrics;
}

UdpStats UdpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  UdpStats stats = stats_;
  static_cast<LinkLayerStats&>(stats) = counters_;
  for (const auto& [key, l] : links_) {
    (void)key;
    if (l.sender) {
      stats.retransmits += l.sender->stats().retransmits;
      stats.channel_resets += l.sender->stats().resets;
    }
    if (l.receiver) {
      stats.duplicates_dropped += l.receiver->stats().duplicates;
      stats.far_future_dropped += l.receiver->stats().far_future_dropped;
      stats.corrupt_streams += l.receiver->stats().corrupt_streams;
    }
    stats.injected_drops += l.injected_drops;
    stats.injected_dups += l.injected_dups;
    stats.injected_delays += l.injected_delays;
  }
  return stats;
}

UdpLinkStats UdpTransport::link_stats(ServerId from, ServerId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  UdpLinkStats stats;
  static_cast<LinkEgressStats&>(stats) = egress_stats_locked(from, to);
  const auto it = links_.find({from, to});
  if (it == links_.end()) return stats;
  const Link& l = it->second;
  stats.datagrams_sent = l.datagrams_sent;
  stats.injected_drops = l.injected_drops;
  stats.injected_dups = l.injected_dups;
  stats.injected_delays = l.injected_delays;
  if (l.sender) {
    stats.retransmits = l.sender->stats().retransmits;
    stats.channel_resets = l.sender->stats().resets;
  }
  if (l.receiver) {
    stats.duplicates_dropped = l.receiver->stats().duplicates;
    stats.chunks_delivered = l.receiver->stats().chunks_delivered;
  }
  return stats;
}

}  // namespace blockdag::rt
