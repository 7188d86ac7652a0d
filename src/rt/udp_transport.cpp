#include "rt/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "net/codec.h"

namespace blockdag::rt {

namespace {

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

}  // namespace

UdpTransport::UdpTransport(UdpConfig config, std::vector<Mailbox*> mailboxes,
                           IdleTracker* idle)
    : config_(std::move(config)),
      mailboxes_(std::move(mailboxes)),
      idle_(idle),
      handlers_(config_.n_servers),
      control_(config_.n_servers),
      fault_rng_(config_.fault_seed),
      default_fault_(config_.default_fault),
      blackholed_(static_cast<std::size_t>(config_.n_servers) * config_.n_servers,
                  false) {
  assert(mailboxes_.size() == config_.n_servers);
  if (config_.local_servers.empty()) {
    for (ServerId s = 0; s < config_.n_servers; ++s) {
      config_.local_servers.push_back(s);
    }
  }
  socket_fds_.assign(config_.n_servers, -1);
  ports_.assign(config_.n_servers, 0);

  struct in_addr addr {};
  if (::inet_aton(config_.host.c_str(), &addr) == 0) return;  // ok_ stays false

  // Remote servers are reachable only through the deterministic
  // base_port + id scheme; ephemeral ports cannot be derived for them.
  const bool any_remote = config_.local_servers.size() < config_.n_servers;
  if (any_remote && config_.base_port == 0) return;
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

  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0) return;
  wake_rd_ = wake_fds[0];
  wake_wr_ = wake_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  for (const ServerId s : config_.local_servers) {
    assert(s < config_.n_servers && mailboxes_[s] != nullptr);
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return;
    socket_fds_[s] = fd;
    // Generous kernel buffers: a dissemination burst at n·(n−1) links can
    // outrun the drain; kernel drops are just extra loss for the
    // retransmission layer, but there is no reason to invite them.
    int bufsize = 1 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof bufsize);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof bufsize);
    struct sockaddr_in sa {};
    sa.sin_family = AF_INET;
    sa.sin_addr = addr;
    sa.sin_port = htons(ports_[s]);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof sa) != 0 ||
        !set_nonblocking(fd)) {
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

UdpTransport::~UdpTransport() { stop(); }

std::uint16_t UdpTransport::port_of(ServerId server) const {
  assert(server < ports_.size());
  return ports_[server];
}

void UdpTransport::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || !ok_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { poll_loop(); });
}

void UdpTransport::stop() {
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
  for (auto& [key, l] : links_) {
    (void)key;
    if (l.sender && idle_) {
      // Frames still awaiting acks are outstanding work units; release
      // them or wait_idle() would hang forever after a teardown.
      idle_->sub(l.sender->take_retired_frames() + l.sender->pending_frames());
    }
    // Staged-but-unpacked envelopes are outstanding work units too.
    if (idle_ && !l.staged.empty()) idle_->sub(l.staged.size());
    l.staged.clear();
    l.sender.reset();
    l.receiver.reset();
  }
  links_.clear();
  while (!delayed_.empty()) delayed_.pop();
  for (int& fd : socket_fds_) close_fd(fd);
  close_fd(wake_rd_);
  close_fd(wake_wr_);
  running_ = false;
}

void UdpTransport::attach(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void UdpTransport::set_control_handler(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  control_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
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

void UdpTransport::set_default_fault(const LinkFault& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  default_fault_ = fault;
}

void UdpTransport::set_partition(const std::vector<ServerId>& side_a,
                                 const std::vector<ServerId>& side_b,
                                 bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ServerId a : side_a) {
    for (const ServerId b : side_b) {
      if (a >= config_.n_servers || b >= config_.n_servers) continue;
      blackholed_[a * config_.n_servers + b] = active;
      blackholed_[b * config_.n_servers + a] = active;
    }
  }
}

void UdpTransport::heal_all_faults() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_overrides_.clear();
  default_fault_ = LinkFault{};
  std::fill(blackholed_.begin(), blackholed_.end(), false);
}

void UdpTransport::deliver_local_many(ServerId to, ServerId from,
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

void UdpTransport::send(ServerId from, ServerId to, WireKind kind,
                        Bytes payload) {
  send_many(from, to,
            {Envelope{kind, std::make_shared<const Bytes>(std::move(payload))}});
}

void UdpTransport::broadcast(ServerId from, WireKind kind,
                             const Bytes& payload) {
  broadcast_many(from, {Envelope{kind, std::make_shared<const Bytes>(payload)}});
}

// mu_ held. Stages one envelope on the link: the per-kind metrics are
// charged here, the frame itself materialises in pack_staged.
void UdpTransport::stage_locked(Link& l, const Envelope& envelope) {
  const auto k = static_cast<std::size_t>(envelope.kind);
  metrics_.messages[k] += 1;
  metrics_.bytes[k] += envelope.payload->size();
  l.staged.push_back(envelope);
  if (idle_) idle_->add();
}

void UdpTransport::send_many(ServerId from, ServerId to,
                             const std::vector<Envelope>& envelopes) {
  assert(to < config_.n_servers && is_local(from));
  if (envelopes.empty()) return;
  if (to == from) {
    // Self-delivery is local and free of wire cost on every transport.
    deliver_local_many(to, from, envelopes);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics_.dropped += envelopes.size();
      return;
    }
    Link& l = link(from, to);
    for (const Envelope& e : envelopes) stage_locked(l, e);
  }
  wake();
}

void UdpTransport::broadcast_many(ServerId from,
                                  const std::vector<Envelope>& envelopes) {
  if (envelopes.empty()) return;
  // Every peer link's staging queue shares the same immutable payloads.
  bool staged = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics_.dropped +=
          envelopes.size() * (config_.n_servers > 0 ? config_.n_servers - 1 : 0);
    } else {
      for (ServerId to = 0; to < config_.n_servers; ++to) {
        if (to == from) continue;
        Link& l = link(from, to);
        for (const Envelope& e : envelopes) stage_locked(l, e);
        staged = true;
      }
    }
  }
  deliver_local_many(from, from, envelopes);
  if (staged) wake();
}

// mu_ held. Packs everything staged on the link into wire frames and
// offers them to the sender channel. The idle accounting swaps k envelope
// units for one frame unit per packed frame (add before sub, so the count
// never transiently hits zero).
void UdpTransport::pack_staged(ServerId from, Link& l) {
  if (!l.sender) {
    l.sender = std::make_unique<SenderChannel>(from, config_.channel);
  }
  while (!l.staged.empty()) {
    const PackedFrame packed = pack_frame(from, l.staged, kUdpMaxBatchBytes);
    const std::size_t take = packed.envelopes;
    if (take > 1) {
      ++stats_.batches_sent;
      stats_.batched_envelopes += take;
      ++l.batches_sent;
      l.batched_envelopes += take;
    }
    if (l.sender->offer(packed.frame)) {
      ++stats_.frames_sent;
      if (idle_) {
        idle_->add();
        idle_->sub(take);
      }
    } else {
      // Channel queue full: the packed envelopes are dropped whole —
      // transient loss, gossip FWD recovers (the channel counted the
      // refused frame in frames_dropped).
      metrics_.dropped += take;
      if (idle_) idle_->sub(take);
    }
  }
}

void UdpTransport::transmit(ServerId from, ServerId to, const Bytes& datagram) {
  const int fd = socket_fds_[from];
  if (fd < 0) return;
  struct in_addr addr {};
  ::inet_aton(config_.host.c_str(), &addr);  // validated in the constructor
  struct sockaddr_in sa {};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(ports_[to]);
  const auto n = ::sendto(fd, datagram.data(), datagram.size(), 0,
                          reinterpret_cast<struct sockaddr*>(&sa), sizeof sa);
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
    if (f.blackhole || blackholed_[from * config_.n_servers + to]) {
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

void UdpTransport::deliver_frames(ServerId owner, std::vector<Frame>& frames) {
  for (Frame& frame : frames) {
    if (frame.header.from >= config_.n_servers) {
      ++stats_.malformed_dropped;
      continue;
    }
    ++stats_.frames_received;
    const ServerId from = frame.header.from;
    if (frame.header.kind == WireKind::kBatch) {
      // Unpack before posting; a malformed batch is dropped whole with no
      // channel state touched (split_batch bounds-checks every inner
      // length pre-allocation, refuses nesting).
      const auto entries = split_batch(frame.payload);
      if (!entries) {
        ++stats_.batch_decode_failures;
        continue;
      }
      ++stats_.batches_received;
      stats_.batched_envelopes_received += entries->size();
      std::shared_ptr<const Handler> proto = handlers_[owner];
      std::shared_ptr<const Handler> ctrl = control_[owner];
      if (!proto && !ctrl) continue;
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
            static_cast<std::size_t>(e.envelope.data() - frame.payload.data()),
            e.envelope.size()});
      }
      auto payload = std::make_shared<const Bytes>(std::move(frame.payload));
      // One mailbox wakeup dispatches every inner envelope in order.
      mailboxes_[owner]->push(
          [proto = std::move(proto), ctrl = std::move(ctrl), from,
           payload = std::move(payload), inners = std::move(inners)] {
            for (const Inner& e : inners) {
              const auto& handler = e.kind == WireKind::kControl ? ctrl : proto;
              if (!handler) continue;
              const Bytes envelope(
                  payload->begin() + static_cast<std::ptrdiff_t>(e.off),
                  payload->begin() + static_cast<std::ptrdiff_t>(e.off + e.len));
              (*handler)(from, envelope);
            }
          });
      continue;
    }
    std::shared_ptr<const Handler> handler = frame.header.kind == WireKind::kControl
                                                 ? control_[owner]
                                                 : handlers_[owner];
    if (!handler) continue;
    auto payload = std::make_shared<const Bytes>(std::move(frame.payload));
    mailboxes_[owner]->push([handler = std::move(handler), from,
                             payload = std::move(payload)] {
      (*handler)(from, *payload);
    });
  }
  frames.clear();
}

void UdpTransport::service_socket(ServerId owner, Clock::time_point now) {
  std::uint8_t buf[65536];
  std::vector<Frame> frames;
  const int fd = socket_fds_[owner];
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
    if (!view || view->header.from >= config_.n_servers ||
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
      l.receiver = std::make_unique<ReceiverChannel>(config_.channel);
    }
    l.receiver->on_data(*view, frames);
    if (!frames.empty()) deliver_frames(owner, frames);
  }
  (void)now;
}

UdpTransport::Clock::time_point UdpTransport::pump(Clock::time_point now) {
  auto earliest = Clock::time_point::max();
  std::vector<Bytes> batch;
  for (auto& [key, l] : links_) {
    // Everything staged since the last pump coalesces here — the flush
    // window is one pump cadence (the poll loop wakes immediately on new
    // work, so an idle link flushes at once and a busy one accumulates).
    if (!l.staged.empty()) pack_staged(key.first, l);
    if (l.sender) {
      batch.clear();
      l.sender->poll(to_ns(now), batch);
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

void UdpTransport::wake() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wake_wr_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr_, &byte, 1);
  }
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
    fds.push_back({wake_rd_, POLLIN, 0});
    for (const ServerId s : config_.local_servers) {
      fds.push_back({socket_fds_[s], POLLIN, 0});
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

    if (fds[0].revents != 0) {
      char drain[256];
      while (::read(wake_rd_, drain, sizeof drain) > 0) {
      }
    }
    const auto recv_now = Clock::now();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      service_socket(owners[i - 1], recv_now);
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
  const auto it = links_.find({from, to});
  if (it == links_.end()) return stats;
  const Link& l = it->second;
  stats.datagrams_sent = l.datagrams_sent;
  stats.injected_drops = l.injected_drops;
  stats.injected_dups = l.injected_dups;
  stats.injected_delays = l.injected_delays;
  stats.batches_sent = l.batches_sent;
  stats.batched_envelopes = l.batched_envelopes;
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
