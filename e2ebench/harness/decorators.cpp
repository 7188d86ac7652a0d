#include "decorators.h"

#include <cstdlib>
#include <utility>

namespace e2ebench {

namespace {

using blockdag::Message;
using blockdag::Process;
using blockdag::ServerId;
using blockdag::StepResult;

std::atomic<std::uint64_t> g_factory_ids{1};

class TimingProcess final : public Process {
 public:
  TimingProcess(std::unique_ptr<Process> inner, Label label,
                const TimingFactory& factory)
      : inner_(std::move(inner)), label_(label), factory_(factory) {}

  ServerId self() const override { return inner_->self(); }

  std::unique_ptr<Process> clone() const override {
    const std::int64_t t0 = now_ns();
    auto copy = inner_->clone();
    CallTotals& slot = factory_.slot();
    slot.clone_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++slot.clone_calls;
    return std::make_unique<TimingProcess>(std::move(copy), label_, factory_);
  }

  StepResult on_request(const Bytes& request) override {
    factory_.note_request(label_);
    const std::int64_t t0 = now_ns();
    StepResult result = inner_->on_request(request);
    CallTotals& slot = factory_.slot();
    slot.request_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++slot.request_calls;
    return result;
  }

  StepResult on_message(const Message& message) override {
    const std::int64_t t0 = now_ns();
    StepResult result = inner_->on_message(message);
    CallTotals& slot = factory_.slot();
    slot.message_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++slot.message_calls;
    return result;
  }

  Bytes state_digest() const override { return inner_->state_digest(); }
  Bytes serialize() const override { return inner_->serialize(); }

 private:
  std::unique_ptr<Process> inner_;
  Label label_;
  const TimingFactory& factory_;
};

}  // namespace

TimingFactory::TimingFactory(const blockdag::ProtocolFactory& inner,
                             RequestHook on_request)
    : inner_(inner), on_request_(std::move(on_request)), id_(g_factory_ids++) {}

std::unique_ptr<Process> TimingFactory::wrap(std::unique_ptr<Process> p,
                                             Label label) const {
  if (!p) return nullptr;
  return std::make_unique<TimingProcess>(std::move(p), label, *this);
}

std::unique_ptr<Process> TimingFactory::create(Label label, ServerId self,
                                               std::uint32_t n_servers) const {
  return wrap(inner_.create(label, self, n_servers), label);
}

std::unique_ptr<Process> TimingFactory::deserialize(Label label, ServerId self,
                                                    std::uint32_t n_servers,
                                                    const Bytes& state) const {
  return wrap(inner_.deserialize(label, self, n_servers, state), label);
}

CallTotals& TimingFactory::slot() const {
  // A thread remembers its slot per factory id (ids are never reused, so a
  // stale entry of a destroyed factory can never match a live one).
  struct Cached {
    std::uint64_t id;
    CallTotals* totals;
  };
  thread_local std::vector<Cached> cache;
  for (const Cached& c : cache) {
    if (c.id == id_) return *c.totals;
  }
  const std::size_t index = next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (index >= kSlots) std::abort();  // more calling threads than any runtime has
  cache.push_back(Cached{id_, &slots_[index].totals});
  return slots_[index].totals;
}

CallTotals TimingFactory::totals() const {
  CallTotals sum;
  const std::size_t used = std::min(next_slot_.load(), kSlots);
  for (std::size_t i = 0; i < used; ++i) sum.add(slots_[i].totals);
  return sum;
}

bool TimingSink::store_checkpoint(std::uint64_t epoch, const Bytes& bytes) {
  const std::int64_t t0 = now_ns();
  const bool ok = inner_.store_checkpoint(epoch, bytes);
  const auto dt = static_cast<std::uint64_t>(now_ns() - t0);
  ++totals_.checkpoints;
  totals_.checkpoint_ns_max = std::max(totals_.checkpoint_ns_max, dt);
  totals_.checkpoint_bytes += bytes.size();
  if (!ok) ++totals_.failures;
  return ok;
}

bool TimingSink::append_block(blockdag::sync::LogKind kind, const Bytes& payload) {
  const std::int64_t t0 = now_ns();
  const bool ok = inner_.append_block(kind, payload);
  totals_.append_ns += static_cast<std::uint64_t>(now_ns() - t0);
  ++totals_.appends;
  if (!ok) ++totals_.failures;
  if (capture_) captured_.push_back(payload);
  return ok;
}

}  // namespace e2ebench
