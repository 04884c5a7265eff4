#include "util/event_journal.h"

#include <algorithm>
#include <chrono>

namespace ssql {

namespace {

int64_t JournalNowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* EngineEventKindName(EngineEventKind kind) {
  switch (kind) {
    case EngineEventKind::kQueryBegin:
      return "query.begin";
    case EngineEventKind::kQueryFinish:
      return "query.finish";
    case EngineEventKind::kAdmissionEnqueue:
      return "admission.enqueue";
    case EngineEventKind::kAdmissionShed:
      return "admission.shed";
    case EngineEventKind::kAdmissionTimeout:
      return "admission.timeout";
    case EngineEventKind::kTaskStart:
      return "task.start";
    case EngineEventKind::kTaskFinish:
      return "task.finish";
    case EngineEventKind::kTaskRetry:
      return "task.retry";
    case EngineEventKind::kTaskSpeculate:
      return "task.speculate";
    case EngineEventKind::kTaskSpeculationWin:
      return "task.speculation_win";
    case EngineEventKind::kTaskCommit:
      return "task.commit";
    case EngineEventKind::kTaskTimeout:
      return "task.timeout";
    case EngineEventKind::kSpillOpen:
      return "spill.open";
    case EngineEventKind::kSpillWrite:
      return "spill.write";
    case EngineEventKind::kSpillChecksumFail:
      return "spill.checksum_fail";
    case EngineEventKind::kIoRetry:
      return "io.retry";
    case EngineEventKind::kMemoryGrant:
      return "memory.grant";
    case EngineEventKind::kMemoryDeny:
      return "memory.deny";
    case EngineEventKind::kWatchdogStall:
      return "watchdog.stall";
    case EngineEventKind::kWatchdogKill:
      return "watchdog.kill";
    case EngineEventKind::kNumKinds:
      break;
  }
  return "unknown";
}

const char* EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug:
      return "DEBUG";
    case EventSeverity::kInfo:
      return "INFO";
    case EventSeverity::kWarn:
      return "WARN";
    case EventSeverity::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

void EventJournal::Configure(size_t capacity) {
  // Disable emission first, then hold every stripe while the ring is
  // replaced, so writers racing the reset see either the old ring or the
  // new one, never a half-cleared one.
  capacity_.store(0, std::memory_order_seq_cst);
  std::unique_lock<std::mutex> locks[kStripes];
  for (size_t i = 0; i < kStripes; ++i) {
    locks[i] = std::unique_lock<std::mutex>(stripes_[i].mu);
    // Ring slots i, i + kStripes, ... below `capacity`.
    stripes_[i].slots.assign(capacity > i ? (capacity - i - 1) / kStripes + 1
                                          : 0,
                             Slot{});
    stripes_[i].ring_capacity = capacity;
  }
  next_seq_.store(0, std::memory_order_relaxed);
  appended_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  capacity_.store(capacity, std::memory_order_seq_cst);
}

void EventJournal::Emit(EngineEventKind kind, EventSeverity severity,
                        uint64_t query_id, int64_t value,
                        std::string_view detail) {
  const size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (capacity == 0) return;  // disabled: this load is the whole cost

  EngineEvent event;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.unix_ms = JournalNowUnixMs();
  event.query_id = query_id;
  event.kind = kind;
  event.severity = severity;
  event.value = value;
  const size_t n = std::min(detail.size(), sizeof(event.detail) - 1);
  if (n > 0) std::memcpy(event.detail, detail.data(), n);
  event.detail[n] = '\0';

  const size_t index = event.seq % capacity;
  Stripe& stripe = stripes_[index % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  // Configure may have swapped the ring under us; an event of the old
  // ring is simply not recorded.
  if (stripe.ring_capacity != capacity) return;
  appended_.fetch_add(1, std::memory_order_relaxed);
  // Every emission past the capacity loses exactly one event: the slot's
  // older occupant, or this event if a newer one got there first.
  if (event.seq >= capacity) dropped_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = stripe.slots[index / kStripes];
  if (slot.filled && slot.event.seq > event.seq) return;
  slot.event = event;
  slot.filled = true;
}

std::vector<EngineEvent> EventJournal::Snapshot() const {
  std::vector<EngineEvent> out;
  out.reserve(capacity());
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const Slot& slot : stripe.slots) {
      if (slot.filled) out.push_back(slot.event);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EngineEvent& a, const EngineEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace ssql
