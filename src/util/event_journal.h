#pragma once
// Engine flight recorder: an always-on, bounded ring journal of structured
// engine events (admission, tasks, spills, memory, watchdog, query
// lifecycle). Emission is designed to cost nanoseconds when nobody is
// reading: the disabled check is a single relaxed atomic load, and the
// enabled path is one relaxed fetch_add plus a copy of a small POD slot
// into the ring under one of a few striped mutexes. The ring is shared by
// every thread and indexed by the event's global sequence number; slot i
// lives in stripe i % kStripes, so consecutive events land on different
// stripes and acquisition is mostly an uncontended CAS; readers (the
// `system.events` table, diagnostics bundles) briefly lock each stripe in
// turn to copy its slots out.
//
// Overwrite semantics: event `seq` lives in slot `seq % capacity`, so the
// journal always holds the most recent `capacity` events no matter which
// threads emitted them — a run whose events fit in the capacity never
// drops one — and each emission past the capacity advances the drop
// counter. Emit never blocks on more than a slot copy and never allocates.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ssql {

/// Kinds of engine events recorded by the flight recorder. Names (see
/// EngineEventKindName) are stable dotted identifiers used in
/// `system.events` and diagnostics bundles; append new kinds at the end.
enum class EngineEventKind : uint8_t {
  kQueryBegin = 0,
  kQueryFinish,
  kAdmissionEnqueue,
  kAdmissionShed,
  kAdmissionTimeout,
  kTaskStart,
  kTaskFinish,
  kTaskRetry,
  kTaskSpeculate,
  kTaskSpeculationWin,
  kTaskCommit,
  kTaskTimeout,
  kSpillOpen,
  kSpillWrite,
  kSpillChecksumFail,
  kIoRetry,
  kMemoryGrant,
  kMemoryDeny,
  kWatchdogStall,
  kWatchdogKill,
  kNumKinds,  // sentinel; keep last
};

const char* EngineEventKindName(EngineEventKind kind);

enum class EventSeverity : uint8_t {
  kDebug = 0,
  kInfo,
  kWarn,
  kError,
};

const char* EventSeverityName(EventSeverity severity);

/// One fixed-size journal slot. POD by design: emission copies it into the
/// ring without allocating; the detail string is truncated to the inline
/// buffer. `value` is a kind-specific payload (bytes for spill writes,
/// partition for task events, queue depth for admission, duration_ms for
/// query finish, ...).
struct EngineEvent {
  uint64_t seq = 0;       // global emission order across all shards
  int64_t unix_ms = 0;    // wall-clock milliseconds since the epoch
  uint64_t query_id = 0;  // 0 = engine-level event (no owning query)
  EngineEventKind kind = EngineEventKind::kQueryBegin;
  EventSeverity severity = EventSeverity::kDebug;
  int64_t value = 0;
  char detail[48] = {0};  // NUL-terminated, truncated as needed
};

class EventJournal {
 public:
  /// Number of stripes the ring's slots are dealt over; slot i lives in
  /// stripe i % kStripes, under that stripe's mutex.
  static constexpr size_t kStripes = 8;

  explicit EventJournal(size_t capacity = 0) { Configure(capacity); }

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// (Re)arms the journal with a new total capacity; 0 disables emission
  /// entirely. Existing events are discarded and counters reset. Safe to
  /// call concurrently with Emit/Snapshot, but intended for engine
  /// configuration time.
  void Configure(size_t capacity);

  bool enabled() const {
    return capacity_.load(std::memory_order_relaxed) > 0;
  }

  /// Records one event. No-op (one atomic load) when the journal is
  /// disabled. Never blocks on readers for more than a brief slot copy
  /// and never allocates; `detail` is truncated to the inline buffer.
  void Emit(EngineEventKind kind, EventSeverity severity, uint64_t query_id,
            int64_t value, std::string_view detail);

  /// Copies the current journal contents out and returns them in global
  /// emission (seq) order. Bounded by the configured capacity.
  std::vector<EngineEvent> Snapshot() const;

  /// Total events ever emitted (while enabled) since the last Configure.
  uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }

  /// Events overwritten before ever being visible to a Snapshot — the
  /// journal's loss counter. appended() - dropped() == Snapshot().size()
  /// when no emitter is mid-flight.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Total configured capacity in events.
  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    EngineEvent event;
    bool filled = false;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::vector<Slot> slots;   // ring slot i at slots[i / kStripes]
    size_t ring_capacity = 0;  // the ring these slots belong to
  };

  // Ring slot count; 0 = disabled. Read on every Emit (relaxed).
  std::atomic<size_t> capacity_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  Stripe stripes_[kStripes];
};

}  // namespace ssql
