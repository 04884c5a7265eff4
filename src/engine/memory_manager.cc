#include "engine/memory_manager.h"

#include <algorithm>

#include "engine/query_profile.h"

namespace ssql {

MemoryReservation::MemoryReservation(MemoryReservation&& other) noexcept
    : mgr_(other.mgr_), reserved_(other.reserved_) {
  other.mgr_ = nullptr;
  other.reserved_ = 0;
}

MemoryReservation::~MemoryReservation() { Release(); }

bool MemoryReservation::TryGrow(int64_t bytes) {
  if (bytes <= 0 || mgr_ == nullptr) return true;
  if (!mgr_->TryReserve(bytes)) return false;
  reserved_ += bytes;
  return true;
}

bool MemoryReservation::EnsureReserved(int64_t needed_total) {
  int64_t deficit = needed_total - reserved_;
  if (deficit <= 0) return true;
  if (TryGrow(std::max(deficit, kMemoryReserveChunkBytes))) return true;
  return TryGrow(deficit);
}

void MemoryReservation::ForceGrow(int64_t bytes) {
  if (bytes <= 0 || mgr_ == nullptr) return;
  mgr_->ForceReserve(bytes);
  reserved_ += bytes;
}

void MemoryReservation::Shrink(int64_t bytes) {
  bytes = std::min(bytes, reserved_);
  if (bytes <= 0 || mgr_ == nullptr) return;
  mgr_->ReleaseBytes(bytes);
  reserved_ -= bytes;
}

void MemoryReservation::Release() {
  if (mgr_ != nullptr && reserved_ > 0) mgr_->ReleaseBytes(reserved_);
  reserved_ = 0;
}

void MemoryManager::Configure(int64_t limit_bytes, bool spill_enabled,
                              QueryProfile* profile, MemoryManager* parent) {
  limit_.store(limit_bytes < 0 ? -1 : limit_bytes, std::memory_order_relaxed);
  spill_enabled_ = spill_enabled;
  profile_ = profile;
  parent_ = parent;
  // Live reservations (there should be none between queries) keep their
  // bytes; only the peak tracking restarts.
  peak_.store(reserved_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  published_peak_.store(0, std::memory_order_relaxed);
}

std::string MemoryManager::OverBudgetMessage(const std::string& consumer) const {
  if (limit_bytes() < 0 && parent_ != nullptr) {
    return "engine memory limit of " + std::to_string(parent_->limit_bytes()) +
           " bytes exceeded by " + consumer +
           " and spilling is disabled; raise total_memory_limit_bytes or set "
           "spill_enabled";
  }
  return "query memory limit of " + std::to_string(limit_bytes()) +
         " bytes exceeded by " + consumer +
         " and spilling is disabled; raise query_memory_limit_bytes or set "
         "spill_enabled";
}

void MemoryManager::JournalDeny(int64_t bytes, const char* level) {
  // Edge-triggered: one pressure episode (deny → spill/force loop → clean
  // grant) journals one deny, however many chunk-sized grows it denied —
  // an over-budget merge denies per group entry and would flood the ring.
  if (journal_ == nullptr) return;
  if (!under_pressure_.exchange(true, std::memory_order_relaxed)) {
    journal_->Emit(EngineEventKind::kMemoryDeny, EventSeverity::kWarn,
                   query_id_, bytes, level);
  }
}

bool MemoryManager::TryReserve(int64_t bytes) {
  int64_t limit = limit_.load(std::memory_order_relaxed);
  int64_t current = reserved_.load(std::memory_order_relaxed);
  while (true) {
    if (limit >= 0 && current + bytes > limit) {
      JournalDeny(bytes, "query budget");
      return false;
    }
    if (reserved_.compare_exchange_weak(current, current + bytes,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  // The grant must also fit the parent pool (the engine-wide total across
  // all concurrent queries); an exhausted pool denies the grow, which the
  // operator handles exactly like its own budget denial — by spilling.
  if (parent_ != nullptr && !parent_->TryReserve(bytes)) {
    reserved_.fetch_sub(bytes, std::memory_order_relaxed);
    JournalDeny(bytes, "engine pool");
    return false;
  }
  // A clean grant ends the pressure episode; journal the recovery so the
  // deny/grant pairs bracket every spill cycle in system.events.
  if (journal_ != nullptr &&
      under_pressure_.exchange(false, std::memory_order_relaxed)) {
    journal_->Emit(EngineEventKind::kMemoryGrant, EventSeverity::kDebug,
                   query_id_, bytes, "recovered");
  }
  PublishPeak();
  return true;
}

void MemoryManager::ForceReserve(int64_t bytes) {
  reserved_.fetch_add(bytes, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->ForceReserve(bytes);
  // Forced grants are the over-budget escape hatch (the irreducible
  // working set). Journal only the ones outside a pressure episode: under
  // pressure they fire per admitted entry and the episode's deny already
  // marks the timeline.
  if (journal_ != nullptr &&
      !under_pressure_.load(std::memory_order_relaxed)) {
    journal_->Emit(EngineEventKind::kMemoryGrant, EventSeverity::kInfo,
                   query_id_, bytes, "forced");
  }
  PublishPeak();
}

void MemoryManager::ReleaseBytes(int64_t bytes) {
  reserved_.fetch_sub(bytes, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->ReleaseBytes(bytes);
}

void MemoryManager::PublishPeak() {
  int64_t current = reserved_.load(std::memory_order_relaxed);
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (current > peak &&
         !peak_.compare_exchange_weak(peak, current,
                                      std::memory_order_relaxed)) {
  }
  // Profile counters are additive, so the peak is published as deltas over
  // what was already recorded for this query. The profile attributes the
  // delta to the operator whose reservation raised the high-water mark and
  // forwards the legacy "memory.peak_reserved_bytes" aggregate.
  if (profile_ == nullptr) return;
  int64_t new_peak = peak_.load(std::memory_order_relaxed);
  int64_t published = published_peak_.load(std::memory_order_relaxed);
  while (new_peak > published) {
    if (published_peak_.compare_exchange_weak(published, new_peak,
                                              std::memory_order_relaxed)) {
      profile_->Add(nullptr, ProfileCounter::kPeakReservedBytes,
                    new_peak - published);
      break;
    }
  }
}

}  // namespace ssql
