// Hashed timing wheel over a per-shard packet epoch (DESIGN.md Sec. 11).
//
// Recency tracking for the tiered flow table without an intrusive LRU:
// instead of relinking a list node on every packet, a touched flow only
// stores its new last-active epoch in its hot slot, and the wheel holds one
// lazily-validated entry per flow. Entries surface in approximate expiry
// order; the owner's callback checks the authoritative last-active epoch
// and either consumes the entry (drop / evict) or reschedules it — so a
// re-touched flow costs one reschedule when its old entry surfaces, never
// per-packet work. All operations are amortized O(1).
//
// Epochs are uint32 and wrap; all cursor arithmetic is modular, so rollover
// only requires that no entry is scheduled more than half the epoch space
// ahead (horizons here are thousands of epochs, nowhere near 2^31).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mfa::flow {

class TimingWheel {
 public:
  /// Callback verdicts for surfaced entries: kConsume removes the entry and
  /// (in pop_oldest) ends the search — the caller took the item. kDrop
  /// removes the entry but keeps searching — the entry was a stale ghost
  /// for an already-gone flow. Any other value reschedules at that epoch.
  static constexpr std::int64_t kConsume = -1;
  static constexpr std::int64_t kDrop = -2;

  /// `bucket_bits` sets the wheel span: 2^bucket_bits buckets, each
  /// covering 2^granule_bits epochs. Defaults span 256 * 4 = 1024 epochs
  /// per turn; entries beyond one turn simply surface early and get
  /// rescheduled by the validation callback.
  explicit TimingWheel(std::uint32_t bucket_bits = 8, std::uint32_t granule_bits = 2)
      : granule_bits_(granule_bits),
        mask_((1U << bucket_bits) - 1),
        buckets_(std::size_t{1} << bucket_bits) {}

  /// Remember `item` for the bucket covering `expire_epoch`.
  void schedule(std::uint32_t item, std::uint32_t expire_epoch) {
    buckets_[bucket_of(expire_epoch)].push_back(item);
    ++pending_;
  }

  /// Entries currently held (including stale ghosts not yet surfaced).
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Move the cursor to `now`, surfacing every entry in the buckets the
  /// cursor passes. cb(item) -> kConsume to remove, or an epoch to
  /// reschedule at. Amortized O(entries surfaced).
  template <typename Cb>
  void advance(std::uint32_t now, Cb&& cb) {
    // Modular distance in buckets; a full turn (or more) drains everything.
    const std::uint32_t steps =
        std::min<std::uint32_t>((now >> granule_bits_) - (cursor_ >> granule_bits_),
                                mask_ + 1);
    for (std::uint32_t s = 0; s < steps; ++s) {
      drain_bucket(bucket_of(cursor_), cb);
      cursor_ += (1U << granule_bits_);
    }
    cursor_ = now;
  }

  /// Surface entries in approximate expiry order starting at the cursor,
  /// regardless of the current epoch, until cb consumes one or `max_pops`
  /// entries have been offered. Used for victim selection when the flow
  /// table is at capacity: the oldest-scheduled (longest-untouched) flows
  /// surface first. Returns true if an entry was consumed.
  template <typename Cb>
  bool pop_oldest(std::size_t max_pops, Cb&& cb) {
    if (pending_ == 0) return false;
    std::size_t offered = 0;
    // Scan at most one full turn of buckets past the cursor.
    for (std::uint32_t b = 0; b <= mask_ && offered < max_pops; ++b) {
      auto& bucket = buckets_[(bucket_of(cursor_) + b) & mask_];
      while (!bucket.empty() && offered < max_pops) {
        // Swap-remove the front before the callback: a reschedule may push
        // into this same bucket (it lands at the back and is re-examined,
        // bounded by max_pops).
        const std::uint32_t item = bucket.front();
        bucket.front() = bucket.back();
        bucket.pop_back();
        --pending_;
        ++offered;
        const std::int64_t verdict = cb(item);
        if (verdict == kConsume) return true;
        if (verdict == kDrop) continue;
        schedule(item, static_cast<std::uint32_t>(verdict));
      }
    }
    return false;
  }

  void clear() {
    for (auto& b : buckets_) b.clear();
    pending_ = 0;
    cursor_ = 0;
  }

  /// Structural heap footprint (for bytes/flow accounting).
  [[nodiscard]] std::size_t allocated_bytes() const {
    std::size_t total = buckets_.capacity() * sizeof(buckets_[0]);
    for (const auto& b : buckets_) total += b.capacity() * sizeof(std::uint32_t);
    return total;
  }

 private:
  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t epoch) const {
    return (epoch >> granule_bits_) & mask_;
  }

  template <typename Cb>
  void drain_bucket(std::uint32_t index, Cb& cb) {
    auto& bucket = buckets_[index];
    if (bucket.empty()) return;
    scratch_.swap(bucket);  // reschedules may target this same bucket
    pending_ -= scratch_.size();
    for (const std::uint32_t item : scratch_) {
      const std::int64_t verdict = cb(item);
      if (verdict != kConsume && verdict != kDrop)
        schedule(item, static_cast<std::uint32_t>(verdict));
    }
    scratch_.clear();
  }

  std::uint32_t granule_bits_;
  std::uint32_t mask_;
  std::uint32_t cursor_ = 0;  ///< epoch the wheel has advanced to
  std::size_t pending_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> scratch_;
};

}  // namespace mfa::flow
