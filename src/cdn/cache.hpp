// Cache policies: LRU, LFU and FIFO.
//
// Both ground CDN edges and SpaceCDN satellite caches use these; the
// content-bubble work (paper section 5) additionally needs region-aware
// eviction, built on top in spacecdn/bubbles.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdn/content.hpp"
#include "util/units.hpp"

namespace spacecdn::cdn {

/// Hit/miss/eviction counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts refused because the object exceeds the whole capacity.  A
  /// placement loop that keeps offering such an object would otherwise spin
  /// invisibly: the insert fails without a hit, miss, or eviction.
  std::uint64_t rejected_oversized = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Per-instance cached counter handles (defined in cache.cpp); keeps the
/// per-event cost at a pointer bump instead of a registry name lookup.
struct CacheTelemetry;

class ResidencyIndex;

/// Abstract capacity-bounded object cache.
///
/// Methods take the current simulation time so that a time-aware policy
/// could share the interface; the policies below ignore it.
class Cache {
 public:
  explicit Cache(Megabytes capacity);
  virtual ~Cache();
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up `id`, updating policy state and hit/miss stats.
  [[nodiscard]] virtual bool access(ContentId id, Milliseconds now) = 0;

  /// Pure query: no stats or recency update.
  [[nodiscard]] virtual bool contains(ContentId id) const = 0;

  /// Admits an object (no-op if present), evicting until it fits.
  /// Objects larger than the whole capacity are rejected (returns false).
  virtual bool insert(const ContentItem& item, Milliseconds now) = 0;

  /// Removes an object if present; returns whether it was present.
  virtual bool erase(ContentId id) = 0;

  /// Drops every object (a cache-node crash loses its contents).  Counters
  /// are preserved -- crashes are not evictions -- so hit-rate analyses stay
  /// meaningful across failures.
  virtual void clear() = 0;

  [[nodiscard]] virtual std::uint64_t object_count() const = 0;

  /// Pre-sizes storage for `objects` resident objects, so a known fill
  /// (e.g. a placement prewarm) grows it once.  A hint only: it changes no
  /// result, stat or eviction order, and never shrinks storage.  The
  /// default does nothing.
  virtual void reserve(std::uint64_t objects) { (void)objects; }

  [[nodiscard]] Megabytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] Megabytes used() const noexcept { return used_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  /// Tier label under which this cache reports to the telemetry registry
  /// (`spacecdn_cache_*_total{tier="..."}`).  Empty (the default) keeps the
  /// cache out of the registry -- local per-instance stats_ always accrue.
  void set_telemetry_tier(std::string_view tier);
  [[nodiscard]] const std::string& telemetry_tier() const noexcept {
    return telemetry_tier_;
  }

  /// Reports every object that enters or leaves this cache's storage from
  /// now on (insert, eviction, erase, clear) to `index` as holder `holder`;
  /// nullptr detaches.  The cache must be empty when it is attached, so the
  /// index never misses an object.
  void track_residency(ResidencyIndex* index, std::uint32_t holder);

 protected:
  // Policy implementations report through these so the registry sees every
  // hit/miss/insert/eviction with the owning tier's label.
  void note_hit();
  void note_miss();
  void note_insert();
  void note_evict();
  void note_reject_oversized();
  // Every object entering or leaving storage is reported through these.
  void note_stored(ContentId id);
  void note_dropped(ContentId id);

  Megabytes capacity_;
  Megabytes used_{0.0};
  CacheStats stats_;

 private:
  std::string telemetry_tier_;
  std::unique_ptr<CacheTelemetry> telemetry_;
  ResidencyIndex* residency_ = nullptr;
  std::uint32_t residency_holder_ = 0;
};

/// Storage shared by the two recency-ordered policies (LRU and FIFO).
///
/// Objects live in one flat vector of slots threaded onto an intrusive
/// doubly linked list by `uint32_t` indices (head = newest, tail = next
/// victim); freed slots are chained onto a free list and reused.  An
/// open-addressing table (linear probing, backward-shift deletion) maps a
/// ContentId to its slot.  Insert and evict therefore allocate nothing once
/// the vectors have grown, and a lookup is a short probe of one array.
/// The policies differ only in whether a hit or a re-insert moves the
/// object back to the head.
class SlotListCache : public Cache {
 public:
  [[nodiscard]] bool access(ContentId id, Milliseconds now) final;
  [[nodiscard]] bool contains(ContentId id) const final;
  bool insert(const ContentItem& item, Milliseconds now) final;
  bool erase(ContentId id) final;
  void clear() final;
  [[nodiscard]] std::uint64_t object_count() const final { return count_; }
  void reserve(std::uint64_t objects) final;

 protected:
  SlotListCache(Megabytes capacity, bool refresh_on_use);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffU;
  /// `prev` of a slot on the free list.
  static constexpr std::uint32_t kFree = 0xfffffffeU;

  struct Slot {
    ContentId id;
    Megabytes size;
    std::uint32_t prev;  // towards the head; kNone at the head, kFree if free
    std::uint32_t next;  // towards the tail; kNone at the tail (free list link)
  };

  /// Preferred table position of `id`.
  [[nodiscard]] std::uint32_t home(ContentId id) const noexcept;
  /// Table position holding `id`, or kNone.
  [[nodiscard]] std::uint32_t find_pos(ContentId id) const noexcept;
  /// First empty table position on `id`'s probe path.
  [[nodiscard]] std::uint32_t free_pos(ContentId id) const noexcept;
  /// Doubles the table (or creates it) and re-indexes every live slot.
  void grow_index();
  /// Replaces the table by one of `size` (a power of two) positions and
  /// re-indexes every live slot.
  void rebuild_index(std::size_t size);
  /// Drops the object at table position `pos`: frees its slot, unlinks it
  /// and closes the gap in the table.
  void remove(std::uint32_t pos);
  void link_front(std::uint32_t slot) noexcept;
  void unlink(std::uint32_t slot) noexcept;
  void move_to_front(std::uint32_t slot) noexcept;
  void evict_one();

  bool refresh_on_use_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNone;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::uint32_t count_ = 0;
  std::vector<std::uint32_t> index_;  // slot per position, kNone when empty
  int index_shift_ = 64;              // 64 - log2(index_.size())
};

/// Least-recently-used eviction.  O(1) access and insert; a hit or a
/// re-insert refreshes recency.
class LruCache final : public SlotListCache {
 public:
  explicit LruCache(Megabytes capacity) : SlotListCache(capacity, true) {}
};

/// Least-frequently-used eviction with LRU tie-breaking (frequency buckets;
/// O(1) amortised).
class LfuCache final : public Cache {
 public:
  explicit LfuCache(Megabytes capacity);

  [[nodiscard]] bool access(ContentId id, Milliseconds now) override;
  [[nodiscard]] bool contains(ContentId id) const override;
  bool insert(const ContentItem& item, Milliseconds now) override;
  bool erase(ContentId id) override;
  void clear() override;
  [[nodiscard]] std::uint64_t object_count() const override;

 private:
  struct Entry {
    ContentId id;
    Megabytes size;
    std::uint64_t frequency;
  };
  using Bucket = std::list<Entry>;  // within a frequency: front = most recent

  void bump(ContentId id);
  void evict_one();

  std::map<std::uint64_t, Bucket> buckets_;  // frequency -> entries
  std::unordered_map<ContentId, Bucket::iterator> index_;
};

/// First-in first-out eviction (insertion order, no recency update).
class FifoCache final : public SlotListCache {
 public:
  explicit FifoCache(Megabytes capacity) : SlotListCache(capacity, false) {}
};

/// Eviction policy selector for factories.
enum class CachePolicy { kLru, kLfu, kFifo };

[[nodiscard]] std::unique_ptr<Cache> make_cache(CachePolicy policy, Megabytes capacity);

[[nodiscard]] std::string_view to_string(CachePolicy policy) noexcept;

}  // namespace spacecdn::cdn
