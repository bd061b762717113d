#include "cdn/cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace spacecdn::cdn {

struct CacheTelemetry {
  explicit CacheTelemetry(const std::string& tier)
      : hit("spacecdn_cache_hit_total", {{"tier", tier}}),
        miss("spacecdn_cache_miss_total", {{"tier", tier}}),
        insert("spacecdn_cache_insert_total", {{"tier", tier}}),
        evict("spacecdn_cache_evict_total", {{"tier", tier}}),
        reject_oversized("spacecdn_cache_reject_oversized_total", {{"tier", tier}}) {}

  obs::CounterHandle hit;
  obs::CounterHandle miss;
  obs::CounterHandle insert;
  obs::CounterHandle evict;
  obs::CounterHandle reject_oversized;
};

Cache::Cache(Megabytes capacity) : capacity_(capacity) {
  SPACECDN_EXPECT(capacity.value() > 0.0, "cache capacity must be positive");
}

Cache::~Cache() = default;

void Cache::set_telemetry_tier(std::string_view tier) {
  telemetry_tier_ = tier;
  telemetry_ =
      telemetry_tier_.empty() ? nullptr : std::make_unique<CacheTelemetry>(telemetry_tier_);
}

void Cache::note_hit() {
  ++stats_.hits;
  if (telemetry_) telemetry_->hit.inc();
}

void Cache::note_miss() {
  ++stats_.misses;
  if (telemetry_) telemetry_->miss.inc();
}

void Cache::note_insert() {
  ++stats_.insertions;
  if (telemetry_) telemetry_->insert.inc();
}

void Cache::note_evict() {
  ++stats_.evictions;
  if (telemetry_) telemetry_->evict.inc();
}

void Cache::note_reject_oversized() {
  ++stats_.rejected_oversized;
  if (telemetry_) telemetry_->reject_oversized.inc();
}

// ----------------------------------------------------------- SlotListCache

namespace {

constexpr std::size_t kInitialIndexSize = 16;

}  // namespace

SlotListCache::SlotListCache(Megabytes capacity, bool refresh_on_use)
    : Cache(capacity), refresh_on_use_(refresh_on_use) {}

bool SlotListCache::access(ContentId id, Milliseconds /*now*/) {
  SPACECDN_PROFILE("Cache::access");
  const std::uint32_t pos = find_pos(id);
  if (pos == kNone) {
    note_miss();
    return false;
  }
  if (refresh_on_use_) move_to_front(index_[pos]);
  note_hit();
  return true;
}

bool SlotListCache::contains(ContentId id) const { return find_pos(id) != kNone; }

bool SlotListCache::insert(const ContentItem& item, Milliseconds /*now*/) {
  if (const std::uint32_t pos = find_pos(item.id); pos != kNone) {
    // Under LRU, re-storing an object counts as a use: refresh its recency
    // so a warm re-insert (e.g. a bubble refresh) protects it from eviction.
    if (refresh_on_use_) move_to_front(index_[pos]);
    return true;
  }
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  while (used_ + item.size > capacity_) evict_one();
  if (2 * (static_cast<std::size_t>(count_) + 1) > index_.size()) grow_index();

  std::uint32_t slot = free_;
  if (slot != kNone) {
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].id = item.id;
  slots_[slot].size = item.size;
  link_front(slot);
  index_[free_pos(item.id)] = slot;
  ++count_;
  used_ += item.size;
  note_insert();
  return true;
}

bool SlotListCache::erase(ContentId id) {
  const std::uint32_t pos = find_pos(id);
  if (pos == kNone) return false;
  remove(pos);
  return true;
}

void SlotListCache::clear() {
  slots_.clear();
  std::fill(index_.begin(), index_.end(), kNone);
  free_ = head_ = tail_ = kNone;
  count_ = 0;
  used_ = Megabytes{0.0};
}

std::uint32_t SlotListCache::home(ContentId id) const noexcept {
  // Fibonacci hashing: catalog ids are dense small integers, so a
  // multiplicative mix spreads them and the top bits pick the position.
  return static_cast<std::uint32_t>((id * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

std::uint32_t SlotListCache::find_pos(ContentId id) const noexcept {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = home(id);; pos = (pos + 1) & mask) {
    const std::uint32_t slot = index_[pos];
    if (slot == kNone) return kNone;
    if (slots_[slot].id == id) return static_cast<std::uint32_t>(pos);
  }
}

std::uint32_t SlotListCache::free_pos(ContentId id) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(id);
  while (index_[pos] != kNone) pos = (pos + 1) & mask;
  return static_cast<std::uint32_t>(pos);
}

void SlotListCache::grow_index() {
  const std::size_t size = index_.empty() ? kInitialIndexSize : 2 * index_.size();
  index_.assign(size, kNone);
  index_shift_ = 64 - std::countr_zero(size);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].prev != kFree) index_[free_pos(slots_[slot].id)] = slot;
  }
}

void SlotListCache::remove(std::uint32_t pos) {
  const std::uint32_t slot = index_[pos];
  used_ -= slots_[slot].size;
  unlink(slot);
  slots_[slot].prev = kFree;
  slots_[slot].next = free_;
  free_ = slot;
  --count_;

  // Backward-shift deletion: walk the probe chain after the hole and move
  // back every entry whose probe path crosses the hole, so lookups never
  // stop early at a gap (no tombstones needed).
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = pos;
  for (std::size_t next = (hole + 1) & mask; index_[next] != kNone;
       next = (next + 1) & mask) {
    const std::size_t want = home(slots_[index_[next]].id);
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNone;
}

void SlotListCache::link_front(std::uint32_t slot) noexcept {
  slots_[slot].prev = kNone;
  slots_[slot].next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void SlotListCache::unlink(std::uint32_t slot) noexcept {
  const Slot& s = slots_[slot];
  if (s.prev != kNone) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNone) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void SlotListCache::move_to_front(std::uint32_t slot) noexcept {
  if (slot == head_) return;
  unlink(slot);
  link_front(slot);
}

void SlotListCache::evict_one() {
  SPACECDN_EXPECT(tail_ != kNone, "evicting from an empty cache");
  const std::uint32_t pos = find_pos(slots_[tail_].id);
  SPACECDN_EXPECT(pos != kNone, "cache recency list and index disagree");
  remove(pos);
  note_evict();
}

// ---------------------------------------------------------------- LfuCache

LfuCache::LfuCache(Megabytes capacity) : Cache(capacity) {}

bool LfuCache::access(ContentId id, Milliseconds /*now*/) {
  SPACECDN_PROFILE("Cache::access");
  if (index_.find(id) == index_.end()) {
    note_miss();
    return false;
  }
  bump(id);
  note_hit();
  return true;
}

bool LfuCache::contains(ContentId id) const { return index_.count(id) != 0; }

bool LfuCache::insert(const ContentItem& item, Milliseconds /*now*/) {
  if (index_.count(item.id) != 0) return true;
  if (item.size > capacity_) {
    note_reject_oversized();
    return false;
  }
  while (used_ + item.size > capacity_) evict_one();
  Bucket& bucket = buckets_[1];
  bucket.push_front(Entry{item.id, item.size, 1});
  index_[item.id] = bucket.begin();
  used_ += item.size;
  note_insert();
  return true;
}

bool LfuCache::erase(ContentId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const auto bucket_it = buckets_.find(it->second->frequency);
  used_ -= it->second->size;
  bucket_it->second.erase(it->second);
  if (bucket_it->second.empty()) buckets_.erase(bucket_it);
  index_.erase(it);
  return true;
}

void LfuCache::clear() {
  buckets_.clear();
  index_.clear();
  used_ = Megabytes{0.0};
}

std::uint64_t LfuCache::object_count() const { return index_.size(); }

void LfuCache::bump(ContentId id) {
  const auto idx_it = index_.find(id);
  Entry entry = *idx_it->second;
  const auto old_bucket = buckets_.find(entry.frequency);
  old_bucket->second.erase(idx_it->second);
  if (old_bucket->second.empty()) buckets_.erase(old_bucket);
  ++entry.frequency;
  Bucket& bucket = buckets_[entry.frequency];
  bucket.push_front(entry);
  idx_it->second = bucket.begin();
}

void LfuCache::evict_one() {
  SPACECDN_EXPECT(!buckets_.empty(), "evicting from an empty cache");
  Bucket& lowest = buckets_.begin()->second;
  // Within the lowest frequency, the least recently touched sits at the back.
  const Entry& victim = lowest.back();
  used_ -= victim.size;
  index_.erase(victim.id);
  lowest.pop_back();
  if (lowest.empty()) buckets_.erase(buckets_.begin());
  note_evict();
}

// ----------------------------------------------------------------- factory

std::unique_ptr<Cache> make_cache(CachePolicy policy, Megabytes capacity) {
  switch (policy) {
    case CachePolicy::kLru:
      return std::make_unique<LruCache>(capacity);
    case CachePolicy::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case CachePolicy::kFifo:
      return std::make_unique<FifoCache>(capacity);
  }
  throw ConfigError("unknown cache policy");
}

std::string_view to_string(CachePolicy policy) noexcept {
  switch (policy) {
    case CachePolicy::kLru: return "LRU";
    case CachePolicy::kLfu: return "LFU";
    case CachePolicy::kFifo: return "FIFO";
  }
  return "unknown";
}

}  // namespace spacecdn::cdn
