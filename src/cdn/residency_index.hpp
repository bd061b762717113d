// Residency index: which caches of a numbered set hold each object.
//
// SpaceCDN's tier (ii) asks "which satellite near me holds object x?".
// Probing every cache within the hop budget answers it at one hash lookup
// per satellite, although most objects sit on a handful of satellites or on
// none.  The index keeps, per ContentId, the exact number of caches holding
// it and, while that number is small, the holders themselves; the caches
// keep it exact by reporting every object that enters or leaves their
// storage (Cache::track_residency).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "cdn/content.hpp"
#include "util/error.hpp"

namespace spacecdn::cdn {

/// Copy count and (for rare objects) holder list per object over caches
/// numbered 0..n-1.
///
/// Invariant, after every cache operation: copies(id) equals the number of
/// caches whose contains(id) is true; and holders(id), when it returns a
/// list, lists exactly those caches (in no particular order).
///
/// The list is kept from the moment an object enters its first cache until
/// its count first exceeds kExactHolders.  From then until the count is
/// back to 0, holders() returns nullopt and a caller asks the caches: an
/// object that fell back below kExactHolders could only get its list back
/// by asking every cache in the set, one `contains` each.  (On cold-ground
/// that is 118 lists per run at 9,996 probes each, as many probes as all
/// its unlisted lookups make; keeping those objects unlisted moves 108 of
/// 34,788 lookups back to probing.)
///
/// Ids from kTrackedIds up are not indexed at all (tracks() is false).
/// Storage is allocated in pages of kPageIds entries as ids first appear, so
/// memory follows the id range in use and an insert never moves entries.
class ResidencyIndex {
 public:
  /// K, the most copies for which the holders are listed.  On gen2-10k with
  /// cold 500 MB caches (the cold-ground perf workload, seed 1), the 34,788
  /// tier-(ii) lookups met these copy counts: 0 for 12,350; 1 for 5,665; 2
  /// for 2,987; 3-4 for 3,375; 5-8 for 3,251; 9-16 for 2,927; 17-32 for
  /// 2,448; 33-64 for 1,469; more than 64 for 316.  K = 8 lists the holders
  /// for two thirds of the lookups of an object with any copy, at 16 bytes
  /// per id; the objects above it are the popular ones, and on the
  /// prewarmed workloads every object is (33 copies and more), so K only
  /// trades memory against how many of cold-ground's lookups still probe.
  static constexpr std::uint32_t kExactHolders = 8;
  /// Ids at or above this are untracked.  Catalog ids are dense from 0
  /// (ContentCatalog); the largest catalog preset has 20,000 objects.
  static constexpr ContentId kTrackedIds = ContentId{1} << 20;
  /// The most caches one index covers (a count word keeps 15 bits).
  static constexpr std::size_t kMaxCaches = 0x7fff;

  /// Covers `caches` caches.  It does not attach itself to them
  /// (Cache::track_residency does).
  explicit ResidencyIndex(std::size_t caches);
  // The attached caches hold its address.
  ResidencyIndex(const ResidencyIndex&) = delete;
  ResidencyIndex& operator=(const ResidencyIndex&) = delete;

  [[nodiscard]] static constexpr bool tracks(ContentId id) noexcept {
    return id < kTrackedIds;
  }

  /// Number of caches holding `id`.  Requires tracks(id).
  [[nodiscard]] std::uint32_t copies(ContentId id) const noexcept {
    return count_word(id) & kCopiesMask;
  }

  /// The caches holding `id` while the index lists them (see above), else
  /// nullopt.  Requires tracks(id).
  [[nodiscard]] std::optional<std::span<const std::uint16_t>> holders(
      ContentId id) const noexcept {
    const std::uint16_t word = count_word(id);
    if ((word & kUnlisted) != 0) return std::nullopt;
    if (word == 0) return std::span<const std::uint16_t>{};
    return std::span<const std::uint16_t>{
        holder_pages_[id >> kPageBits][id & (kPageIds - 1)].data(), word};
  }

  /// Cache `holder` now stores `id` (it did not before).
  void add(ContentId id, std::uint32_t holder) {
    if (!tracks(id)) return;
    std::uint16_t& word = page(count_pages_, id)[id & (kPageIds - 1)];
    SPACECDN_EXPECT((word & kCopiesMask) < caches_,
                    "residency index: more copies than caches");
    if (word < kExactHolders) {
      page(holder_pages_, id)[id & (kPageIds - 1)][word] =
          static_cast<std::uint16_t>(holder);
    } else if (word == kExactHolders) {
      word |= kUnlisted;
    }
    ++word;
  }

  /// Cache `holder` no longer stores `id` (it did before).
  void remove(ContentId id, std::uint32_t holder);

 private:
  // Per id, a count word (the copy count, plus kUnlisted while the holders
  // are not listed) and, apart, its holder slots: the count words of a
  // whole catalog fit a core's cache, and a prewarm that takes an object
  // past kExactHolders copies touches only them from then on.
  static constexpr std::uint16_t kUnlisted = 0x8000;
  static constexpr std::uint16_t kCopiesMask = 0x7fff;
  using Holders = std::array<std::uint16_t, kExactHolders>;
  static constexpr unsigned kPageBits = 12;
  static constexpr ContentId kPageIds = ContentId{1} << kPageBits;
  static constexpr std::size_t kPages = kTrackedIds / kPageIds;

  [[nodiscard]] std::uint16_t count_word(ContentId id) const noexcept {
    const std::uint16_t* words = count_pages_[id >> kPageBits].get();
    return words == nullptr ? 0 : words[id & (kPageIds - 1)];
  }
  template <typename T>
  [[nodiscard]] static T* page(std::array<std::unique_ptr<T[]>, kPages>& pages,
                               ContentId id) {
    std::unique_ptr<T[]>& p = pages[id >> kPageBits];
    if (p == nullptr) p = std::make_unique<T[]>(kPageIds);  // zeroed
    return p.get();
  }

  std::size_t caches_;
  std::array<std::unique_ptr<std::uint16_t[]>, kPages> count_pages_;
  std::array<std::unique_ptr<Holders[]>, kPages> holder_pages_;
};

}  // namespace spacecdn::cdn
