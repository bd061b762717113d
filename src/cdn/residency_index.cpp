#include "cdn/residency_index.hpp"

#include <algorithm>

namespace spacecdn::cdn {

ResidencyIndex::ResidencyIndex(std::size_t caches) : caches_(caches) {
  SPACECDN_EXPECT(caches_ <= kMaxCaches, "too many caches for a residency index");
}

void ResidencyIndex::remove(ContentId id, std::uint32_t holder) {
  if (!tracks(id)) return;
  std::uint16_t& word = page(count_pages_, id)[id & (kPageIds - 1)];
  SPACECDN_EXPECT((word & kCopiesMask) > 0,
                  "residency index: removing an object no cache holds");
  --word;
  // An unlisted object stays unlisted until its count is back to 0; add()
  // then starts a new list.
  if ((word & kUnlisted) != 0) {
    if (word == kUnlisted) word = 0;
    return;
  }
  // Swap the leaver out of the list.
  Holders& list = page(holder_pages_, id)[id & (kPageIds - 1)];
  const auto last = list.begin() + word + 1;
  const auto it = std::find(list.begin(), last, static_cast<std::uint16_t>(holder));
  SPACECDN_EXPECT(it != last, "residency index: holder list out of step");
  *it = *(last - 1);
}

}  // namespace spacecdn::cdn
