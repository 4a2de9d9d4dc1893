/**
 * @file
 * Hot/cold access classifier for the two-tier (local DDR4 vs
 * CXL.mem) placement policy. Keys are opaque 64-bit ids — the
 * dispatcher classifies flows, a page-granular policy would pass page
 * numbers — and heat is a touch count with deterministic epoch decay:
 * every kEpochTouches total touches, all counts halve. No wall
 * clock is involved, so a run replays bit-identically (the same
 * determinism contract as the fault layer).
 */

#ifndef SD_TOPO_HEAT_H
#define SD_TOPO_HEAT_H

#include <cstdint>
#include <iterator>
#include <unordered_map>

namespace sd::topo {

/** Decayed touch count at which a key counts as hot. */
inline constexpr std::uint64_t kHotThreshold = 4;

/** Total touches between decay epochs (all counts halve). */
inline constexpr std::uint64_t kEpochTouches = 256;

/** Touch-count classifier with epoch decay (single-owner). */
class HeatClassifier
{
  public:
    /** Record one touch of @p key. @return true when it is now hot. */
    bool
    touch(std::uint64_t key)
    {
        if (++since_epoch_ >= kEpochTouches) {
            since_epoch_ = 0;
            for (auto it = counts_.begin(); it != counts_.end();) {
                it->second /= 2;
                it = it->second == 0 ? counts_.erase(it)
                                     : std::next(it);
            }
        }
        return ++counts_[key] >= kHotThreshold;
    }

    /** @return true when @p key is hot, without recording a touch. */
    bool
    hot(std::uint64_t key) const
    {
        const auto it = counts_.find(key);
        return it != counts_.end() &&
               it->second >= kHotThreshold;
    }

    /** Keys with a nonzero decayed count. */
    std::size_t tracked() const { return counts_.size(); }

  private:
    std::uint64_t since_epoch_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> counts_;
};

} // namespace sd::topo

#endif // SD_TOPO_HEAT_H
