#include "smartdimm/cuckoo_table.h"

#include <algorithm>

#include "common/log.h"

namespace sd::smartdimm {

CuckooTable::CuckooTable(std::size_t buckets, std::size_t cam_entries,
                         unsigned max_displacements)
    : buckets_(buckets), cam_(cam_entries),
      max_displacements_(max_displacements)
{
    SD_ASSERT(buckets >= 3, "cuckoo table needs at least 3 buckets");
}

std::size_t
CuckooTable::hash(std::uint64_t page, unsigned fn) const
{
    // Three independent mixers (distinct odd multipliers + rotations),
    // mirroring three hardware hash units evaluated in parallel.
    static constexpr std::uint64_t kMul[3] = {
        0x9e3779b97f4a7c15ULL,
        0xc2b2ae3d27d4eb4fULL,
        0x165667b19e3779f9ULL,
    };
    std::uint64_t x = page * kMul[fn];
    x ^= x >> 29;
    x *= kMul[(fn + 1) % 3];
    x ^= x >> 32;
    return static_cast<std::size_t>(x % buckets_.size());
}

std::optional<Translation>
CuckooTable::lookup(std::uint64_t page)
{
    ++stats_.lookups;
    auto found = find(page);
    if (found)
        ++stats_.hits;
    return found;
}

std::optional<Translation>
CuckooTable::find(std::uint64_t page) const
{
    for (unsigned fn = 0; fn < 3; ++fn) {
        const Bucket &bucket = buckets_[hash(page, fn)];
        if (bucket.valid && bucket.page == page)
            return bucket.translation;
    }
    for (const Bucket &bucket : cam_) {
        if (bucket.valid && bucket.page == page)
            return bucket.translation;
    }
    return std::nullopt;
}

bool
CuckooTable::tryDirectInsert(std::uint64_t page, const Translation &t)
{
    for (unsigned fn = 0; fn < 3; ++fn) {
        Bucket &bucket = buckets_[hash(page, fn)];
        if (!bucket.valid) {
            bucket.page = page;
            bucket.translation = t;
            bucket.valid = true;
            return true;
        }
    }
    return false;
}

bool
CuckooTable::insert(std::uint64_t page, const Translation &t)
{
    ++stats_.inserts;

    // Update in place when already mapped (cuckoo array or CAM).
    for (unsigned fn = 0; fn < 3; ++fn) {
        Bucket &bucket = buckets_[hash(page, fn)];
        if (bucket.valid && bucket.page == page) {
            bucket.translation = t;
            ++stats_.first_try_inserts;
            return true;
        }
    }
    for (Bucket &bucket : cam_) {
        if (bucket.valid && bucket.page == page) {
            bucket.translation = t;
            ++stats_.first_try_inserts;
            return true;
        }
    }

    if (fault::fires(fault_plan_, fault::Site::kCuckooInsertFail,
                     fault_scope_)) {
        ++stats_.failures;
        return false;
    }
    const bool forced_conflict = fault::fires(
        fault_plan_, fault::Site::kCuckooConflict, fault_scope_);

    if (!forced_conflict && tryDirectInsert(page, t)) {
        ++stats_.first_try_inserts;
        ++live_;
        return true;
    }

    // Displacement path: stage the new mapping in the CAM so the
    // critical path never blocks, then run the kick chain.
    auto cam_slot = std::find_if(cam_.begin(), cam_.end(),
                                 [](const Bucket &b) { return !b.valid; });
    if (cam_slot != cam_.end()) {
        cam_slot->page = page;
        cam_slot->translation = t;
        cam_slot->valid = true;
        ++stats_.cam_inserts;
    }

    std::uint64_t cur_page = page;
    Translation cur_t = t;
    unsigned kick_fn = 0;
    for (unsigned kick = 0; kick < max_displacements_; ++kick) {
        // Kick the resident of one of the current key's buckets, then
        // try every alternative bucket of the evicted key before
        // kicking again (standard d-ary cuckoo walk).
        Bucket &bucket = buckets_[hash(cur_page, kick_fn)];
        if (!bucket.valid) {
            // Only reachable via a forced conflict (the genuine path
            // enters the chain with all three buckets occupied): the
            // "displaced" key lands straight in the free bucket.
            bucket.page = cur_page;
            bucket.translation = cur_t;
            bucket.valid = true;
            ++live_;
            ++stats_.displaced_inserts;
            if (cam_slot != cam_.end() && cam_slot->valid &&
                cam_slot->page == page)
                cam_slot->valid = false;
            return true;
        }
        std::swap(bucket.page, cur_page);
        std::swap(bucket.translation, cur_t);
        ++stats_.displacements;

        if (tryDirectInsert(cur_page, cur_t)) {
            ++live_;
            ++stats_.displaced_inserts;
            // Drain the staged CAM copy of the original key.
            if (cam_slot != cam_.end() && cam_slot->valid &&
                cam_slot->page == page)
                cam_slot->valid = false;
            return true;
        }
        kick_fn = (kick_fn + 1) % 3;
    }

    ++stats_.failures;
    // Leave the mapping in the CAM if it landed there; otherwise the
    // insert truly failed (essentially unreachable below 50% load).
    if (cam_slot != cam_.end()) {
        ++live_;
        return true;
    }
    return false;
}

bool
CuckooTable::erase(std::uint64_t page)
{
    for (unsigned fn = 0; fn < 3; ++fn) {
        Bucket &bucket = buckets_[hash(page, fn)];
        if (bucket.valid && bucket.page == page) {
            bucket.valid = false;
            --live_;
            return true;
        }
    }
    for (Bucket &bucket : cam_) {
        if (bucket.valid && bucket.page == page) {
            bucket.valid = false;
            --live_;
            return true;
        }
    }
    return false;
}

double
CuckooTable::occupancy() const
{
    std::size_t used = 0;
    for (const Bucket &bucket : buckets_)
        used += bucket.valid;
    return static_cast<double>(used) /
           static_cast<double>(buckets_.size());
}

} // namespace sd::smartdimm
