/**
 * @file
 * 3-ary cuckoo hash Translation Table (Sec. IV-C). Maps physical page
 * numbers to Scratchpad or Config Memory offsets. Sized 3x the
 * required entries so occupancy stays below ~33%, where inserts
 * almost always succeed on the first probe or with one displacement.
 * An 8-entry CAM absorbs inserts whose cuckoo placement needs
 * displacement work, keeping insertion off the critical path.
 */

#ifndef SD_SMARTDIMM_CUCKOO_TABLE_H
#define SD_SMARTDIMM_CUCKOO_TABLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "fault/fault.h"

namespace sd::smartdimm {

/** What a translation entry points at. */
enum class MappingKind : std::uint8_t
{
    kScratchpad,   ///< destination page: DSA results staged here
    kConfigMemory, ///< source page: context for the DSA
};

/** One page translation. */
struct Translation
{
    MappingKind kind = MappingKind::kScratchpad;
    std::uint32_t offset = 0; ///< page slot within the target memory
    /** For source pages: the matching destination page number(s)
     *  (non-size-preserving ULPs may fan out, Sec. IV-C). */
    std::uint64_t dest_page = 0;

    bool operator==(const Translation &) const = default;
};

/** Lookup/insert activity for power and behaviour studies. */
struct CuckooStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t first_try_inserts = 0;
    std::uint64_t displaced_inserts = 0; ///< needed >= 1 displacement
    std::uint64_t displacements = 0;     ///< total relocations
    std::uint64_t cam_inserts = 0;       ///< absorbed by the CAM
    std::uint64_t failures = 0;          ///< displacement budget blown
};

/**
 * The Translation Table. Keys are physical page numbers; the table is
 * checked on every CAS, so lookups probe at most 3 buckets plus the
 * CAM, all of which read in parallel in hardware.
 */
class CuckooTable
{
  public:
    /**
     * @param buckets total bucket count (paper: 12288)
     * @param cam_entries overflow CAM size (paper: 8)
     * @param max_displacements kick budget before declaring failure
     */
    CuckooTable(std::size_t buckets, std::size_t cam_entries,
                unsigned max_displacements = 32);

    /** Insert or update a mapping. @return false on table failure. */
    bool insert(std::uint64_t page, const Translation &translation);

    /**
     * Attach a fault plan (not owned; may be null). Sites consulted in
     * insert(): kCuckooConflict (direct placement is treated as
     * conflicted, forcing the CAM-staged displacement path) and
     * kCuckooInsertFail (the insert fails outright, which the caller
     * surfaces as a registration rejection).
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /** Scope for matching device-targeted (`smartdimm[ch][dimm]`) rules. */
    void setFaultScope(const fault::FaultScope &scope) { fault_scope_ = scope; }

    /** @return the mapping for @p page when present; a CAS lookup,
     *  counted in stats() (the power model charges each one). */
    std::optional<Translation> lookup(std::uint64_t page);

    /** @return the mapping for @p page when present, uncounted: the
     *  device's own bookkeeping reads, which no CAS issues. */
    std::optional<Translation> find(std::uint64_t page) const;

    /** Remove a mapping. @return true when it existed. */
    bool erase(std::uint64_t page);

    /** Occupied fraction of the cuckoo array (excludes CAM). */
    double occupancy() const;

    /** Number of live mappings (cuckoo + CAM). */
    std::size_t size() const { return live_; }

    const CuckooStats &stats() const { return stats_; }

  private:
    struct Bucket
    {
        std::uint64_t page = 0;
        Translation translation;
        bool valid = false;
    };

    std::size_t hash(std::uint64_t page, unsigned fn) const;
    bool tryDirectInsert(std::uint64_t page, const Translation &t);

    std::vector<Bucket> buckets_;
    std::vector<Bucket> cam_;
    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
    unsigned max_displacements_;
    std::size_t live_ = 0;
    CuckooStats stats_;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_CUCKOO_TABLE_H
