#include "topo/dispatcher.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/bitops.h"
#include "common/log.h"
#include "smartdimm/deflate_dsa.h"

namespace sd::topo {

namespace {

/** splitmix64 finalizer: full-avalanche mix of a flow id. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

ShardDispatcher::ShardDispatcher(Topology &topo)
    : topo_(topo), degraded_(topo.slotCount(), false),
      failure_streak_(topo.slotCount(), 0)
{
    for (unsigned s = 0; s < topo_.slotCount(); ++s)
        (topo_.isFarSlot(s) ? far_slots_ : local_slots_).push_back(s);
}

unsigned
ShardDispatcher::homeSlot(std::uint64_t flow) const
{
    return narrowIdx(mix64(flow) % topo_.slotCount(),
                     topo_.slotCount());
}

unsigned
ShardDispatcher::leastLoadedHealthyIn(
    const std::vector<unsigned> &slots) const
{
    unsigned best = kCpuPath;
    std::size_t best_occupancy = std::numeric_limits<std::size_t>::max();
    for (unsigned s : slots) {
        if (degraded_[s])
            continue;
        const std::size_t occupancy = topo_.slot(s).queue.occupancy();
        if (occupancy >= kSlotQueue.depth)
            continue; // genuinely full — a submit would be rejected
        if (occupancy < best_occupancy) {
            best_occupancy = occupancy;
            best = s;
        }
    }
    return best;
}

unsigned
ShardDispatcher::placeIn(std::uint64_t flow,
                         const std::vector<unsigned> &tier)
{
    const unsigned home = tier[narrowIdx(
        mix64(flow) % tier.size(), tier.size())];
    const std::size_t shed_at = std::max<std::size_t>(
        1, static_cast<std::size_t>(kShedOccupancy *
                                    static_cast<double>(
                                        kSlotQueue.depth)));
    if (!degraded_[home] && topo_.slot(home).queue.occupancy() < shed_at) {
        ++stats_.home_hits;
        return home;
    }
    const unsigned chosen = leastLoadedHealthyIn(tier);
    if (chosen == kCpuPath)
        return kCpuPath;
    if (chosen == home)
        ++stats_.home_hits; // saturated home still least-loaded
    else
        ++stats_.shed_to_sibling;
    return chosen;
}

unsigned
ShardDispatcher::place(std::uint64_t flow)
{
    const bool tiered = !far_slots_.empty() && !local_slots_.empty();
    const bool hot = tiered && heat_.touch(flow);
    auto pinned = pins_.find(flow);
    if (pinned != pins_.end()) {
        // Tiered, a pin holds while its tier matches the heat
        // (hot<->local); untiered, it always holds.
        if (!tiered || topo_.isFarSlot(pinned->second) != hot)
            return pinned->second;
        // The flow's heat changed since it was pinned: unpin and
        // re-place it on the matching tier (a migration).
        pins_.erase(pinned);
        if (hot)
            ++stats_.migrations_to_local;
        else
            ++stats_.migrations_to_cxl;
    }

    ++stats_.placements;
    unsigned chosen;
    if (tiered) {
        // Hot flows home on the local tier, cold flows on the far
        // tier; a saturated tier sheds into the other one before the
        // CPU path.
        chosen = placeIn(flow, hot ? local_slots_ : far_slots_);
        if (chosen == kCpuPath)
            chosen = placeIn(flow, hot ? far_slots_ : local_slots_);
    } else {
        // One tier holding every slot, so its home is homeSlot(flow).
        chosen = placeIn(flow,
                         local_slots_.empty() ? far_slots_ : local_slots_);
    }
    if (chosen == kCpuPath) {
        ++stats_.shed_to_cpu;
        return kCpuPath; // not pinned: retry the DIMMs next op
    }
    if (tiered) {
        if (topo_.isFarSlot(chosen))
            ++stats_.tier_cxl_placements;
        else
            ++stats_.tier_local_placements;
    }
    pins_.emplace(flow, chosen);
    return chosen;
}

void
ShardDispatcher::releaseFlow(std::uint64_t flow)
{
    pins_.erase(flow);
}

std::optional<unsigned>
ShardDispatcher::pinnedSlot(std::uint64_t flow) const
{
    auto pinned = pins_.find(flow);
    if (pinned == pins_.end())
        return std::nullopt;
    return pinned->second;
}

std::optional<std::uint64_t>
ShardDispatcher::submit(unsigned slot, const compcpy::Descriptor &desc,
                        std::uint16_t submitter,
                        compcpy::WorkQueue::CompletionCallback on_done)
{
    SD_ASSERT(slot < topo_.slotCount(), "submit to a nonexistent slot");
    return topo_.slot(slot).queue.submit(
        desc, submitter,
        [this, slot, on_done = std::move(on_done)](
            const compcpy::CompletionRecord &record) {
            noteCompletion(slot, record.status);
            if (on_done)
                on_done(record);
        });
}

void
ShardDispatcher::noteCompletion(unsigned slot,
                                compcpy::CompletionStatus status)
{
    if (status == compcpy::CompletionStatus::kSuccess) {
        failure_streak_[slot] = 0;
        degraded_[slot] = false; // device recovered — take load again
        return;
    }
    if (++failure_streak_[slot] >= kDegradeAfter &&
        !degraded_[slot]) {
        degraded_[slot] = true;
        ++stats_.auto_degraded;
    }
}

void
ShardDispatcher::setDegraded(unsigned slot, bool degraded)
{
    degraded_[slot] = degraded;
    if (!degraded)
        failure_streak_[slot] = 0;
}

ShardDispatcher::StripePlan
ShardDispatcher::planStripe(const compcpy::CompCpyParams &base,
                            std::uint64_t flow, int force_slot)
{
    static_assert(kStripeChunkBytes > 0 &&
                      kStripeChunkBytes % kPageSize == 0,
                  "stripe chunks must be whole pages");
    std::size_t chunk_bytes = kStripeChunkBytes;
    if (base.ulp == smartdimm::UlpKind::kDeflate)
        chunk_bytes =
            std::min(chunk_bytes, smartdimm::kDeflateMaxPayload);

    StripePlan plan;
    plan.total_bytes = base.size;
    plan.chunk_bytes = chunk_bytes;
    const unsigned start =
        force_slot >= 0 ? static_cast<unsigned>(force_slot)
                        : homeSlot(flow);
    std::size_t offset = 0;
    for (unsigned i = 0; offset < base.size; ++i) {
        const std::size_t size =
            std::min(chunk_bytes, base.size - offset);
        StripeChunk chunk;
        chunk.slot = force_slot >= 0
                         ? static_cast<unsigned>(force_slot)
                         : (start + i) % topo_.slotCount();
        chunk.params = base;
        chunk.params.size = size;
        // Chunk identity is slot-independent: message_id base+i and
        // an IV uniquified by the chunk index, so striped output is
        // bit-exact with the same chunks run on one DIMM.
        chunk.params.message_id = base.message_id + i;
        chunk.params.iv[8] ^= static_cast<std::uint8_t>(i >> 24);
        chunk.params.iv[9] ^= static_cast<std::uint8_t>(i >> 16);
        chunk.params.iv[10] ^= static_cast<std::uint8_t>(i >> 8);
        chunk.params.iv[11] ^= static_cast<std::uint8_t>(i);
        compcpy::Driver &driver = topo_.slot(chunk.slot).driver;
        chunk.params.sbuf = driver.alloc(size);
        chunk.params.dbuf = driver.alloc(
            compcpy::CompCpyEngine::destPages(chunk.params) * kPageSize);
        plan.chunks.push_back(chunk);
        offset += size;
    }
    ++stats_.stripes;
    stats_.stripe_chunks += plan.chunks.size();
    return plan;
}

void
ShardDispatcher::submitStripe(
    const StripePlan &plan,
    std::function<void(compcpy::CompletionStatus)> done,
    std::uint16_t submitter)
{
    // Group the chunks by slot, preserving chunk order within a slot.
    std::vector<std::vector<compcpy::CompCpyParams>> per_slot(
        topo_.slotCount());
    for (const StripeChunk &chunk : plan.chunks)
        per_slot[chunk.slot].push_back(chunk.params);

    struct FanIn
    {
        unsigned outstanding = 0;
        compcpy::CompletionStatus worst =
            compcpy::CompletionStatus::kSuccess;
        std::function<void(compcpy::CompletionStatus)> done;
    };
    auto fan_in = std::make_shared<FanIn>();
    fan_in->done = std::move(done);
    for (const auto &ops : per_slot)
        if (!ops.empty())
            ++fan_in->outstanding;
    SD_ASSERT(fan_in->outstanding > 0, "empty stripe plan submitted");

    for (unsigned s = 0; s < per_slot.size(); ++s) {
        if (per_slot[s].empty())
            continue;
        topo_.slot(s).queue.submitForce(
            compcpy::Descriptor::batch(std::move(per_slot[s])),
            submitter,
            [this, s, fan_in](const compcpy::CompletionRecord &record) {
                noteCompletion(s, record.status);
                // CompletionStatus orders by severity, so the worst
                // per-slot status is the stripe's status.
                fan_in->worst = std::max(fan_in->worst, record.status);
                if (--fan_in->outstanding == 0 && fan_in->done)
                    fan_in->done(fan_in->worst);
            });
    }
}

std::vector<std::uint8_t>
ShardDispatcher::readStripeResult(const StripePlan &plan)
{
    std::vector<std::uint8_t> out;
    for (const StripeChunk &chunk : plan.chunks) {
        compcpy::CompCpyEngine &engine = topo_.slot(chunk.slot).engine;
        const std::size_t bytes =
            compcpy::CompCpyEngine::destPages(chunk.params) * kPageSize;
        engine.useSync(chunk.params.dbuf, bytes);
        std::vector<std::uint8_t> part =
            engine.readResult(chunk.params.dbuf, bytes);
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

void
ShardDispatcher::releaseStripe(const StripePlan &plan)
{
    for (const StripeChunk &chunk : plan.chunks) {
        compcpy::Driver &driver = topo_.slot(chunk.slot).driver;
        driver.release(chunk.params.sbuf, chunk.params.size);
        driver.release(
            chunk.params.dbuf,
            compcpy::CompCpyEngine::destPages(chunk.params) * kPageSize);
    }
}

void
ShardDispatcher::registerStats(trace::StatsRegistry &registry) const
{
    registry.add("dispatch", [this](trace::StatsBlock &block) {
        block.scalar("placements", static_cast<double>(stats_.placements));
        block.scalar("home_hits", static_cast<double>(stats_.home_hits));
        block.scalar("shed_to_sibling",
                     static_cast<double>(stats_.shed_to_sibling));
        block.scalar("shed_to_cpu",
                     static_cast<double>(stats_.shed_to_cpu));
        block.scalar("stripes", static_cast<double>(stats_.stripes));
        block.scalar("stripe_chunks",
                     static_cast<double>(stats_.stripe_chunks));
        block.scalar("auto_degraded",
                     static_cast<double>(stats_.auto_degraded));
        block.scalar("tier_local_placements",
                     static_cast<double>(stats_.tier_local_placements));
        block.scalar("tier_cxl_placements",
                     static_cast<double>(stats_.tier_cxl_placements));
        block.scalar("migrations_to_local",
                     static_cast<double>(stats_.migrations_to_local));
        block.scalar("migrations_to_cxl",
                     static_cast<double>(stats_.migrations_to_cxl));
    });
    const bool tagged = topo_.slotCount() > 1;
    for (unsigned s = 0; s < topo_.slotCount(); ++s) {
        const Topology::Slot &slot = topo_.slot(s);
        const std::string name =
            tagged ? "queue.ch" + std::to_string(slot.channel) + ".d" +
                         std::to_string(slot.dimm)
                   : std::string("queue");
        const compcpy::WorkQueue &queue = slot.queue;
        registry.add(name, [&queue](trace::StatsBlock &block) {
            queue.reportStats(block);
        });
    }
}

} // namespace sd::topo
