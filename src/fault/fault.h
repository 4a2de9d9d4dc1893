/**
 * @file
 * Deterministic fault-injection registry (the chaos layer of the
 * recovery-path test harness). A FaultPlan is a list of rules, each
 * naming an injection *site* — a point in a component where a rare
 * hardware/software failure can be forced — plus a trigger window
 * (skip/count) and an optional per-trigger probability drawn from the
 * shared sd::Rng.
 *
 * Determinism contract: a plan's decisions are a pure function of
 * (seed, rule list, trigger sequence). Components call shouldInject()
 * from event-queue callbacks only, and the event queue orders
 * callbacks deterministically, so a run with the same seed and the
 * same workload replays bit-identically — including every injected
 * fault. The RNG is consumed *only* for rules with probability < 1 on
 * armed, non-exhausted triggers, so adding an inert rule never
 * perturbs another rule's stream.
 *
 * Components hold a `FaultPlan *` that defaults to nullptr; the null
 * check is the only cost on the fault-free fast path, and a run
 * without a plan is byte-identical to a build without this layer.
 */

#ifndef SD_FAULT_FAULT_H
#define SD_FAULT_FAULT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "trace/trace.h"

namespace sd::fault {

/** Injection sites threaded through the recovery-capable layers. */
enum class Site : std::uint8_t
{
    kAlertStorm = 0,    ///< mem: spurious ALERT_N on a good rdCAS (S13 storm)
    kWriteDrainDelay,   ///< mem: postpone entry into write-drain mode
    kFreePagesLie,      ///< smartdimm: freePages MMIO read reports zero
    kScratchpadExhaust, ///< smartdimm: registration page allocate fails
    kConfigMemExhaust,  ///< smartdimm: config-memory slot allocate fails
    kCuckooConflict,    ///< smartdimm: direct insert forced to displace
    kCuckooInsertFail,  ///< smartdimm: insert reports table failure
    kNetLoss,           ///< net: scripted segment drop episode
    kNetReorder,        ///< net: scripted segment reorder
    kOrderedFence,      ///< compcpy: ordered-mode fence elided for a window
    kQueueFull,         ///< compcpy: work-queue submit rejected as full
    kLostCompletion,    ///< compcpy: completion record drop (poll recovery)
    kCxlLinkStall,      ///< mem: CXL link transfer stalled (retry penalty)
    kCxlTimeout,        ///< compcpy: withheld CXL response never arrives
    kCount,
};

/** Stable short name (used in specs, stats dumps and test output). */
const char *siteName(Site site);

/** Inverse of siteName(). @return nullopt for unknown names. */
std::optional<Site> siteFromName(const std::string &name);

/**
 * Where in the topology a trigger fired. Components owned by a
 * specific device pass their coordinates; shared/host-side components
 * pass the default (unplaced) scope. -1 means "not applicable".
 */
struct FaultScope
{
    int channel = -1;
    int dimm = -1;
};

/**
 * One injection rule. A site may carry several rules; the first armed,
 * non-exhausted rule *matching the trigger's scope* decides each
 * trigger. A rule's channel/dimm of -1 is a wildcard, so unscoped
 * rules behave exactly as before the topology existed; a scoped rule
 * (e.g. channel=1, dimm=0) only fires for triggers reported from that
 * device, which is how the chaos soak exercises per-device faults.
 */
struct FaultRule
{
    Site site = Site::kCount;
    std::uint64_t skip = 0;   ///< ignore the first N triggers at the site
    std::uint64_t count = ~0ULL; ///< fire at most this many times
    double probability = 1.0; ///< per-trigger chance once armed
    int channel = -1;         ///< restrict to one channel (-1 = any)
    int dimm = -1;            ///< restrict to one DIMM slot (-1 = any)

    /** @return true when this rule applies to a trigger at @p scope. */
    bool
    matches(const FaultScope &scope) const
    {
        return (channel < 0 || channel == scope.channel) &&
               (dimm < 0 || dimm == scope.dimm);
    }
};

/**
 * A seeded, deterministic fault plan. Thread through components with
 * setFaultPlan(); a default-constructed plan (or nullptr) injects
 * nothing.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}

    /** Append a rule. Rules at the same site evaluate in add order. */
    void add(const FaultRule &rule);

    /** Convenience: add {site, skip, count, probability}. */
    void
    add(Site site, std::uint64_t skip = 0, std::uint64_t count = ~0ULL,
        double probability = 1.0)
    {
        add(FaultRule{site, skip, count, probability});
    }

    /** @return true when at least one rule targets @p site. */
    bool armed(Site site) const;

    /**
     * Called by a component at an injection site. Counts the trigger
     * and decides — deterministically — whether to inject the fault.
     * Rules whose scope does not match are skipped without touching
     * the RNG, so scoping one device's rule never perturbs another
     * rule's random stream (the determinism contract extends to
     * topology scopes).
     */
    bool shouldInject(Site site, const FaultScope &scope = {});

    /** Triggers seen at @p site (fault-free visits included). */
    std::uint64_t triggers(Site site) const;

    /** Faults actually injected at @p site. */
    std::uint64_t injected(Site site) const;

    /** Sum of injected() over all sites. */
    std::uint64_t totalInjected() const;

    /**
     * Parse a plan spec: comma-separated rules of the form
     *   [scope/]site[:skip=N][:count=M][:p=F]
     * e.g. "alert_storm:count=10:p=0.5,free_pages_lie:count=2".
     * The optional scope prefix pins a rule to one device in the
     * topology: `mem[1]/alert_storm` targets channel 1's controller,
     * `smartdimm[0][1]/free_pages_lie` targets channel 0, DIMM 1, and
     * `smartdimm[2]/cuckoo_conflict` targets every DIMM on channel 2.
     * This is the format of the SD_FAULT_PLAN env knob the test
     * harnesses accept. @return nullopt on malformed input.
     */
    static std::optional<FaultPlan> fromSpec(const std::string &spec,
                                             std::uint64_t seed);

    /** Contribute per-site trigger/injected counters to a dump. */
    void reportStats(trace::StatsBlock &block) const;

  private:
    struct RuleState
    {
        FaultRule rule;
        std::uint64_t fired = 0;
        std::uint64_t seen = 0; ///< triggers matching this rule's scope
    };

    struct SiteState
    {
        std::vector<RuleState> rules;
        std::uint64_t triggers = 0;
        std::uint64_t injected = 0;
    };

    Rng rng_;
    SiteState sites_[static_cast<std::size_t>(Site::kCount)];
};

/**
 * The injection check every site makes: true when @p plan (may be
 * null) injects at @p site. An unarmed site returns before
 * shouldInject(), so it counts no trigger.
 */
inline bool
fires(FaultPlan *plan, Site site, const FaultScope &scope = {})
{
    return plan && plan->armed(site) && plan->shouldInject(site, scope);
}

} // namespace sd::fault

#endif // SD_FAULT_FAULT_H
