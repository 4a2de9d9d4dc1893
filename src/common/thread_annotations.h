/**
 * @file
 * Clang thread-safety-analysis annotations (and the annotated mutex
 * primitives that carry them) for SmartDIMM's concurrency contracts.
 *
 * The macros expand to Clang's `capability` attributes when compiling
 * with a Clang that understands them (the CI `thread-safety` job
 * builds all of src/ with `-Wthread-safety -Werror`), and to nothing
 * under GCC or other compilers, so the annotations are pure
 * documentation locally and machine-checked in CI.
 *
 * Two kinds of contract appear in this codebase:
 *
 *  - Genuinely shared state (the process-wide Tracer,
 *    trace::StatsRegistry, the kernel dispatch override) is protected
 *    by an annotated sd::Mutex with SD_GUARDED_BY members, or by
 *    atomics.
 *
 *  - Per-simulation state (EventQueue, Scratchpad, BankTable, the
 *    cache/memory models) is **single-owner**: one thread constructs
 *    and drives a whole simulated system; nothing in it may be touched
 *    from another thread. That contract is spot-checked at runtime by
 *    SingleOwnerChecker (cheap relaxed-atomic thread-id compare) and
 *    caught wholesale by the TSan stress job when violated.
 */

#ifndef SD_COMMON_THREAD_ANNOTATIONS_H
#define SD_COMMON_THREAD_ANNOTATIONS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#if defined(__clang__) && defined(__has_attribute)
#define SD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SD_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability ("mutex", "role", ...). */
#define SD_CAPABILITY(name) SD_THREAD_ANNOTATION(capability(name))

/** Marks an RAII type that acquires a capability for its lifetime. */
#define SD_SCOPED_CAPABILITY SD_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define SD_GUARDED_BY(x) SD_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is protected by @p x. */
#define SD_PT_GUARDED_BY(x) SD_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function that must be called with the capability held. */
#define SD_REQUIRES(...) \
    SD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that must be called with the capability NOT held. */
#define SD_EXCLUDES(...) SD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function that acquires the capability and returns holding it. */
#define SD_ACQUIRE(...) \
    SD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases a held capability. */
#define SD_RELEASE(...) \
    SD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that acquires the capability when it returns true. */
#define SD_TRY_ACQUIRE(...) \
    SD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function deliberately exempt from analysis (init-order, tests). */
#define SD_NO_THREAD_SAFETY_ANALYSIS \
    SD_THREAD_ANNOTATION(no_thread_safety_analysis)

/** @return value usable as the capability itself (lock accessors). */
#define SD_RETURN_CAPABILITY(x) SD_THREAD_ANNOTATION(lock_returned(x))

namespace sd {

/**
 * std::mutex carrying the `capability` attribute so SD_GUARDED_BY
 * members can name it. libstdc++'s std::lock_guard is not annotated;
 * use MutexLock below (or lock()/unlock() pairs) so Clang can track
 * the acquire/release.
 */
class SD_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() SD_ACQUIRE() { mu_.lock(); }
    void unlock() SD_RELEASE() { mu_.unlock(); }
    bool try_lock() SD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    std::mutex mu_;
};

/** Annotated scope guard: holds the Mutex for the enclosing scope. */
class SD_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) SD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() SD_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Runtime spot-check of the single-owner contract: the first thread
 * that touches the component claims it; any later access from a
 * different thread is a contract violation and panics immediately
 * (instead of corrupting state silently or relying on TSan to be
 * watching). release() hands the component to the next toucher, for
 * the legitimate construct-on-main / drive-on-worker pattern.
 *
 * Cost per check is one relaxed atomic load and compare, so it is
 * cheap enough for simulator hot paths (EventQueue::schedule).
 */
class SingleOwnerChecker
{
  public:
    /** Assert the calling thread owns (or now claims) the component. */
    void
    check() const
    {
        const std::uint64_t self = selfId();
        std::uint64_t owner = owner_.load(std::memory_order_relaxed);
        if (owner == self)
            return;
        if (owner == 0 &&
            owner_.compare_exchange_strong(owner, self,
                                           std::memory_order_relaxed))
            return;
        violation(owner, self);
    }

    /** Release ownership so another thread may claim the component. */
    void
    release()
    {
        owner_.store(0, std::memory_order_relaxed);
    }

  private:
    static std::uint64_t
    selfId()
    {
        // Hash the opaque id into a nonzero token (0 means unowned).
        const std::uint64_t h = static_cast<std::uint64_t>(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
        return h | 1;
    }

    [[noreturn]] static void violation(std::uint64_t owner,
                                       std::uint64_t self);

    mutable std::atomic<std::uint64_t> owner_{0};
};

} // namespace sd

#endif // SD_COMMON_THREAD_ANNOTATIONS_H
