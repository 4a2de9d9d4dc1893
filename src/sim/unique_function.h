/**
 * @file
 * Move-only callable wrapper for simulator callbacks. std::function's
 * copyability requirement forced two costs onto the hot path: capture
 * lists had to smuggle move-only state (e.g. a write burst's byte
 * vector) behind a shared_ptr, and its 16-byte small-object buffer
 * spilled every CAS-completion lambda (a DdrCommand plus completion
 * callback, ~128 bytes) onto the heap. A completion callback also
 * rides through several layers (CompCpy -> MemorySystem -> controller
 * -> event queue), and with std::function each hop *copied* it —
 * manager calls, refcount bumps, allocations. UniqueFunctionT fixes
 * all of it: callables up to kInlineBytes live inside the object, and
 * only moves are required, so captures own their state directly and
 * hops are pointer-steals or inline move-constructions.
 *
 * Semantics: nullable, move-only. Invoking an empty function is
 * undefined (hot paths guard with operator bool where a null callback
 * is legal). Inline storage requires the callable to be nothrow move
 * constructible; anything else — or anything larger than kInlineBytes
 * — transparently falls back to the heap.
 */

#ifndef SD_SIM_UNIQUE_FUNCTION_H
#define SD_SIM_UNIQUE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sd {

template <typename Sig> class UniqueFunctionT;

/** Move-only callable with a large inline buffer. */
template <typename R, typename... Args>
class UniqueFunctionT<R(Args...)>
{
  public:
    /** Inline capacity. The per-event hot-path lambdas capture a few
     *  pointers and ids (a CAS data phase is {controller, slot}); a
     *  lambda that captures another UniqueFunctionT is larger than
     *  this and always goes to the heap. */
    static constexpr std::size_t kInlineBytes = 128;

    UniqueFunctionT() = default;
    UniqueFunctionT(std::nullptr_t) {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, UniqueFunctionT> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    UniqueFunctionT(F &&f)
    {
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::kOps;
        } else {
            heap_ = new Fn(std::forward<F>(f));
            ops_ = &HeapOps<Fn>::kOps;
        }
    }

    UniqueFunctionT(UniqueFunctionT &&other) noexcept
    {
        moveFrom(other);
    }

    UniqueFunctionT &
    operator=(UniqueFunctionT &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    UniqueFunctionT &
    operator=(std::nullptr_t)
    {
        destroy();
        return *this;
    }

    UniqueFunctionT(const UniqueFunctionT &) = delete;
    UniqueFunctionT &operator=(const UniqueFunctionT &) = delete;

    ~UniqueFunctionT() { destroy(); }

    /** Invoke. Precondition: non-empty. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(*this, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    /** Per-callable-type operations (a hand-rolled vtable). */
    struct Ops
    {
        R (*invoke)(UniqueFunctionT &, Args...);
        /** Move-construct @p src's callable into raw @p dst storage
         *  and destroy the source callable. */
        void (*relocate)(UniqueFunctionT &dst,
                         UniqueFunctionT &src) noexcept;
        void (*destroy)(UniqueFunctionT &) noexcept;
    };

    template <typename Fn> struct InlineOps
    {
        static Fn &
        obj(UniqueFunctionT &u)
        {
            return *std::launder(reinterpret_cast<Fn *>(u.buf_));
        }
        static R
        invoke(UniqueFunctionT &u, Args... args)
        {
            return obj(u)(std::forward<Args>(args)...);
        }
        static void
        relocate(UniqueFunctionT &dst, UniqueFunctionT &src) noexcept
        {
            ::new (static_cast<void *>(dst.buf_)) Fn(
                std::move(obj(src)));
            obj(src).~Fn();
        }
        static void
        destroy(UniqueFunctionT &u) noexcept
        {
            obj(u).~Fn();
        }
        static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };

    template <typename Fn> struct HeapOps
    {
        static Fn &
        obj(UniqueFunctionT &u)
        {
            return *static_cast<Fn *>(u.heap_);
        }
        static R
        invoke(UniqueFunctionT &u, Args... args)
        {
            return obj(u)(std::forward<Args>(args)...);
        }
        static void
        relocate(UniqueFunctionT &dst, UniqueFunctionT &src) noexcept
        {
            dst.heap_ = src.heap_;
        }
        static void
        destroy(UniqueFunctionT &u) noexcept
        {
            delete &obj(u);
        }
        static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(UniqueFunctionT &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(*this, other);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_) {
            ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

    union
    {
        alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
        void *heap_;
    };
    const Ops *ops_ = nullptr;
};

/** The event queue's callback type. */
using UniqueFunction = UniqueFunctionT<void()>;

} // namespace sd

#endif // SD_SIM_UNIQUE_FUNCTION_H
