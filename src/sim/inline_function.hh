/**
 * @file
 * A move-only callable with inline storage.
 *
 * The event queue holds one callable per pending event. std::function
 * keeps only 16 bytes inline (and only for trivially copyable
 * functors), so a typical simulator closure — `this`, a couple of ids
 * and a cycle — would go to the heap on every schedule. InlineFunction
 * stores any functor up to @p Capacity bytes in place, moves it with
 * memcpy when it is trivially copyable, and falls back to one heap
 * allocation only for larger captures. It is move-only, so a capture
 * may own a frame's bytes or a unique_ptr.
 */

#ifndef FIRESIM_SIM_INLINE_FUNCTION_HH
#define FIRESIM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace firesim
{

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        if constexpr (storedInline<D>()) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(f));
            invoke_ = [](void *p, Args... args) -> R {
                return (*static_cast<D *>(p))(std::forward<Args>(args)...);
            };
            if constexpr (!std::is_trivially_copyable_v<D>)
                manage_ = &manageInline<D>;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(storage, &heap, sizeof heap);
            invoke_ = [](void *p, Args... args) -> R {
                return (*heapTarget<D>(p))(std::forward<Args>(args)...);
            };
            manage_ = &manageHeap<D>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /** Call the target; calling an empty InlineFunction is a bug. */
    R
    operator()(Args... args)
    {
        return invoke_(storage, std::forward<Args>(args)...);
    }

    /** True when a functor of type @p F is stored without allocating. */
    template <typename F>
    static constexpr bool
    storedInline()
    {
        return sizeof(F) <= Capacity &&
            alignof(F) <= alignof(std::max_align_t) &&
            std::is_nothrow_move_constructible_v<F>;
    }

  private:
    enum class Op { Move, Destroy };

    /** Move-construct *src into dst and destroy *src (Move), or
     *  destroy *src (Destroy). Null for trivially copyable inline
     *  functors, which move by memcpy and need no destructor. */
    using Manager = void (*)(Op op, void *dst, void *src);

    template <typename D>
    static D *
    heapTarget(void *p)
    {
        D *target = nullptr;
        std::memcpy(&target, p, sizeof target);
        return target;
    }

    template <typename D>
    static void
    manageInline(Op op, void *dst, void *src)
    {
        D *from = static_cast<D *>(src);
        if (op == Op::Move)
            ::new (dst) D(std::move(*from));
        from->~D();
    }

    template <typename D>
    static void
    manageHeap(Op op, void *dst, void *src)
    {
        if (op == Op::Move)
            std::memcpy(dst, src, sizeof(D *));
        else
            delete heapTarget<D>(src);
    }

    void
    take(InlineFunction &other) noexcept
    {
        if (other.manage_)
            other.manage_(Op::Move, storage, other.storage);
        else if (other.invoke_)
            std::memcpy(storage, other.storage, Capacity);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (manage_)
            manage_(Op::Destroy, nullptr, storage);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    /** Zeroed so that moving a small trivial functor, which copies
     *  the whole buffer, never reads indeterminate bytes. */
    alignas(std::max_align_t) unsigned char storage[Capacity] = {};
    R (*invoke_)(void *, Args...) = nullptr;
    Manager manage_ = nullptr;
};

} // namespace firesim

#endif // FIRESIM_SIM_INLINE_FUNCTION_HH
