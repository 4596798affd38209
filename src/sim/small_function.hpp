// Type-erased move-only callable with inline storage for small targets —
// the allocation-free alternative to std::function on simulator hot
// paths.  Targets up to `Capacity` bytes (and alignable within
// max_align_t, with a nothrow move) live inline; larger ones fall back to
// one heap allocation.  `Capacity` is a tuning knob per use site: the
// event queue stores whole handlers inline at 48 bytes, while nested
// continuations (a callback captured inside a callback) pick a smaller
// capacity so the enclosing closure still fits its own inline buffer.
//
// `fits_inline<F>()` is the inline test, public so a call site can
// static_assert it.  A closure made once per device or per event that
// fails it is a bug, not a slow path: it costs one heap allocation each
// time, silently.  Capture order counts, since the closure pads each
// capture to its alignment (an int after a 16-aligned SmallFunction
// costs 16 bytes, before it 8).
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nbmg::sim {

template <typename Sig, std::size_t Capacity = 48>
class SmallFunction;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFunction<R(Args...), Capacity> {
public:
    static constexpr std::size_t kInlineCapacity = Capacity;

    SmallFunction() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, SmallFunction> &&
                 std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
    SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
        using Target = std::decay_t<F>;
        if constexpr (fits_inline<F>()) {
            ::new (static_cast<void*>(storage_)) Target(std::forward<F>(f));
            ops_ = &kInlineOps<Target>;
        } else {
            ::new (static_cast<void*>(storage_))
                Target*(new Target(std::forward<F>(f)));
            ops_ = &kHeapOps<Target>;
        }
    }

    SmallFunction(SmallFunction&& other) noexcept : ops_(other.ops_) {
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    SmallFunction& operator=(SmallFunction&& other) noexcept {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_ != nullptr) {
                ops_->relocate(storage_, other.storage_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    SmallFunction(const SmallFunction&) = delete;
    SmallFunction& operator=(const SmallFunction&) = delete;

    ~SmallFunction() { reset(); }

    R operator()(Args... args) {
        assert(ops_ != nullptr);
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

    void reset() noexcept {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    /// True when a target of type F is stored inline, false when it takes
    /// one heap allocation.
    template <typename F>
    [[nodiscard]] static constexpr bool fits_inline() noexcept {
        using Target = std::decay_t<F>;
        return sizeof(Target) <= kInlineCapacity &&
               alignof(Target) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Target>;
    }

private:
    struct Ops {
        R (*invoke)(void*, Args&&...);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void*) noexcept;
    };

    template <typename Target>
    static Target* as(void* p) noexcept {
        return std::launder(reinterpret_cast<Target*>(p));
    }

    template <typename Target>
    static constexpr Ops kInlineOps{
        [](void* p, Args&&... args) -> R {
            return (*as<Target>(p))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
            ::new (dst) Target(std::move(*as<Target>(src)));
            as<Target>(src)->~Target();
        },
        [](void* p) noexcept { as<Target>(p)->~Target(); },
    };

    // The stored object is a Target* (trivially destructible), so relocation
    // is a pointer copy and only destroy() releases the heap target.
    template <typename Target>
    static constexpr Ops kHeapOps{
        [](void* p, Args&&... args) -> R {
            return (**as<Target*>(p))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept { ::new (dst) Target*(*as<Target*>(src)); },
        [](void* p) noexcept { delete *as<Target*>(p); },
    };

    alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
    const Ops* ops_ = nullptr;
};

/// Wraps `f` as the SmallFunction `Fn`, refusing at compile time a closure
/// that would not fit inline.
template <typename Fn, typename F>
[[nodiscard]] Fn inline_only(F&& f) {
    static_assert(Fn::template fits_inline<F>(),
                  "closure spills to the heap: shrink it or reorder its captures");
    return Fn(std::forward<F>(f));
}

}  // namespace nbmg::sim
