// Counting replacements of the global operator new and delete, for the
// binaries that measure allocations (their count, and the largest single
// request): the allocation-budget test
// (tests/alloc/alloc_budget_test.cpp) and the kernel microbenchmarks
// (bench/microbench_kernels.cpp).  Include it in exactly one translation
// unit of a binary: it defines the replaceable functions, which may not be
// inline.  Every form still allocates through malloc, which the sanitizer
// runtimes intercept, so the ASan and TSan legs check these blocks too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace nbmg::test_support {

/// Operator-new calls made so far, by every thread.
inline std::atomic<std::uint64_t> allocation_counter{0};
/// The largest single operator-new request since the last
/// reset_largest_allocation(), by every thread.
inline std::atomic<std::size_t> largest_allocation_seen{0};

[[nodiscard]] inline std::uint64_t allocation_count() noexcept {
    return allocation_counter.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::size_t largest_allocation() noexcept {
    return largest_allocation_seen.load(std::memory_order_relaxed);
}

inline void reset_largest_allocation() noexcept {
    largest_allocation_seen.store(0, std::memory_order_relaxed);
}

inline void count_allocation(std::size_t size) noexcept {
    allocation_counter.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = largest_allocation_seen.load(std::memory_order_relaxed);
    while (size > largest && !largest_allocation_seen.compare_exchange_weak(
                                 largest, size, std::memory_order_relaxed)) {
    }
}

inline void* counted_alloc(std::size_t size) {
    count_allocation(size);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

inline void* counted_alloc(std::size_t size, std::align_val_t align) {
    count_allocation(size);
    // aligned_alloc wants a nonzero size that is a multiple of the alignment.
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a) / a * a)) return p;
    throw std::bad_alloc();
}

}  // namespace nbmg::test_support

void* operator new(std::size_t size) { return nbmg::test_support::counted_alloc(size); }
void* operator new[](std::size_t size) { return nbmg::test_support::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return nbmg::test_support::counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return nbmg::test_support::counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
