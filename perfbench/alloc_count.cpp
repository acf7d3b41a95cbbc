/**
 * @file
 * Replacement global operator new that counts every call, so the
 * benchmark can report exact per-span allocation counts without any
 * code in the simulator's own sources. Every form is replaced (and
 * counts once) so no call is counted twice through a forwarding
 * default. The counter is a plain integer: every workload runs on one
 * thread, which main() checks before it reports.
 */
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::uint64_t g_allocs = 0;

void *
allocOrThrow(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
alignedOrThrow(std::size_t size, std::align_val_t align)
{
    ++g_allocs;
    auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

std::uint64_t
allocCount()
{
    return g_allocs;
}

} // namespace perfbench

void *
operator new(std::size_t size)
{
    return allocOrThrow(size);
}

void *
operator new[](std::size_t size)
{
    return allocOrThrow(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return alignedOrThrow(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return alignedOrThrow(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return alignedOrThrow(size, align);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    try {
        return alignedOrThrow(size, align);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
