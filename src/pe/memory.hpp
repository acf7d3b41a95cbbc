/**
 * @file
 * Byte-addressable data memory (thesis section 5.3.1).
 *
 * Words are 32 bits, little-endian, and word accesses must be aligned.
 * The operand-queue pages of every context live in this memory alongside
 * program data (vectors, arrays), exactly as in the pseudo-static layout
 * where one instruction space is shared while each context owns a data
 * page. A live machine therefore writes a few dozen 4 KiB pages of its
 * 32 MiB address space, and checkpoints copy only those (PageImage).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "isa/fields.hpp"

namespace qm::pe {

using isa::Addr;
using isa::Word;

/** Granule of the written-page map and of a PageImage. */
constexpr std::size_t kPageBytes = 4096;

/** Bytes of page @p page inside a @p memory_bytes memory. */
inline std::size_t
pageLength(std::size_t memory_bytes, std::size_t page)
{
    return std::min(kPageBytes, memory_bytes - page * kPageBytes);
}

/**
 * Sparse copy of a Memory: the pages it had written, ascending. The
 * content of page pages[k] is bytes[k * kPageBytes, (k + 1) *
 * kPageBytes); a short last page (memory size not a multiple of
 * kPageBytes) is zero-padded. Every page not listed is all zero.
 */
struct PageImage
{
    std::size_t size = 0;              ///< Bytes of the imaged memory.
    std::vector<std::uint32_t> pages;  ///< Ascending page indices.
    std::vector<std::uint8_t> bytes;   ///< kPageBytes per listed page.

    const std::uint8_t *
    page(std::size_t k) const
    {
        return bytes.data() + k * kPageBytes;
    }
};

/**
 * Flat byte-addressable memory with checked word/byte access and one
 * written flag per kPageBytes page. writeWord and writeByte are the
 * only write paths and both set the flag, so every unflagged page is
 * all zero, and nothing ever clears a flag. The store is calloc()ed, so pages
 * never touched stay the kernel's shared zero page and constructing a
 * 32 MiB memory costs next to nothing.
 */
class Memory
{
  public:
    explicit Memory(std::size_t bytes);

    std::size_t size() const { return size_; }

    Word readWord(Addr addr) const;
    void writeWord(Addr addr, Word value);
    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    /** Copy of every written page (System checkpoints). */
    PageImage snapshot() const;

    /**
     * Make memory equal @p image exactly: zero every written page,
     * then copy in the image's pages and flag them. Costs the pages
     * written, not the address space.
     */
    void restore(const PageImage &image);

    /** Raw backing store (tests comparing whole memory images). */
    const std::uint8_t *data() const { return data_.get(); }

  private:
    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    void checkWord(Addr addr) const;

    std::unique_ptr<std::uint8_t[], FreeDeleter> data_;
    std::size_t size_ = 0;
    std::vector<std::uint8_t> written_;  ///< One flag per page.
};

} // namespace qm::pe
