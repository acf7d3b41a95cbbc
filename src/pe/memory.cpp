#include "pe/memory.hpp"

#include <cstring>

#include "support/diagnostics.hpp"

namespace qm::pe {

Memory::Memory(std::size_t bytes)
    : data_(static_cast<std::uint8_t *>(std::calloc(bytes, 1))),
      size_(bytes), written_((bytes + kPageBytes - 1) / kPageBytes, 0)
{
    fatalIf(bytes > 0 && !data_,
            "memory allocation of ", bytes, " bytes failed");
}

void
Memory::checkWord(Addr addr) const
{
    fatalIf((addr & 3) != 0, "unaligned word access at ", addr);
    fatalIf(static_cast<std::size_t>(addr) + 4 > size_,
            "word access out of bounds at ", addr);
}

Word
Memory::readWord(Addr addr) const
{
    checkWord(addr);
    return static_cast<Word>(data_[addr]) |
           (static_cast<Word>(data_[addr + 1]) << 8) |
           (static_cast<Word>(data_[addr + 2]) << 16) |
           (static_cast<Word>(data_[addr + 3]) << 24);
}

void
Memory::writeWord(Addr addr, Word value)
{
    checkWord(addr);
    written_[addr / kPageBytes] = 1;  // aligned: one page per word
    data_[addr] = static_cast<std::uint8_t>(value);
    data_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    data_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    data_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint8_t
Memory::readByte(Addr addr) const
{
    fatalIf(static_cast<std::size_t>(addr) >= size_,
            "byte access out of bounds at ", addr);
    return data_[addr];
}

void
Memory::writeByte(Addr addr, std::uint8_t value)
{
    fatalIf(static_cast<std::size_t>(addr) >= size_,
            "byte access out of bounds at ", addr);
    written_[addr / kPageBytes] = 1;
    data_[addr] = value;
}

PageImage
Memory::snapshot() const
{
    PageImage image;
    image.size = size_;
    for (std::size_t p = 0; p < written_.size(); ++p)
        if (written_[p])
            image.pages.push_back(static_cast<std::uint32_t>(p));
    image.bytes.resize(image.pages.size() * kPageBytes);
    for (std::size_t k = 0; k < image.pages.size(); ++k) {
        std::size_t p = image.pages[k];
        std::memcpy(image.bytes.data() + k * kPageBytes,
                    data_.get() + p * kPageBytes, pageLength(size_, p));
    }
    return image;
}

void
Memory::restore(const PageImage &image)
{
    panicIf(image.size != size_ ||
                image.bytes.size() != image.pages.size() * kPageBytes,
            "memory image does not fit this memory");
    for (std::size_t p = 0; p < written_.size(); ++p)
        if (written_[p])
            std::memset(data_.get() + p * kPageBytes, 0,
                        pageLength(size_, p));
    for (std::size_t k = 0; k < image.pages.size(); ++k) {
        std::size_t p = image.pages[k];
        panicIf(p >= written_.size(), "memory image page ", p,
                " out of range");
        std::memcpy(data_.get() + p * kPageBytes, image.page(k),
                    pageLength(size_, p));
        written_[p] = 1;
    }
}

} // namespace qm::pe
