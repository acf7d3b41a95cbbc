#include "pe/memory.hpp"

#include <cstring>

#include "support/diagnostics.hpp"

namespace qm::pe {

Memory::Memory(std::size_t bytes, Alloc alloc) : size_(bytes)
{
    if (alloc == Alloc::Eager) {
        bytes_.assign(bytes, 0);
        data_ = bytes_.data();
    } else {
        lazy_.reset(static_cast<std::uint8_t *>(std::calloc(bytes, 1)));
        fatalIf(bytes > 0 && !lazy_,
                "memory allocation of ", bytes, " bytes failed");
        data_ = lazy_.get();
    }
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
    if (undo_)
        undo_->record(addr, readWord(addr), /*byte=*/false);
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
    if (undo_)
        undo_->record(addr, data_[addr], /*byte=*/true);
    data_[addr] = value;
}

void
Memory::applyUndo(const UndoLog &undo)
{
    panicIf(undo.overflowed, "applying an overflowed undo log");
    for (auto it = undo.entries.rbegin(); it != undo.entries.rend();
         ++it) {
        if (it->byte)
            data_[it->addr] = static_cast<std::uint8_t>(it->old);
        else {
            checkWord(it->addr);
            data_[it->addr] = static_cast<std::uint8_t>(it->old);
            data_[it->addr + 1] =
                static_cast<std::uint8_t>(it->old >> 8);
            data_[it->addr + 2] =
                static_cast<std::uint8_t>(it->old >> 16);
            data_[it->addr + 3] =
                static_cast<std::uint8_t>(it->old >> 24);
        }
    }
}

void
Memory::snapshotTo(std::vector<std::uint8_t> &out) const
{
    out.assign(data_, data_ + size_);
}

void
Memory::restoreBytes(const std::vector<std::uint8_t> &bytes)
{
    panicIf(bytes.size() != size_, "memory snapshot size mismatch");
    std::memcpy(data_, bytes.data(), size_);
}

} // namespace qm::pe
