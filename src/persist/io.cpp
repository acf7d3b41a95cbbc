#include "persist/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/format.hpp"

namespace qm::persist {

const char *
errCodeName(ErrCode code)
{
    switch (code) {
    case ErrCode::None: return "ok";
    case ErrCode::Io: return "io";
    case ErrCode::BadMagic: return "bad-magic";
    case ErrCode::BadVersion: return "bad-version";
    case ErrCode::Truncated: return "truncated";
    case ErrCode::BadChecksum: return "bad-checksum";
    case ErrCode::BadFormat: return "bad-format";
    case ErrCode::Mismatch: return "mismatch";
    }
    return "unknown";
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    return cat(errCodeName(code), ": ", message);
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected), table generated on first use.
// ---------------------------------------------------------------------------

namespace {

const std::uint32_t *
crcTable()
{
    static std::uint32_t table[256];
    static bool ready = [] {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        return true;
    }();
    (void)ready;
    return table;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t seed, const void *data, std::size_t size)
{
    const std::uint32_t *table = crcTable();
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32(const void *data, std::size_t size)
{
    return crc32Update(0, data, size);
}

// ---------------------------------------------------------------------------
// Encoder / Decoder.
// ---------------------------------------------------------------------------

void
Encoder::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Encoder::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Encoder::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Encoder::str(const std::string &v)
{
    blob(v.data(), v.size());
}

void
Encoder::blob(const void *data, std::size_t size)
{
    u64(size);
    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
}

bool
Decoder::take(std::size_t n, const std::uint8_t **out)
{
    if (failed_)
        return false;
    if (n > size_ - pos_) {
        fail(cat("need ", n, " bytes at offset ", pos_, ", have ",
                 size_ - pos_));
        return false;
    }
    *out = data_ + pos_;
    pos_ += n;
    return true;
}

void
Decoder::fail(const std::string &why)
{
    if (!failed_) {
        failed_ = true;
        error_ = why;
    }
}

std::uint8_t
Decoder::u8()
{
    const std::uint8_t *p = nullptr;
    if (!take(1, &p))
        return 0;
    return p[0];
}

std::uint32_t
Decoder::u32()
{
    const std::uint8_t *p = nullptr;
    if (!take(4, &p))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
Decoder::u64()
{
    const std::uint8_t *p = nullptr;
    if (!take(8, &p))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
Decoder::f64()
{
    std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::size_t
Decoder::length(std::uint64_t limit)
{
    std::uint64_t n = u64();
    if (!failed_ && n > limit)
        fail(cat("length ", n, " exceeds limit ", limit));
    return failed_ ? 0 : static_cast<std::size_t>(n);
}

std::string
Decoder::str()
{
    std::size_t n = length(remaining());
    const std::uint8_t *p = nullptr;
    if (!take(n, &p))
        return {};
    return std::string(reinterpret_cast<const char *>(p), n);
}

std::vector<std::uint8_t>
Decoder::blobOf(std::size_t n)
{
    const std::uint8_t *p = nullptr;
    if (!take(n, &p))
        return {};
    return std::vector<std::uint8_t>(p, p + n);
}

void
Decoder::blobInto(void *out, std::size_t n)
{
    const std::uint8_t *p = nullptr;
    if (take(n, &p))
        std::memcpy(out, p, n);
}

// ---------------------------------------------------------------------------
// Section container.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kHeaderLen = kMagicLen + 4 + 4 + 4;

} // namespace

std::vector<std::uint8_t>
buildContainer(const std::string &magic, std::uint32_t version,
               const std::vector<Section> &sections)
{
    Encoder enc;
    std::string m = magic;
    m.resize(kMagicLen, '\0');
    enc.blobRaw(m);
    enc.u32(version);
    enc.u32(static_cast<std::uint32_t>(sections.size()));
    std::uint32_t header_crc = crc32(enc.bytes().data(), enc.bytes().size());
    enc.u32(header_crc);
    for (const Section &s : sections) {
        std::string tag = s.tag;
        tag.resize(4, '\0');
        enc.blobRaw(tag);
        enc.u64(s.payload.size());
        enc.u32(crc32(s.payload.data(), s.payload.size()));
        enc.blobRaw(
            std::string(reinterpret_cast<const char *>(s.payload.data()),
                        s.payload.size()));
    }
    return enc.take();
}

Status
parseContainer(const std::vector<std::uint8_t> &bytes, const std::string &magic,
               std::uint32_t version, std::vector<Section> &out)
{
    out.clear();
    if (bytes.size() < kHeaderLen)
        return Status::error(ErrCode::Truncated,
                             cat("file is ", bytes.size(),
                                 " bytes, smaller than the ", kHeaderLen,
                                 "-byte header"));
    std::string m = magic;
    m.resize(kMagicLen, '\0');
    if (std::memcmp(bytes.data(), m.data(), kMagicLen) != 0)
        return Status::error(ErrCode::BadMagic,
                             cat("expected magic \"", magic, "\""));
    Decoder dec(bytes.data() + kMagicLen, bytes.size() - kMagicLen);
    std::uint32_t file_version = dec.u32();
    std::uint32_t count = dec.u32();
    std::uint32_t header_crc = dec.u32();
    std::uint32_t want_crc = crc32(bytes.data(), kMagicLen + 8);
    if (header_crc != want_crc)
        return Status::error(ErrCode::BadChecksum, "header crc mismatch");
    if (file_version != version)
        return Status::error(ErrCode::BadVersion,
                             cat("file version ", file_version,
                                 ", this build reads version ", version));
    std::vector<Section> sections;
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        std::vector<std::uint8_t> tag = dec.blobOf(4);
        if (!dec.ok())
            return Status::error(ErrCode::Truncated,
                                 cat("section ", i, " tag truncated"));
        s.tag.assign(reinterpret_cast<const char *>(tag.data()), 4);
        std::uint64_t len = dec.u64();
        std::uint32_t payload_crc = dec.u32();
        if (!dec.ok())
            return Status::error(ErrCode::Truncated,
                                 cat("section ", s.tag, " header truncated"));
        if (len > dec.remaining())
            return Status::error(ErrCode::Truncated,
                                 cat("section ", s.tag, " declares ", len,
                                     " bytes, only ", dec.remaining(),
                                     " remain"));
        s.payload = dec.blobOf(static_cast<std::size_t>(len));
        std::uint32_t got = crc32(s.payload.data(), s.payload.size());
        if (got != payload_crc)
            return Status::error(ErrCode::BadChecksum,
                                 cat("section ", s.tag, " crc mismatch"));
        sections.push_back(std::move(s));
    }
    if (dec.remaining() != 0)
        return Status::error(ErrCode::BadFormat,
                             cat(dec.remaining(),
                                 " trailing bytes after last section"));
    out = std::move(sections);
    return Status::okStatus();
}

// ---------------------------------------------------------------------------
// File I/O.
// ---------------------------------------------------------------------------

Status
readFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return Status::error(ErrCode::Io, cat("open ", path, ": ",
                                              std::strerror(errno)));
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            return Status::error(ErrCode::Io, cat("read ", path, ": ",
                                                  std::strerror(err)));
        }
        if (n == 0)
            break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    out = std::move(bytes);
    return Status::okStatus();
}

namespace {

Status
writeAll(int fd, const std::uint8_t *data, std::size_t size,
         const std::string &what)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::error(ErrCode::Io, cat("write ", what, ": ",
                                                  std::strerror(errno)));
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::okStatus();
}

/** fsync the directory containing @p path so a rename is durable. */
void
fsyncParentDir(const std::string &path)
{
    std::string dir = ".";
    std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace

Status
writeFileAtomic(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::string tmp = cat(path, ".tmp.", static_cast<long>(::getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return Status::error(ErrCode::Io, cat("open ", tmp, ": ",
                                              std::strerror(errno)));
    Status st = writeAll(fd, bytes.data(), bytes.size(), tmp);
    if (st.ok() && ::fsync(fd) != 0)
        st = Status::error(ErrCode::Io, cat("fsync ", tmp, ": ",
                                            std::strerror(errno)));
    ::close(fd);
    if (!st.ok()) {
        ::unlink(tmp.c_str());
        return st;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        return Status::error(ErrCode::Io, cat("rename ", tmp, " -> ", path,
                                              ": ", std::strerror(err)));
    }
    fsyncParentDir(path);
    return Status::okStatus();
}

// ---------------------------------------------------------------------------
// Journal.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRecordMarker = 0x4A434552u; // "RECJ" little-endian.

} // namespace

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Status
JournalWriter::open(const std::string &path, const std::string &magic,
                    const std::string &fingerprint, bool truncate)
{
    close();
    int flags = O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC;
    if (truncate)
        flags |= O_TRUNC;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0)
        return Status::error(ErrCode::Io, cat("open ", path, ": ",
                                              std::strerror(errno)));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        return Status::error(ErrCode::Io, cat("stat ", path, ": ",
                                              std::strerror(err)));
    }
    fd_ = fd;
    if (st.st_size == 0) {
        Encoder enc;
        std::string m = magic;
        m.resize(kMagicLen, '\0');
        enc.blobRaw(m);
        enc.str(fingerprint);
        Status ws = writeAll(fd_, enc.bytes().data(), enc.bytes().size(),
                             path);
        if (ws.ok() && ::fsync(fd_) != 0)
            ws = Status::error(ErrCode::Io, cat("fsync ", path, ": ",
                                                std::strerror(errno)));
        if (!ws.ok()) {
            close();
            return ws;
        }
        fsyncParentDir(path);
    }
    return Status::okStatus();
}

Status
JournalWriter::append(const std::vector<std::uint8_t> &payload)
{
    if (fd_ < 0)
        return Status::error(ErrCode::Io, "journal is not open");
    Encoder enc;
    enc.u32(kRecordMarker);
    enc.u64(payload.size());
    enc.u32(crc32(payload.data(), payload.size()));
    enc.blobRaw(std::string(reinterpret_cast<const char *>(payload.data()),
                            payload.size()));
    Status st = writeAll(fd_, enc.bytes().data(), enc.bytes().size(),
                         "journal record");
    if (st.ok() && ::fsync(fd_) != 0)
        st = Status::error(ErrCode::Io, cat("fsync journal: ",
                                            std::strerror(errno)));
    return st;
}

Status
readJournal(const std::string &path, const std::string &magic,
            const std::string &fingerprint,
            std::vector<std::vector<std::uint8_t>> &records)
{
    records.clear();
    std::vector<std::uint8_t> bytes;
    Status st = readFile(path, bytes);
    if (!st.ok())
        return st;
    if (bytes.size() < kMagicLen)
        return Status::error(ErrCode::Truncated,
                             "journal smaller than its magic");
    std::string m = magic;
    m.resize(kMagicLen, '\0');
    if (std::memcmp(bytes.data(), m.data(), kMagicLen) != 0)
        return Status::error(ErrCode::BadMagic,
                             cat("expected journal magic \"", magic, "\""));
    Decoder header(bytes.data() + kMagicLen, bytes.size() - kMagicLen);
    std::string got_fp = header.str();
    if (!header.ok())
        return Status::error(ErrCode::Truncated, "journal header truncated");
    if (got_fp != fingerprint)
        return Status::error(
            ErrCode::Mismatch,
            cat("journal was written for a different sweep (fingerprint \"",
                got_fp, "\", expected \"", fingerprint, "\")"));
    // Data records: any torn/corrupt record ends the journal cleanly.
    std::size_t pos = bytes.size() - header.remaining();
    std::vector<std::vector<std::uint8_t>> recs;
    while (pos < bytes.size()) {
        Decoder rec(bytes.data() + pos, bytes.size() - pos);
        std::uint32_t marker = rec.u32();
        std::uint64_t len = rec.u64();
        std::uint32_t crc = rec.u32();
        if (!rec.ok() || marker != kRecordMarker || len > rec.remaining())
            break; // torn tail
        std::vector<std::uint8_t> payload =
            rec.blobOf(static_cast<std::size_t>(len));
        if (crc32(payload.data(), payload.size()) != crc)
            break; // torn tail
        recs.push_back(std::move(payload));
        pos += 4 + 8 + 4 + static_cast<std::size_t>(len);
    }
    records = std::move(recs);
    return Status::okStatus();
}

} // namespace qm::persist
