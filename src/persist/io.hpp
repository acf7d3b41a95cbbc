/**
 * @file
 * Durable-state primitives: structured I/O errors, CRC32, a
 * bounds-checked binary encoder/decoder pair, a versioned
 * per-section-checksummed container file written atomically, and an
 * append-only record journal whose torn tail (after kill -9 mid-write)
 * reads as a clean end of file.
 *
 * Everything here is host-side plumbing: nothing in this library knows
 * about the simulated machine. Higher layers (mp, sim) provide codecs
 * for their own state on top of Encoder/Decoder.
 *
 * Corruption is a *value*, never an exception escaping to the caller:
 * every read path returns a Status carrying a machine-readable code
 * plus a one-line human diagnostic, so callers can refuse a bad file
 * and fall back to a cold start without crashing.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace qm::persist {

/** Machine-readable failure class for persistence operations. */
enum class ErrCode
{
    None = 0,     ///< Success.
    Io,           ///< open/read/write/fsync/rename failed (see message).
    BadMagic,     ///< File does not start with the expected magic.
    BadVersion,   ///< Format version is newer/older than this build.
    Truncated,    ///< File ends before a declared length.
    BadChecksum,  ///< A section or record CRC does not match its payload.
    BadFormat,    ///< Structurally invalid payload (lengths, tags, enums).
    Mismatch,     ///< Valid file, but for a different configuration.
};

/** Short stable name for an ErrCode ("io", "bad-checksum", ...). */
const char *errCodeName(ErrCode code);

/** Result of a persistence operation: ok() or a code + diagnostic. */
struct Status
{
    ErrCode code = ErrCode::None;
    std::string message;

    bool ok() const { return code == ErrCode::None; }
    /** "bad-checksum: section MEMS crc mismatch" style one-liner. */
    std::string toString() const;

    static Status okStatus() { return {}; }
    static Status error(ErrCode code, std::string message)
    {
        return Status{code, std::move(message)};
    }
};

/** CRC-32 (IEEE 802.3 polynomial, reflected) over @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Incremental variant: pass the previous return as @p seed. */
std::uint32_t crc32Update(std::uint32_t seed, const void *data,
                          std::size_t size);

/**
 * Pointers to @p m's (key, value) pairs in ascending key order: one
 * sorted buffer, so a hashed map is written and checked in the order
 * an ordered one iterates.
 */
template <class M>
std::vector<const typename M::value_type *>
keyOrder(const M &m)
{
    std::vector<const typename M::value_type *> order;
    order.reserve(m.size());
    for (const auto &kv : m)
        order.push_back(&kv);
    std::sort(order.begin(), order.end(), [](const auto *a, const auto *b) {
        return a->first < b->first;
    });
    return order;
}

/**
 * Little-endian binary encoder. Append-only; the buffer is plain
 * bytes so a whole message can be CRC'd and written in one go.
 *
 * Its field calls mirror Decoder's, so one `fields(ar, record)`
 * template lists a record's wire layout for both directions: the
 * encoder takes each field by value, the decoder by reference.
 */
class Encoder
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Doubles travel as their IEEE-754 bit pattern (exact roundtrip). */
    void f64(double v);
    /** Length-prefixed (u64) byte string. */
    void str(const std::string &v);

    /** An enum as u8; the bound is checked on the decode side. */
    template <class E>
    void u8(E v, E, const char *)
    {
        u8(static_cast<std::uint8_t>(v));
    }
    /** Bounded integers; the bounds are checked on the decode side. */
    void u64(std::uint64_t v, std::uint64_t, std::uint64_t, const char *)
    {
        u64(v);
    }
    void i64(std::int64_t v, std::int64_t, std::int64_t, const char *)
    {
        i64(v);
    }

    /**
     * A u64 count, then @p each per element in iteration order - or,
     * for a priority queue, in pop order, which is reproducible because
     * the decoder rebuilds it by pushes.
     */
    template <class C, class F>
    void seq(const C &c, F &&each)
    {
        u64(c.size());
        if constexpr (requires { c.top(); }) {
            for (C q = c; !q.empty(); q.pop())
                each(q.top());
        } else {
            for (const auto &e : c)
                each(e);
        }
    }
    /** seq() of at most @p max elements; the decoder checks it. */
    template <class C, class W, class F>
    void seq(const C &c, std::size_t, W &&, F &&each)
    {
        seq(c, each);
    }
    /**
     * A u64 count, then @p each (key, value) in key order. A hashed
     * map is walked through keyOrder().
     */
    template <class M, class F>
    void map(const M &m, F &&each)
    {
        u64(m.size());
        if constexpr (requires { m.bucket_count(); }) {
            for (const auto *kv : keyOrder(m))
                each(kv->first, kv->second);
        } else {
            for (const auto &[k, v] : m)
                each(k, v);
        }
    }
    /** Length-prefixed (u64) raw blob. */
    void blob(const void *data, std::size_t size);
    /** Raw bytes, no length prefix (fixed-size fields like magics). */
    void blobRaw(const std::string &v)
    {
        bytes_.insert(bytes_.end(), v.begin(), v.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked decoder over a byte span. Any out-of-bounds or
 * malformed read flips the decoder into a sticky failed state and
 * returns zero values; callers check ok() once at the end instead of
 * wrapping every field read. A failed decode is always BadFormat /
 * Truncated — never UB, never an exception.
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit Decoder(const std::vector<std::uint8_t> &bytes)
        : Decoder(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    // Field calls mirroring Encoder's (see there): read into @p v.
    template <class T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <class T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <class T> void u64(T &v) { v = static_cast<T>(u64()); }
    template <class T> void i64(T &v) { v = static_cast<T>(i64()); }
    void f64(double &v) { v = f64(); }
    void str(std::string &v) { v = str(); }

    /** An enum stored as u8: fails unless the value is at most @p max. */
    template <class E>
    void u8(E &v, E max, const char *what)
    {
        bounded(v, u8(), std::uint8_t{0}, static_cast<std::uint8_t>(max),
                what);
    }
    /** Bounded integers: fail unless the value is in [lo, hi]. */
    template <class T>
    void u64(T &v, std::uint64_t lo, std::uint64_t hi, const char *what)
    {
        bounded(v, u64(), lo, hi, what);
    }
    template <class T>
    void i64(T &v, std::int64_t lo, std::int64_t hi, const char *what)
    {
        bounded(v, i64(), lo, hi, what);
    }

    /**
     * A u64 count capped by remaining() (every element takes at least
     * one byte, so a corrupt count cannot drive a huge allocation),
     * then @p each on a value-initialized element that is appended
     * (or pushed, for a priority queue) while the decode is ok.
     */
    template <class C, class F>
    void seq(C &c, F &&each)
    {
        fill(c, length(remaining()), each);
    }
    /**
     * seq() into a container that holds at most @p max elements: a
     * longer list fails, naming it by @p what(), which only a failing
     * decode calls.
     */
    template <class C, class W, class F>
    void seq(C &c, std::size_t max, W &&what, F &&each)
    {
        std::size_t n = length(remaining());
        if (ok() && n > max)
            return fail(what() + " " + std::to_string(n) +
                        " out of range");
        fill(c, n, each);
    }
    /** Count-prefixed (key, value) pairs; a repeated key fails. */
    template <class M, class F>
    void map(M &m, F &&each)
    {
        std::size_t n = length(remaining());
        for (std::size_t i = 0; i < n && ok(); ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            each(k, v);
            if (ok() && !m.emplace(std::move(k), std::move(v)).second)
                fail("repeated map key");
        }
    }
    /** Exactly @p n raw bytes (no length prefix). */
    std::vector<std::uint8_t> blobOf(std::size_t n);
    /** Exactly @p n raw bytes copied to @p out (untouched on failure). */
    void blobInto(void *out, std::size_t n);
    /** u64 length check helper: fails unless at most @p limit. */
    std::size_t length(std::uint64_t limit);

    /** Mark the decode failed (semantic validation by codecs). */
    void fail(const std::string &why);

    bool ok() const { return !failed_; }
    bool atEnd() const { return !failed_ && pos_ == size_; }
    const std::string &error() const { return error_; }
    std::size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

  private:
    bool take(std::size_t n, const std::uint8_t **out);

    /** Append @p n elements decoded by @p each, while the decode is ok. */
    template <class C, class F>
    void fill(C &c, std::size_t n, F &&each)
    {
        if constexpr (requires { c.reserve(n); })
            c.reserve(n);
        for (std::size_t i = 0; i < n && ok(); ++i) {
            typename C::value_type e{};
            each(e);
            if (!ok())
                break;
            if constexpr (requires { c.push(std::move(e)); })
                c.push(std::move(e));
            else
                c.push_back(std::move(e));
        }
    }

    template <class T, class W>
    void bounded(T &v, W raw, W lo, W hi, const char *what)
    {
        if (!ok())
            return;
        if (raw < lo || raw > hi)
            fail(std::string(what) + " " + std::to_string(+raw) +
                 " out of range");
        else
            v = static_cast<T>(raw);
    }

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

// ---------------------------------------------------------------------------
// Section container file.
// ---------------------------------------------------------------------------

/** One named, individually-checksummed payload inside a container. */
struct Section
{
    std::string tag;  ///< Four ASCII characters, e.g. "MEMS".
    std::vector<std::uint8_t> payload;
};

/**
 * Serialize @p sections into a container image:
 *
 *   [magic 8B][version u32][section count u32][header crc u32]
 *   repeated: [tag 4B][length u64][payload crc u32][payload bytes]
 *
 * The header CRC covers magic+version+count; each payload CRC covers
 * only that section, so corruption is localized in diagnostics.
 */
std::vector<std::uint8_t> buildContainer(const std::string &magic,
                                         std::uint32_t version,
                                         const std::vector<Section> &sections);

/**
 * Parse and fully verify a container image. On any structural or
 * checksum problem returns a non-ok Status and leaves @p out empty.
 */
Status parseContainer(const std::vector<std::uint8_t> &bytes,
                      const std::string &magic, std::uint32_t version,
                      std::vector<Section> &out);

/** Read a whole file; Io error with errno text on failure. */
Status readFile(const std::string &path, std::vector<std::uint8_t> &out);

/**
 * Crash-safe whole-file write: write to `<path>.tmp.<pid>`, fsync the
 * file, rename over @p path, then fsync the directory. A reader never
 * observes a half-written file: either the old content or the new.
 */
Status writeFileAtomic(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

// ---------------------------------------------------------------------------
// Append-only journal.
// ---------------------------------------------------------------------------

/**
 * Append-only record journal. Layout:
 *
 *   header record:  [magic 8B][fingerprint str (u64 len + bytes)]
 *   data records:   [marker u32 = 0x5245434Au "JCER"][length u64]
 *                   [payload crc u32][payload bytes]
 *
 * Every append is fsync'd, so a record is durable once append()
 * returns. A process killed mid-append leaves a torn final record;
 * readers verify marker+length+CRC and treat the first bad record as
 * a clean end of journal (the torn tail is simply re-run), never an
 * error. A *header* that is corrupt or carries the wrong fingerprint
 * is a different situation — the whole file is untrustworthy or
 * belongs to a different sweep — and is reported as such.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Open @p path for appending. If the file does not exist (or
     * @p truncate is set), it is created and a header record with
     * @p magic + @p fingerprint is written and fsync'd first.
     */
    Status open(const std::string &path, const std::string &magic,
                const std::string &fingerprint, bool truncate = false);

    /** Append one record (marker+length+crc+payload) and fsync. */
    Status append(const std::vector<std::uint8_t> &payload);

    void close();
    bool isOpen() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/**
 * Read all intact records of a journal. Returns ok with the records
 * read so far even when the tail is torn (kill -9 mid-append); returns
 * Mismatch when the header fingerprint differs from @p fingerprint,
 * and BadMagic/BadChecksum/... when the header itself is unusable.
 */
Status readJournal(const std::string &path, const std::string &magic,
                   const std::string &fingerprint,
                   std::vector<std::vector<std::uint8_t>> &records);

} // namespace qm::persist
