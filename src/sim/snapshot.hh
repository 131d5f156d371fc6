/**
 * @file
 * Binary snapshot serialization for the full simulated machine state.
 *
 * One Writer/Reader pair serves two consumers (DESIGN.md §11):
 *
 *  1. `System::clone()` — serialize to a memory buffer and deserialize
 *     into a freshly constructed System. This is the warm-start fast
 *     path the sweep benches use to fan rows out of a shared setup
 *     prefix.
 *  2. The on-disk checkpoint format behind `overlaysim checkpoint` /
 *     `restore` — the same byte stream wrapped in a versioned file
 *     header (magic + version + per-section length framing).
 *
 * The format is deliberately simple: little-endian fixed-width integers,
 * LEB128 varints, bit-packed arrays of small fields, length-prefixed
 * blobs, and tagged length-framed sections. Every read is bounds-checked
 * against both the buffer and the innermost open section; any violation
 * throws SnapshotError instead of invoking UB, so truncated or mangled
 * files fail with a diagnostic, never a crash.
 */

#ifndef OVERLAYSIM_SIM_SNAPSHOT_HH
#define OVERLAYSIM_SIM_SNAPSHOT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ovl::snapshot
{

/** Thrown on any malformed, truncated or version-mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** First 8 bytes of every on-disk snapshot file ("OVLSNAP\n"). */
constexpr std::uint64_t kFileMagic = 0x0A50414E534C564Full;

/** Bump on any incompatible change to the serialized layout. */
constexpr std::uint32_t kFormatVersion = 5;

/** Longest varint: ceil(64 / 7) bytes. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Fields per byte of a packed array of @p width-bit fields. */
inline unsigned
packedPerByte(unsigned width)
{
    if (width == 0 || width > 8 || 8 % width != 0)
        throw std::invalid_argument("packed field width must be 1, 2, 4 "
                                    "or 8 bits");
    return 8 / width;
}

/** Bytes of a packed array of @p n fields, @p per_byte to a byte. */
inline std::size_t
packedBytes(std::size_t n, unsigned per_byte)
{
    return n / per_byte + (n % per_byte != 0);
}

/**
 * Append-only byte-stream writer: the saving archive. Sections open with
 * a 4-char tag and a length placeholder that is patched once the section
 * body has been written, so readers can verify per-section framing
 * without understanding the payload.
 *
 * Writer and Reader share one vocabulary so a component describes its
 * layout once, in a `template <class Self, class Ar> static void io(Self
 * &, Ar &)` visitor run by visit() (DESIGN.md §11.1). Writer methods take
 * their fields by value, so a save can never modify what it observes.
 */
class Writer
{
  public:
    static constexpr bool kLoading = false;

    template <class T> void u8(T v) { put(v, 1); }
    template <class T> void u16(T v) { put(v, 2); }
    template <class T> void u32(T v) { put(v, 4); }
    template <class T> void u64(T v) { put(v, 8); }
    template <class T> void i64(T v) { put(v, 8); }
    void b(bool v) { put(v, 1); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    /**
     * An unsigned LEB128 varint: seven bits per byte, low group first,
     * the top bit set on every byte but the last. Values below 128 take
     * one byte, a full 64-bit value kMaxVarintBytes.
     */
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(std::uint8_t(v | 0x80));
            v >>= 7;
        }
        buf_.push_back(std::uint8_t(v));
    }

    /** @p n varints, the i-th being @p value(i). */
    template <class Fn>
    void
    varints(std::size_t n, Fn &&value)
    {
        for (std::size_t i = 0; i < n; ++i)
            varint(value(i));
    }

    /**
     * @p n fields of @p width bits (1, 2, 4 or 8), the i-th being the low
     * @p width bits of @p value(i), packed low field first into
     * ceil(n * width / 8) bytes; the unused high bits of the last byte
     * are zero.
     */
    template <class Fn>
    void
    packed(std::size_t n, unsigned width, Fn &&value)
    {
        const unsigned per_byte = packedPerByte(width);
        const unsigned mask = (1u << width) - 1;
        for (std::size_t i = 0; i < n; i += per_byte) {
            unsigned byte = 0;
            for (unsigned k = 0; k < per_byte && i + k < n; ++k)
                byte |= (unsigned(value(i + k)) & mask) << (k * width);
            buf_.push_back(std::uint8_t(byte));
        }
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** The raw bytes of a trivially copyable object (byte arrays). */
    template <class T>
    void
    blob(const T &obj)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&obj, sizeof(T));
    }

    /** An element count; @p min_elem_bytes only matters when loading. */
    void count(std::uint64_t n, std::uint64_t) { u64(n); }

    /** A structural value that the loading side must find unchanged. */
    template <class T>
    void
    expectEq(T configured, const std::string &)
    {
        static_assert(std::is_unsigned_v<T>);
        put(configured, sizeof(T));
    }

    /** A count-prefixed sequence: the count, then @p fn per element. */
    template <class Seq, class Fn>
    void
    seq(const Seq &s, std::uint64_t, Fn &&fn)
    {
        u64(s.size());
        for (const auto &elem : s)
            fn(elem);
    }

    /** A length-framed section tagged with 4 ASCII chars. */
    template <class Fn>
    void
    section(const char tag[4], Fn &&fn)
    {
        bytes(tag, 4);
        std::size_t at = buf_.size();
        u64(0); // length placeholder, patched below
        fn();
        std::uint64_t len = buf_.size() - at - 8;
        for (unsigned i = 0; i < 8; ++i)
            buf_[at + i] = std::uint8_t(len >> (8 * i));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(buf_); }

  private:
    template <class T>
    void
    put(T v, unsigned len)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        auto bits = std::uint64_t(v);
        for (unsigned i = 0; i < len; ++i)
            buf_.push_back(std::uint8_t(bits >> (8 * i)));
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a snapshot byte stream: the loading archive.
 * Every field method assigns through its reference argument. Does not own
 * the buffer; the caller keeps it alive for the Reader's lifetime.
 */
class Reader
{
  public:
    static constexpr bool kLoading = true;

    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    template <class T> void u8(T &v) { get(v, 1); }
    template <class T> void u16(T &v) { get(v, 2); }
    template <class T> void u32(T &v) { get(v, 4); }
    template <class T> void u64(T &v) { get(v, 8); }
    template <class T> void i64(T &v) { get(v, 8); }

    void
    b(bool &v)
    {
        std::uint8_t raw = 0;
        u8(raw);
        if (raw > 1)
            fail("boolean field holds " + std::to_string(raw));
        v = raw != 0;
    }

    void
    f64(double &v)
    {
        std::uint64_t bits = 0;
        u64(bits);
        v = std::bit_cast<double>(bits);
    }

    /**
     * @p n varints (see Writer::varint) into @p out. Bounds are checked
     * once per run of values that cannot overrun what remains (each is
     * at most kMaxVarintBytes), not once per byte; only the last few
     * values before the end are decoded byte-checked.
     */
    void
    varints(std::size_t n, std::uint64_t *out)
    {
        std::size_t i = 0;
        while (i < n) {
            std::size_t run = std::min(n - i, remaining() / kMaxVarintBytes);
            if (run == 0) {
                out[i++] = decodeVarint<true>();
                continue;
            }
            for (const std::size_t end = i + run; i < end; ++i)
                out[i] = decodeVarint<false>();
        }
    }

    /**
     * @p n packed fields of @p width bits (see Writer::packed), each
     * handed to @p fn(i, value) in order, after one bounds check for the
     * whole array. Nonzero padding bits are rejected, so every accepted
     * array re-saves to the same bytes.
     */
    template <class Fn>
    void
    packed(std::size_t n, unsigned width, Fn &&fn)
    {
        const unsigned per_byte = packedPerByte(width);
        const std::size_t len = packedBytes(n, per_byte);
        need(len);
        const std::uint8_t *p = data_ + pos_;
        // per_byte is a power of two: shift and mask, no division.
        const unsigned byte_shift = unsigned(std::countr_zero(per_byte));
        const unsigned mask = (1u << width) - 1;
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned at = unsigned(i & (per_byte - 1)) * width;
            fn(i, std::uint8_t((p[i >> byte_shift] >> at) & mask));
        }
        if (std::size_t used = n % per_byte;
            used != 0 && (p[len - 1] >> (used * width)) != 0)
            fail("packed array has nonzero padding bits");
        pos_ += len;
    }

    void
    str(std::string &s)
    {
        std::uint64_t len = 0;
        u64(len);
        need(len);
        s.assign(reinterpret_cast<const char *>(data_ + pos_),
                 std::size_t(len));
        pos_ += std::size_t(len);
    }

    template <class T>
    void
    blob(T &obj)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&obj, sizeof(T));
    }

    /**
     * A u64 that will be used as an element count: additionally bounded
     * by the bytes remaining, assuming each element costs at least
     * @p min_elem_bytes, so a mangled length field cannot trigger a
     * multi-gigabyte allocation before the next read fails.
     */
    void
    count(std::uint64_t &n, std::uint64_t min_elem_bytes)
    {
        u64(n);
        std::uint64_t limit = remaining() / (min_elem_bytes ? min_elem_bytes
                                                            : 1);
        if (n > limit) {
            fail("element count " + std::to_string(n) +
                 " exceeds remaining payload");
        }
    }

    /** Fail unless the snapshot holds @p configured (e.g. a geometry). */
    template <class T>
    void
    expectEq(T configured, const std::string &what)
    {
        static_assert(std::is_unsigned_v<T>);
        T got{};
        get(got, sizeof(T));
        if (got != configured) {
            fail(what + " mismatch: snapshot " + std::to_string(got) +
                 ", configured " + std::to_string(configured));
        }
    }

    /** A count-prefixed sequence, loaded into fresh elements via @p fn. */
    template <class Seq, class Fn>
    void
    seq(Seq &s, std::uint64_t min_elem_bytes, Fn &&fn)
    {
        std::uint64_t n = 0;
        count(n, min_elem_bytes);
        s.clear();
        s.resize(std::size_t(n));
        for (auto &elem : s)
            fn(elem);
    }

    /**
     * Enter a section (the tag must match and the framing must fit), run
     * @p fn, and leave it: the payload must be consumed exactly.
     */
    template <class Fn>
    void
    section(const char tag[4], Fn &&fn)
    {
        char got[5] = {};
        bytes(got, 4);
        if (std::memcmp(got, tag, 4) != 0) {
            fail(std::string("expected section '") + std::string(tag, 4) +
                 "', found '" + got + "'");
        }
        std::uint64_t len = 0;
        u64(len);
        if (len > remaining())
            fail(std::string("section '") + std::string(tag, 4) +
                 "' length " + std::to_string(len) + " overruns payload");
        sectionEnds_.push_back(pos_ + std::size_t(len));
        fn();
        std::size_t end = sectionEnds_.back();
        sectionEnds_.pop_back();
        if (pos_ != end) {
            fail("section payload size mismatch (at " +
                 std::to_string(pos_) + ", expected " +
                 std::to_string(end) + ")");
        }
    }

    std::size_t
    remaining() const
    {
        std::size_t end = sectionEnds_.empty() ? size_
                                               : sectionEnds_.back();
        return end - pos_;
    }

    bool atEnd() const { return pos_ == size_; }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw SnapshotError("snapshot: " + what + " (offset " +
                            std::to_string(pos_) + ")");
    }

  private:
    template <class T>
    void
    get(T &v, unsigned len)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        need(len);
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < len; ++i)
            bits |= std::uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += len;
        v = T(bits);
    }

    /**
     * Decode one varint; @p Checked bounds-checks each byte, otherwise
     * the caller guarantees kMaxVarintBytes remain. Over-long encodings
     * fail: a value above 64 bits, or a zero final byte after the first
     * (a minimal encoding never has one), so every accepted varint
     * re-saves to the same bytes.
     */
    template <bool Checked>
    std::uint64_t
    decodeVarint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            if constexpr (Checked)
                need(1);
            const std::uint8_t byte = data_[pos_++];
            // The tenth byte holds bit 63 alone.
            if (shift == 63 && byte > 1)
                fail("over-long varint (more than 64 bits)");
            v |= std::uint64_t(byte & 0x7F) << shift;
            if (byte < 0x80) {
                if (byte == 0 && shift != 0)
                    fail("over-long varint (zero final byte)");
                return v;
            }
        }
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    void
    need(std::uint64_t len) const
    {
        if (len > remaining())
            fail("truncated: need " + std::to_string(len) + " bytes, " +
                 std::to_string(remaining()) + " remain");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> sectionEnds_;
};

/**
 * Run @p obj's io visitor on @p ar. Saving always hands the visitor a
 * const object, so a save cannot modify the machine it observes.
 */
template <class T, class Ar>
void
visit(T &obj, Ar &ar)
{
    using U = std::remove_const_t<T>;
    static_assert(!(Ar::kLoading && std::is_const_v<T>),
                  "loading into a const object");
    if constexpr (Ar::kLoading)
        U::io(obj, ar);
    else
        U::io(std::as_const(obj), ar);
}

/**
 * The way records of a set-associative table (format 2, DESIGN.md
 * §11.2): one varint per way of @p keys, which runs set by set with
 * @p ways ways each. A way holding @p empty is 0; any other is 1 + its
 * key shifted right by @p drop bits, the top @p set_bits of which are
 * the set index (restored from the way's position) and the rest zero.
 * A restored key must fit in @p key_bits bits (key_bits - drop < 64),
 * and no set may hold one key in two ways.
 *
 * @return the indices of the resident ways, in order: the per-way
 *         fields that follow are written for these only.
 */
template <class Ar, class Keys>
std::vector<std::uint32_t>
wayKeys(Ar &ar, Keys &keys, std::uint64_t empty, unsigned ways,
        unsigned drop, unsigned set_bits, unsigned key_bits,
        const std::string &what)
{
    std::vector<std::uint32_t> resident;
    if constexpr (Ar::kLoading) {
        static_assert(sizeof(keys[0]) == sizeof(std::uint64_t));
        ar.varints(keys.size(), keys.data());
        // Empty and resident ways interleave at random in a warm table,
        // so the loop selects instead of branching on each way.
        resident.resize(keys.size());
        const unsigned set_at = drop - set_bits;
        const unsigned tag_bits = key_bits - drop;
        std::size_t n = 0;
        std::uint64_t overflow = 0;
        std::uint64_t set = 0;
        unsigned way = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::uint64_t v = keys[i];
            const std::uint64_t tag = v - 1;
            overflow |= v != 0 ? tag >> tag_bits : 0;
            keys[i] = v != 0 ? tag << drop | set << set_at : empty;
            resident[n] = std::uint32_t(i);
            n += v != 0;
            if (++way == ways) {
                way = 0;
                ++set;
            }
        }
        resident.resize(n);
        if (overflow != 0) {
            ar.fail(what + " holds a tag that overflows its key (" +
                    std::to_string(key_bits) + " bits)");
        }
        // No run puts one key in two ways of a set (a dirty line held
        // twice would be written back twice).
        bool repeat = false;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            for (std::size_t j = i - i % ways; j < i; ++j)
                repeat |= keys[i] != empty && keys[i] == keys[j];
        }
        if (repeat)
            ar.fail(what + " holds one key in two ways of a set");
    } else {
        resident.reserve(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] != empty)
                resident.push_back(std::uint32_t(i));
        }
        ar.varints(keys.size(), [&](std::size_t i) {
            return keys[i] == empty ? 0 : (keys[i] >> drop) + 1;
        });
    }
    return resident;
}

/**
 * The LRU stamps of the @p resident ways as varints of `counter -
 * stamp`: a recently used way's age is small where its stamp is a large
 * count, and an age is never above the counter, which loading checks.
 */
template <class Ar, class Stamps>
void
stampAges(Ar &ar, const std::vector<std::uint32_t> &resident,
          Stamps &stamps, std::uint64_t counter, const std::string &what)
{
    if constexpr (Ar::kLoading) {
        std::vector<std::uint64_t> ages(resident.size());
        ar.varints(ages.size(), ages.data());
        for (std::size_t k = 0; k < ages.size(); ++k) {
            if (ages[k] > counter) {
                ar.fail(what + " LRU stamp age " + std::to_string(ages[k]) +
                        " exceeds the counter " + std::to_string(counter));
            }
            stamps[resident[k]] = counter - ages[k];
        }
    } else {
        ar.varints(resident.size(), [&](std::size_t k) {
            return counter - stamps[resident[k]];
        });
    }
}

/**
 * Explicitly instantiate an out-of-line `T::io` for both archives; place
 * after the template's definition in T's source file.
 */
#define OVL_SNAPSHOT_IO(T)                                                   \
    template void T::io(const T &, ::ovl::snapshot::Writer &);                \
    template void T::io(T &, ::ovl::snapshot::Reader &)

/**
 * On-disk envelope: magic + format version + payload length, then the
 * Writer byte stream. readSnapshotFile validates all three before
 * handing the payload back.
 */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &payload);

/** Load + validate a snapshot file; throws SnapshotError on any issue. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

} // namespace ovl::snapshot

#endif // OVERLAYSIM_SIM_SNAPSHOT_HH
