/**
 * @file
 * The one byte codec. Every binary format goes through a ByteWriter
 * and comes back through a ByteReader: campaign journal frames and
 * headers, cell payloads, service job records, NVTR trace files and
 * the process-private machine-snapshot blob.
 *
 * Fixed-width integers and floats are little-endian, a bool is one
 * byte (0 or 1) and strings carry a u32 length prefix, so each value
 * has exactly one encoding. pod<T>() and vec<T>() copy an object's
 * bytes as they lie in memory (vec behind a u64 element count): only
 * the snapshot blob, which never leaves the process, uses them.
 *
 * ByteReader never reads past its end and never throws. Every length
 * field goes through count(), which checks it against the bytes left
 * before the caller allocates anything. The first failure is latched
 * with its message ("need N x M bytes, have K", or a bool byte that
 * is neither 0 nor 1); after it every read returns zeros and every
 * count() returns 0, so a decoder runs to its end and checks
 * ok() && atEnd() once.
 */

#ifndef NVMR_COMMON_BYTES_HH
#define NVMR_COMMON_BYTES_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace nvmr
{

static_assert(std::endian::native == std::endian::little,
              "the byte codec writes fixed-width fields as they lie in "
              "memory, which is little-endian only on such a host");

class ByteWriter
{
  public:
    void u8(uint8_t v) { out.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u32(uint32_t v) { pod(v); }
    void u64(uint64_t v) { pod(v); }
    void f32(float v) { pod(v); }
    void f64(double v) { pod(v); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out += s;
    }

    void
    bytes(const void *src, size_t n)
    {
        if (n)
            out.append(static_cast<const char *>(src), n);
    }

    /** Append n bytes for the caller to fill in place (bulk writers:
     *  one resize instead of n small appends). */
    uint8_t *
    extend(size_t n)
    {
        size_t at = out.size();
        out.resize(at + n);
        return reinterpret_cast<uint8_t *>(out.data() + at);
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() needs a trivially copyable type");
        bytes(&v, sizeof(T));
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vec() needs trivially copyable elements");
        u64(v.size());
        bytes(v.data(), v.size() * sizeof(T));
    }

    size_t size() const { return out.size(); }
    const std::string &data() const { return out; }
    std::string take() { return std::move(out); }

  private:
    std::string out;
};

class ByteReader
{
  public:
    ByteReader(const void *data, size_t n)
        : cur(static_cast<const uint8_t *>(data)), end(cur + n)
    {}
    explicit ByteReader(const std::string &s)
        : ByteReader(s.data(), s.size())
    {}

    uint8_t u8() { return pod<uint8_t>(); }
    uint32_t u32() { return pod<uint32_t>(); }
    uint64_t u64() { return pod<uint64_t>(); }
    float f32() { return pod<float>(); }
    double f64() { return pod<double>(); }

    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1 && ok())
            err = "bool byte " + std::to_string(v) + " is not 0 or 1";
        return v == 1;
    }

    std::string
    str()
    {
        std::string s(count(u32(), 1), '\0');
        bytes(s.data(), s.size());
        return s;
    }

    /** Copy the next n bytes to dst (zeros once failed). */
    void
    bytes(void *dst, size_t n)
    {
        const uint8_t *src = consume(n);
        if (!n)
            return;
        if (src)
            std::memcpy(dst, src, n);
        else
            std::memset(dst, 0, n);
    }

    /** Consume n bytes and return where they start (bulk readers; the
     *  pointer lives as long as the buffer), or nullptr once failed. */
    const uint8_t *
    consume(size_t n)
    {
        if (!ok() || remaining() < n) {
            failNeed(std::to_string(n));
            return nullptr;
        }
        const uint8_t *at = cur;
        cur += n;
        return at;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() needs a trivially copyable type");
        T v;
        bytes(&v, sizeof(T));
        return v;
    }

    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vec() needs trivially copyable elements");
        std::vector<T> v(count(u64(), sizeof(T)));
        bytes(v.data(), v.size() * sizeof(T));
        return v;
    }

    /**
     * A length field of n elements of elem_bytes each: n when the
     * bytes left can hold them, else 0 and a latched failure -- before
     * anything is allocated, and without computing n * elem_bytes,
     * which can overflow.
     */
    uint64_t
    count(uint64_t n, size_t elem_bytes)
    {
        if (ok() && n <= remaining() / elem_bytes)
            return n;
        failNeed(std::to_string(n) + " x " +
                 std::to_string(elem_bytes));
        return 0;
    }

    bool ok() const { return err.empty(); }
    bool atEnd() const { return cur == end; }
    size_t remaining() const { return static_cast<size_t>(end - cur); }

    /** The first failure ("need N x M bytes, have K"); empty while
     *  ok(). */
    const std::string &error() const { return err; }

  private:
    void
    failNeed(const std::string &need)
    {
        if (ok())
            err = "need " + need + " bytes, have " +
                  std::to_string(remaining());
    }

    const uint8_t *cur;
    const uint8_t *end;
    std::string err;
};

} // namespace nvmr

#endif // NVMR_COMMON_BYTES_HH
