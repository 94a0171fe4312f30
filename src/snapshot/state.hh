/**
 * @file
 * Flat byte-blob serialization for machine snapshots. Every component
 * that participates in fork/restore appends its dynamic state to a
 * StateWriter at capture and consumes it back from a StateReader at
 * restore, in the same order. The format is process-private (never
 * written to disk), so there is no versioning or endian handling --
 * just bounds-checked, trivially-copyable chunks.
 */

#ifndef NVMR_SNAPSHOT_STATE_HH
#define NVMR_SNAPSHOT_STATE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace nvmr
{

/** Append-only serializer backing one MachineSnapshot blob. */
class StateWriter
{
  public:
    void
    bytes(const void *src, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(src);
        buf.insert(buf.end(), p, p + n);
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot pod() needs a trivially copyable type");
        bytes(&v, sizeof(T));
    }

    void u8(uint8_t v) { pod(v); }
    void u32(uint32_t v) { pod(v); }
    void u64(uint64_t v) { pod(v); }
    void f64(double v) { pod(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Vector of trivially copyable elements, length-prefixed. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot vec() needs trivially copyable elements");
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /** Append n bytes for the caller to fill in place (bulk
     *  writers: one resize instead of n small inserts). */
    uint8_t *
    extend(size_t n)
    {
        size_t at = buf.size();
        buf.resize(at + n);
        return buf.data() + at;
    }

    std::vector<uint8_t> take() { return std::move(buf); }

  private:
    std::vector<uint8_t> buf;
};

/** Bounds-checked reader over a StateWriter blob. */
class StateReader
{
  public:
    explicit StateReader(const std::vector<uint8_t> &blob)
        : cur(blob.data()), end(blob.data() + blob.size())
    {}

    void
    bytes(void *dst, size_t n)
    {
        std::memcpy(dst, consume(n), n);
    }

    /** Consume n bytes and return where they start (bulk readers;
     *  the pointer stays valid as long as the blob). */
    const uint8_t *
    consume(size_t n)
    {
        panic_if(remaining() < n, "snapshot blob underrun: need ", n,
                 " bytes, have ", remaining());
        const uint8_t *at = cur;
        cur += n;
        return at;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot pod() needs a trivially copyable type");
        T v;
        bytes(&v, sizeof(T));
        return v;
    }

    uint8_t u8() { return pod<uint8_t>(); }
    uint32_t u32() { return pod<uint32_t>(); }
    uint64_t u64() { return pod<uint64_t>(); }
    double f64() { return pod<double>(); }
    bool boolean() { return u8() != 0; }

    std::string
    str()
    {
        uint64_t n = u64();
        checkCount(n, 1);
        std::string s(n, '\0');
        if (n)
            bytes(s.data(), n);
        return s;
    }

    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot vec() needs trivially copyable elements");
        uint64_t n = u64();
        checkCount(n, sizeof(T));
        std::vector<T> v(n);
        if (n)
            bytes(v.data(), n * sizeof(T));
        return v;
    }

    bool exhausted() const { return cur == end; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return static_cast<size_t>(end - cur); }

    /**
     * Refuse a count field of n elements of elem_bytes each that the
     * rest of the blob cannot hold, before anything is allocated for
     * it (and without computing n * elem_bytes, which can overflow).
     */
    void
    checkCount(uint64_t n, size_t elem_bytes) const
    {
        panic_if(n > remaining() / elem_bytes,
                 "snapshot blob underrun: need ", n, " x ", elem_bytes,
                 " bytes, have ", remaining());
    }

  private:
    const uint8_t *cur;
    const uint8_t *end;
};

} // namespace nvmr

#endif // NVMR_SNAPSHOT_STATE_HH
