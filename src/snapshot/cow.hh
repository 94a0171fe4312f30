/**
 * @file
 * Copy-on-write page store backing the NVM byte array. Snapshots and
 * forks share read-only pages through shared_ptr refcounts (the
 * A/B-active idiom from pmembench's InplaceCow, generalized to N
 * sharers); the first write to a shared page clones it. A fresh store
 * points every page at one static read-only zero page, so memory cost
 * is O(written pages) from construction on: construction, snapshot
 * and fork are O(pages) pointer copies with no per-page allocation,
 * and each store clones only the pages it dirties.
 */

#ifndef NVMR_SNAPSHOT_COW_HH
#define NVMR_SNAPSHOT_COW_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace nvmr
{

/**
 * A flat byte space carved into fixed-size pages. All accessors are
 * bounds-checked; word accessors additionally require alignment, which
 * guarantees a word never straddles a page (kPageBytes is a multiple
 * of the word size).
 */
class CowStore
{
  public:
    static constexpr size_t kPageBytes = 4096;

    struct Page
    {
        std::array<uint8_t, kPageBytes> data;
    };

    /** Shareable immutable view of the whole store at one instant. */
    using PageTable = std::vector<std::shared_ptr<Page>>;

    explicit CowStore(size_t bytes);

    size_t sizeBytes() const { return size; }
    size_t pageCount() const { return pages.size(); }

    uint8_t
    read8(Addr addr) const
    {
        panic_if(addr >= size, "COW store read out of range: ", addr);
        return pages[addr / kPageBytes]->data[addr % kPageBytes];
    }

    void
    write8(Addr addr, uint8_t value)
    {
        panic_if(addr >= size, "COW store write out of range: ", addr);
        size_t idx = addr / kPageBytes;
        ensureOwned(idx);
        pages[idx]->data[addr % kPageBytes] = value;
    }

    /** Aligned little-endian word read (never crosses a page). */
    Word
    readWord(Addr addr) const
    {
        checkWord(addr);
        const uint8_t *p =
            &pages[addr / kPageBytes]->data[addr % kPageBytes];
        Word w = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            w |= static_cast<Word>(p[i]) << (8 * i);
        return w;
    }

    /** Aligned little-endian word write (never crosses a page). */
    void
    writeWord(Addr addr, Word value)
    {
        checkWord(addr);
        size_t idx = addr / kPageBytes;
        ensureOwned(idx);
        uint8_t *p = &pages[idx]->data[addr % kPageBytes];
        for (unsigned i = 0; i < kWordBytes; ++i)
            p[i] = static_cast<uint8_t>(value >> (8 * i));
    }

    /** Bulk byte copy into the store (may span pages). */
    void writeBytes(Addr addr, const uint8_t *src, size_t n);

    /**
     * Capture the current contents as a shareable page table and mark
     * every page copy-on-write: the next write to any page through
     * this store clones it first, so the returned table is immutable.
     */
    PageTable snapshotPages();

    /**
     * Replace the contents with a previously captured table. Pages
     * stay shared with the snapshot (and any other adopters) until
     * written.
     */
    void adoptPages(const PageTable &table);

    /** The current page table, without marking anything
     *  copy-on-write: valid until the next write through this store
     *  (compare final images with samePageContents). */
    const PageTable &pageTable() const { return pages; }

    /** Pages this store holds exclusively (diagnostics/tests). A
     *  fresh store owns none: every page is the shared zero page. */
    size_t ownedPages() const;

    /** Refcount of one page (tests verify sharing/release). The zero
     *  page has no control block, so its count is always 0. */
    long pageUseCount(size_t idx) const
    {
        panic_if(idx >= pages.size(), "page index out of range");
        return pages[idx].use_count();
    }

    /** True when page idx is still the shared zero page. */
    bool isZeroPage(size_t idx) const;

  private:
    void
    checkWord(Addr addr) const
    {
        panic_if(addr % kWordBytes != 0,
                 "misaligned COW store word access: ", addr);
        panic_if(addr + kWordBytes > size,
                 "COW store access out of range: ", addr);
    }

    void
    ensureOwned(size_t idx)
    {
        if (!owned[idx]) {
            pages[idx] = std::make_shared<Page>(*pages[idx]);
            owned[idx] = 1;
        }
    }

    size_t size;
    PageTable pages;
    std::vector<uint8_t> owned; // 1 = exclusively ours, safe to mutate
};

/**
 * Byte equality of two page tables of the same geometry. Pointer-equal
 * pages (shared by a fork, or both the zero page) count as equal
 * without being read; the rest compare with memcmp.
 */
bool samePageContents(const CowStore::PageTable &a,
                      const CowStore::PageTable &b);

} // namespace nvmr

#endif // NVMR_SNAPSHOT_COW_HH
