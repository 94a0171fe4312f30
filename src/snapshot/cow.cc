#include "snapshot/cow.hh"

#include <cstring>

namespace nvmr
{

namespace
{

// Const and constant-initialized, so it lands in read-only memory: a
// write that skipped ensureOwned() faults instead of corrupting every
// store's view of untouched NVM.
const CowStore::Page kZeroPage{};

} // namespace

CowStore::CowStore(size_t bytes) : size(bytes)
{
    static_assert(kPageBytes % kWordBytes == 0,
                  "page size must be a multiple of the word size");
    size_t npages = (bytes + kPageBytes - 1) / kPageBytes;
    // Every page starts as the shared zero page, not owned: the first
    // write clones it exactly like a snapshot page. The aliasing
    // constructor over an empty owner gives a non-null pointer with no
    // control block, so copies of it cost no allocation and no atomic
    // refcount traffic, however many stores and snapshots share it.
    std::shared_ptr<Page> zero(std::shared_ptr<Page>(),
                               const_cast<Page *>(&kZeroPage));
    pages.assign(npages, zero);
    owned.assign(npages, 0);
}

bool
CowStore::isZeroPage(size_t idx) const
{
    panic_if(idx >= pages.size(), "page index out of range");
    return pages[idx].get() == &kZeroPage;
}

void
CowStore::writeBytes(Addr addr, const uint8_t *src, size_t n)
{
    panic_if(addr + n > size, "COW store write out of range: ", addr);
    while (n > 0) {
        size_t idx = addr / kPageBytes;
        size_t off = addr % kPageBytes;
        size_t chunk = std::min(n, kPageBytes - off);
        ensureOwned(idx);
        std::memcpy(pages[idx]->data.data() + off, src, chunk);
        addr += chunk;
        src += chunk;
        n -= chunk;
    }
}

CowStore::PageTable
CowStore::snapshotPages()
{
    // Every page becomes shared: both the snapshot and this store now
    // reference it read-only, and whichever side writes first clones.
    // (Snapshots are immutable, so only this store ever clones.)
    std::fill(owned.begin(), owned.end(), 0);
    return pages;
}

void
CowStore::adoptPages(const PageTable &table)
{
    panic_if(table.size() != pages.size(),
             "adopted page table has wrong geometry");
    pages = table;
    std::fill(owned.begin(), owned.end(), 0);
}

size_t
CowStore::ownedPages() const
{
    size_t n = 0;
    for (uint8_t o : owned)
        n += o;
    return n;
}

bool
samePageContents(const CowStore::PageTable &a,
                 const CowStore::PageTable &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i])
            continue;
        if (std::memcmp(a[i]->data.data(), b[i]->data.data(),
                        CowStore::kPageBytes) != 0)
            return false;
    }
    return true;
}

} // namespace nvmr
