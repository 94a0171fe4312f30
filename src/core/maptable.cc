#include "core/maptable.hh"

#include "common/log.hh"
#include "fault/fault.hh"

namespace nvmr
{

MapTable::MapTable(uint32_t capacity, const TechParams &params,
                   EnergyMeter &mtr)
    : cap(capacity), tech(params), meter(mtr)
{
    fatal_if(capacity == 0, "map table needs at least one entry");
    map.reserve(capacity);
}

std::optional<Addr>
MapTable::lookup(Addr tag)
{
    // An entry read: tag + mapping words.
    meter.addCycles(2 * tech.flashReadCycles);
    meter.consumeOverhead(2 * tech.flashReadWordNj);
    auto it = map.find(tag);
    if (it == map.end())
        return std::nullopt;
    it->second.lastUse = ++tick;
    return it->second.mapping;
}

void
MapTable::set(Addr tag, Addr mapping)
{
    // One persist boundary for the whole entry: the valid bit flips
    // last, so a crash here leaves the previous entry readable.
    if (faults && faults->enabled())
        faults->persistPoint();
    if (txnActive)
        recordUndo(tag);
    meter.addCycles(2 * tech.flashWriteCycles);
    meter.consumeOverhead(2 * tech.flashWriteWordNj);
    auto it = map.find(tag);
    if (it != map.end()) {
        it->second.mapping = mapping;
        it->second.lastUse = ++tick;
        return;
    }
    panic_if(map.size() >= cap, "map table overflow");
    map.emplace(tag, Entry{mapping, ++tick});
}

void
MapTable::erase(Addr tag)
{
    if (faults && faults->enabled())
        faults->persistPoint();
    if (txnActive)
        recordUndo(tag);
    meter.addCycles(tech.flashWriteCycles);
    meter.consumeOverhead(tech.flashWriteWordNj);
    map.erase(tag);
}

void
MapTable::recordUndo(Addr tag)
{
    if (undoLog.count(tag))
        return; // first touch wins
    auto it = map.find(tag);
    if (it == map.end())
        undoLog.emplace(tag, std::nullopt);
    else
        undoLog.emplace(tag, it->second);
}

void
MapTable::beginTxn()
{
    txnActive = true;
    undoLog.clear();
}

void
MapTable::commitTxn()
{
    txnActive = false;
    undoLog.clear();
}

void
MapTable::rollbackTxn()
{
    for (const auto &[tag, prior] : undoLog) {
        if (prior)
            map[tag] = *prior;
        else
            map.erase(tag);
    }
    undoLog.clear();
    txnActive = false;
}

bool
MapTable::hasRoomFor(Addr tag) const
{
    return map.size() < cap || map.count(tag);
}

std::optional<std::pair<Addr, Addr>>
MapTable::lruEntry() const
{
    if (map.empty())
        return std::nullopt;
    auto lru = map.begin();
    for (auto it = map.begin(); it != map.end(); ++it)
        if (it->second.lastUse < lru->second.lastUse)
            lru = it;
    return std::make_pair(lru->first, lru->second.mapping);
}

std::optional<Addr>
MapTable::peek(Addr tag) const
{
    auto it = map.find(tag);
    if (it == map.end())
        return std::nullopt;
    return it->second.mapping;
}

} // namespace nvmr
