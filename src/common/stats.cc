#include "common/stats.hh"

#include "common/log.hh"

namespace nvmr
{

void
StatGroup::add(StatBase *stat)
{
    panic_if(!stat, "null stat registered");
    auto [it, inserted] = byName.emplace(stat->name(), stat);
    panic_if(!inserted, "duplicate stat name: ", stat->name());
    order.push_back(stat);
}

bool
StatGroup::has(const std::string &stat_name) const
{
    return byName.find(stat_name) != byName.end();
}

const StatBase *
StatGroup::findStat(const std::string &stat_name) const
{
    auto it = byName.find(stat_name);
    return it == byName.end() ? nullptr : it->second;
}

const Scalar *
StatGroup::find(const std::string &stat_name) const
{
    const StatBase *s = findStat(stat_name);
    if (!s || s->kind() != StatKind::Scalar)
        return nullptr;
    return static_cast<const Scalar *>(s);
}

const Histogram *
StatGroup::findHistogram(const std::string &stat_name) const
{
    const StatBase *s = findStat(stat_name);
    if (!s || s->kind() != StatKind::Histogram)
        return nullptr;
    return static_cast<const Histogram *>(s);
}

double
StatGroup::value(const std::string &stat_name) const
{
    const Scalar *s = find(stat_name);
    panic_if(!s, "no scalar stat named '", stat_name,
             "' is registered");
    return s->value();
}

double
StatGroup::get(const std::string &stat_name) const
{
    const Scalar *s = find(stat_name);
    return s ? s->value() : 0.0;
}

void
StatGroup::resetAll()
{
    for (StatBase *s : order)
        s->reset();
}

} // namespace nvmr
