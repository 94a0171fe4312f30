/**
 * @file
 * Enum <-> name tables. Each named enum keeps one table of
 * {kind, name} pairs, in the order "valid: ..." lists print them;
 * its name, its name parser and the list in every error message
 * read that one table, so the three cannot drift apart.
 */

#ifndef NVMR_COMMON_NAMES_HH
#define NVMR_COMMON_NAMES_HH

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>

namespace nvmr
{

template <typename Kind>
struct KindName
{
    Kind kind;
    const char *name;
};

template <typename Kind, size_t N>
const char *
nameOf(const KindName<Kind> (&table)[N], Kind kind)
{
    for (const KindName<Kind> &e : table)
        if (e.kind == kind)
            return e.name;
    return "<bad>";
}

/** False (and `out` untouched) on an unknown name. */
template <typename Kind, size_t N>
bool
kindOf(const KindName<Kind> (&table)[N], const std::string &name,
       Kind &out)
{
    for (const KindName<Kind> &e : table)
        if (name == e.name) {
            out = e.kind;
            return true;
        }
    return false;
}

/** "a, b, c": every name in the table except `except`. */
template <typename Kind, size_t N>
std::string
namesOf(const KindName<Kind> (&table)[N],
        std::initializer_list<Kind> except = {})
{
    std::string out;
    for (const KindName<Kind> &e : table) {
        if (std::find(except.begin(), except.end(), e.kind) !=
            except.end())
            continue;
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

} // namespace nvmr

#endif // NVMR_COMMON_NAMES_HH
