#include "check/repro.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/names.hh"

namespace nvmr
{

namespace
{

constexpr const char *kMagic = "# nvmr-repro-v1";

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

constexpr KindName<InjectedBug> kBugNames[] = {
    {InjectedBug::None, "none"},
    {InjectedBug::FreeListLeak, "freelist_leak"},
    {InjectedBug::RenameAlias, "rename_alias"},
};

} // namespace

const char *
injectedBugName(InjectedBug bug)
{
    return nameOf(kBugNames, bug);
}

bool
injectedBugFromName(const std::string &name, InjectedBug &out)
{
    return kindOf(kBugNames, name, out);
}

std::string
formatRepro(const CheckCase &c)
{
    std::ostringstream os;
    os << kMagic << "\n";
    os << "name " << c.name << "\n";
    os << "arch " << archKindName(c.arch) << "\n";
    os << "policy " << policyKindName(c.policy) << "\n";
    os << "farads " << fmtDouble(c.farads) << "\n";
    os << "byte_lbf " << (c.byteLbf ? 1 : 0) << "\n";
    if (c.injectedBug != InjectedBug::None)
        os << "injected_bug " << injectedBugName(c.injectedBug)
           << "\n";
    os << "trace_kind " << traceKindName(c.traceKind) << "\n";
    os << "trace_seed " << c.traceSeed << "\n";
    os << "trace_mean_mw " << fmtDouble(c.traceMeanMw) << "\n";
    os << "max_cycles " << c.maxCycles << "\n";
    os << "program_seed " << c.programSeed << "\n";
    os << "faults_enabled " << (c.faults.enabled ? 1 : 0) << "\n";
    if (c.faults.crashAtPersist)
        os << "crash_at_persist " << c.faults.crashAtPersist << "\n";
    if (c.faults.crashAtCycle)
        os << "crash_at_cycle " << c.faults.crashAtCycle << "\n";
    if (!c.faults.crashPersists.empty()) {
        os << "crash_persists";
        for (uint64_t p : c.faults.crashPersists)
            os << " " << p;
        os << "\n";
    }
    if (!c.faults.crashCycles.empty()) {
        os << "crash_cycles";
        for (uint64_t p : c.faults.crashCycles)
            os << " " << p;
        os << "\n";
    }
    if (c.faults.transientBitErrorRate != 0.0)
        os << "bit_error_rate "
           << fmtDouble(c.faults.transientBitErrorRate) << "\n";
    if (c.faults.doubleBitFraction != 0.05)
        os << "double_bit_fraction "
           << fmtDouble(c.faults.doubleBitFraction) << "\n";
    if (c.faults.maxReadRetries != 2)
        os << "max_read_retries " << c.faults.maxReadRetries << "\n";
    if (c.faults.seed != 1)
        os << "fault_seed " << c.faults.seed << "\n";

    // Count program lines exactly; a trailing unterminated line still
    // counts.
    size_t nlines = 0;
    for (size_t i = 0; i < c.programText.size(); ++i)
        if (c.programText[i] == '\n')
            ++nlines;
    if (!c.programText.empty() && c.programText.back() != '\n')
        ++nlines;
    os << "program " << nlines << "\n";
    os << c.programText;
    if (!c.programText.empty() && c.programText.back() != '\n')
        os << "\n";
    return os.str();
}

bool
parseRepro(std::istream &is, CheckCase &out, std::string &error)
{
    out = CheckCase{};
    std::string line;
    if (!std::getline(is, line) || line != kMagic) {
        error = "missing '# nvmr-repro-v1' header";
        return false;
    }
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        auto bad = [&](const std::string &why) {
            error = "line '" + line + "': " + why;
            return false;
        };
        if (key == "name") {
            ls >> out.name;
        } else if (key == "arch") {
            std::string v;
            ls >> v;
            if (!archKindFromName(v, out.arch))
                return bad("unknown arch");
        } else if (key == "policy") {
            std::string v;
            ls >> v;
            if (!policyKindFromName(v, out.policy))
                return bad("unknown policy");
        } else if (key == "farads") {
            ls >> out.farads;
        } else if (key == "byte_lbf") {
            int v = 0;
            ls >> v;
            out.byteLbf = v != 0;
        } else if (key == "injected_bug") {
            std::string v;
            ls >> v;
            if (!injectedBugFromName(v, out.injectedBug))
                return bad("unknown injected bug");
        } else if (key == "trace_kind") {
            std::string v;
            ls >> v;
            if (!traceKindFromName(v, out.traceKind))
                return bad("unknown trace kind");
        } else if (key == "trace_seed") {
            ls >> out.traceSeed;
        } else if (key == "trace_mean_mw") {
            ls >> out.traceMeanMw;
        } else if (key == "max_cycles") {
            ls >> out.maxCycles;
        } else if (key == "program_seed") {
            ls >> out.programSeed;
        } else if (key == "faults_enabled") {
            int v = 0;
            ls >> v;
            out.faults.enabled = v != 0;
        } else if (key == "crash_at_persist") {
            ls >> out.faults.crashAtPersist;
        } else if (key == "crash_at_cycle") {
            ls >> out.faults.crashAtCycle;
        } else if (key == "crash_persists") {
            uint64_t v;
            while (ls >> v)
                out.faults.crashPersists.push_back(v);
            ls.clear();
        } else if (key == "crash_cycles") {
            uint64_t v;
            while (ls >> v)
                out.faults.crashCycles.push_back(v);
            ls.clear();
        } else if (key == "bit_error_rate") {
            ls >> out.faults.transientBitErrorRate;
        } else if (key == "double_bit_fraction") {
            ls >> out.faults.doubleBitFraction;
        } else if (key == "max_read_retries") {
            ls >> out.faults.maxReadRetries;
        } else if (key == "fault_seed") {
            ls >> out.faults.seed;
        } else if (key == "program") {
            size_t nlines = 0;
            ls >> nlines;
            std::ostringstream prog;
            for (size_t i = 0; i < nlines; ++i) {
                if (!std::getline(is, line)) {
                    error = "program truncated";
                    return false;
                }
                prog << line << "\n";
            }
            out.programText = prog.str();
            return true;
        } else {
            return bad("unknown key '" + key + "'");
        }
        if (ls.fail()) {
            return bad("bad value");
        }
    }
    error = "missing program section";
    return false;
}

bool
saveRepro(const std::string &path, const CheckCase &c)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << formatRepro(c);
    return static_cast<bool>(os);
}

bool
loadRepro(const std::string &path, CheckCase &out, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    return parseRepro(is, out, error);
}

} // namespace nvmr
