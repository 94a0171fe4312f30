#include "campaign/cellio.hh"

#include "common/bytes.hh"

namespace nvmr::campaign
{

namespace
{

void
putRun(ByteWriter &w, const RunResult &r)
{
    w.str(r.program);
    w.str(r.arch);
    w.str(r.policy);
    w.str(r.trace);
    w.boolean(r.completed);
    w.boolean(r.validated);
    w.boolean(r.validationChecked);
    w.u64(r.activeCycles);
    w.u64(r.totalCycles);
    w.u64(r.instructions);
    w.u32(static_cast<uint32_t>(r.energy.size()));
    for (NanoJoules e : r.energy)
        w.f64(e);
    w.f64(r.totalEnergyNj);
    w.u64(r.backups);
    w.u32(static_cast<uint32_t>(r.backupsByReason.size()));
    for (uint64_t b : r.backupsByReason)
        w.u64(b);
    w.u64(r.violations);
    w.u64(r.renames);
    w.u64(r.reclaims);
    w.u64(r.restores);
    w.u64(r.powerFailures);
    w.u64(r.nvmReads);
    w.u64(r.nvmWrites);
    w.u64(r.maxWear);
    w.u64(r.cacheHits);
    w.u64(r.cacheMisses);
    w.u64(r.tornBackups);
    w.u64(r.injectedCrashes);
    w.u64(r.eccCorrected);
    w.u64(r.eccUncorrectable);
}

bool
getRun(ByteReader &r, RunResult &out)
{
    out.program = r.str();
    out.arch = r.str();
    out.policy = r.str();
    out.trace = r.str();
    out.completed = r.boolean();
    out.validated = r.boolean();
    out.validationChecked = r.boolean();
    out.activeCycles = r.u64();
    out.totalCycles = r.u64();
    out.instructions = r.u64();
    if (r.u32() != out.energy.size())
        return false;
    for (auto &e : out.energy)
        e = r.f64();
    out.totalEnergyNj = r.f64();
    out.backups = r.u64();
    if (r.u32() != out.backupsByReason.size())
        return false;
    for (auto &b : out.backupsByReason)
        b = r.u64();
    out.violations = r.u64();
    out.renames = r.u64();
    out.reclaims = r.u64();
    out.restores = r.u64();
    out.powerFailures = r.u64();
    out.nvmReads = r.u64();
    out.nvmWrites = r.u64();
    out.maxWear = r.u64();
    out.cacheHits = r.u64();
    out.cacheMisses = r.u64();
    out.tornBackups = r.u64();
    out.injectedCrashes = r.u64();
    out.eccCorrected = r.u64();
    out.eccUncorrectable = r.u64();
    return r.ok();
}

/** The end of a decoder: `decoded` moves to `out` when its fields
 *  were `good`, nothing failed and every byte was read; otherwise
 *  `out` is left empty, vectors at capacity 0, so nothing a corrupt
 *  count sized outlives the call. */
template <typename T>
bool
settle(const ByteReader &r, T &decoded, T &out, bool good = true)
{
    good = good && r.ok() && r.atEnd();
    out = good ? std::move(decoded) : T{};
    return good;
}

} // namespace

std::string
encodeRunResult(const RunResult &r)
{
    ByteWriter w;
    putRun(w, r);
    return w.take();
}

bool
decodeRunResult(const std::string &bytes, RunResult &r)
{
    ByteReader br(bytes);
    return getRun(br, r) && br.atEnd();
}

std::string
encodeRunResults(const std::vector<RunResult> &runs)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(runs.size()));
    for (const RunResult &r : runs)
        putRun(w, r);
    return w.take();
}

bool
decodeRunResults(const std::string &bytes,
                 std::vector<RunResult> &runs)
{
    // The smallest encoding of one run (empty strings) is the element
    // size its count is checked against.
    static const size_t kMinRunBytes = encodeRunResult({}).size();
    ByteReader r(bytes);
    std::vector<RunResult> out(r.count(r.u32(), kMinRunBytes));
    bool good = true;
    for (RunResult &run : out)
        good = good && getRun(r, run);
    return settle(r, out, runs, good);
}

std::string
encodeSamples(const std::vector<SpendthriftSample> &s)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(s.size()));
    for (const SpendthriftSample &x : s) {
        w.f32(x.harvestMw);
        w.f32(x.capVolts);
        w.f32(x.label);
    }
    return w.take();
}

bool
decodeSamples(const std::string &bytes,
              std::vector<SpendthriftSample> &s)
{
    ByteReader r(bytes);
    std::vector<SpendthriftSample> out(r.count(r.u32(), 3 * 4));
    for (SpendthriftSample &x : out) {
        x.harvestMw = r.f32();
        x.capVolts = r.f32();
        x.label = r.f32();
    }
    return settle(r, out, s);
}

std::string
encodeCensus(const CensusResult &c)
{
    ByteWriter w;
    w.boolean(c.completed);
    w.u64(c.totalCycles);
    w.u64(c.persistPoints);
    w.u32(static_cast<uint32_t>(c.windows.size()));
    for (const FaultInjector::BackupWindow &win : c.windows) {
        w.u64(win.firstPersist);
        w.u64(win.lastPersist);
        w.u64(win.commitPersist);
    }
    w.u32(static_cast<uint32_t>(c.commitCycles.size()));
    for (uint64_t cc : c.commitCycles)
        w.u64(cc);
    return w.take();
}

bool
decodeCensus(const std::string &bytes, CensusResult &c)
{
    ByteReader r(bytes);
    CensusResult out;
    out.completed = r.boolean();
    out.totalCycles = r.u64();
    out.persistPoints = r.u64();
    out.windows.resize(r.count(r.u32(), 3 * 8));
    for (FaultInjector::BackupWindow &win : out.windows) {
        win.firstPersist = r.u64();
        win.lastPersist = r.u64();
        win.commitPersist = r.u64();
    }
    out.commitCycles.resize(r.count(r.u32(), 8));
    for (uint64_t &cc : out.commitCycles)
        cc = r.u64();
    return settle(r, out, c);
}

} // namespace nvmr::campaign
