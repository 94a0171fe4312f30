#include "obs/manifest.hh"

#include <fstream>

#include "common/log.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "power/energy.hh"

namespace nvmr
{

void
ManifestWriter::setConfig(const SystemConfig &cfg)
{
    JsonWriter w;
    w.beginObject();
    w.key("cache");
    w.beginObject();
    w.kv("size_bytes", cfg.cache.sizeBytes);
    w.kv("ways", cfg.cache.ways);
    w.kv("block_bytes", cfg.cache.blockBytes);
    w.endObject();
    w.kv("gbf_bits", cfg.gbfBits);
    w.kv("gbf_hashes", cfg.gbfHashes);
    w.kv("mtcache_entries", cfg.mtCacheEntries);
    w.kv("mtcache_ways", cfg.mtCacheWays);
    w.kv("maptable_entries", cfg.mapTableEntries);
    w.kv("freelist_entries", cfg.effectiveFreeListEntries());
    w.kv("reclaim_enabled", cfg.reclaimEnabled);
    w.kv("reclaim_batch", cfg.effectiveReclaimBatch());
    w.kv("model_backup_atomicity", cfg.modelBackupAtomicity);
    w.kv("strict_atomic", cfg.strictAtomic);
    w.kv("nvm_bytes", cfg.nvmBytes);
    w.kv("capacitor_farads", cfg.capacitorFarads);
    w.kv("v_max", cfg.vMax);
    w.kv("v_on", cfg.vOn);
    w.kv("v_off", cfg.vOff);
    w.kv("oop_buffer_entries", cfg.oopBufferEntries);
    w.kv("oop_region_entries", cfg.oopRegionEntries);
    w.kv("rf_buffer_entries", cfg.rfBufferEntries);
    w.kv("wf_buffer_entries", cfg.wfBufferEntries);
    w.endObject();
    configJson = w.str();
}

std::string
ManifestWriter::runJson(const RunResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.kv("program", r.program);
    w.kv("arch", r.arch);
    w.kv("policy", r.policy);
    w.kv("trace", r.trace);
    w.kv("completed", r.completed);
    w.kv("validated", r.validated);
    w.kv("validation_checked", r.validationChecked);
    w.kv("active_cycles", r.activeCycles);
    w.kv("total_cycles", r.totalCycles);
    w.kv("instructions", r.instructions);
    w.kv("total_energy_nj", r.totalEnergyNj);
    w.key("energy_nj");
    w.beginObject();
    for (size_t i = 0; i < kNumECats; ++i)
        w.kv(ecatName(static_cast<ECat>(i)), r.energy[i]);
    w.endObject();
    w.kv("backups", r.backups);
    w.key("backups_by_reason");
    w.beginObject();
    for (size_t i = 0; i < kNumBackupReasons; ++i) {
        if (r.backupsByReason[i] == 0)
            continue;
        w.kv(backupReasonName(static_cast<BackupReason>(i)),
             r.backupsByReason[i]);
    }
    w.endObject();
    w.kv("violations", r.violations);
    w.kv("renames", r.renames);
    w.kv("reclaims", r.reclaims);
    w.kv("restores", r.restores);
    w.kv("power_failures", r.powerFailures);
    w.kv("nvm_reads", r.nvmReads);
    w.kv("nvm_writes", r.nvmWrites);
    w.kv("max_wear", r.maxWear);
    w.kv("cache_hits", r.cacheHits);
    w.kv("cache_misses", r.cacheMisses);
    w.kv("torn_backups", r.tornBackups);
    w.kv("injected_crashes", r.injectedCrashes);
    w.kv("ecc_corrected", r.eccCorrected);
    w.kv("ecc_uncorrectable", r.eccUncorrectable);
    w.endObject();
    return w.str();
}

std::string
ManifestWriter::statJson(const StatBase &stat)
{
    JsonWriter w;
    w.beginObject();
    w.kv("name", stat.name());
    w.kv("desc", stat.desc());
    switch (stat.kind()) {
      case StatKind::Scalar: {
        const auto &s = static_cast<const Scalar &>(stat);
        w.kv("kind", "scalar");
        w.kv("value", s.value());
        break;
      }
      case StatKind::Histogram: {
        const auto &h = static_cast<const Histogram &>(stat);
        w.kv("kind", "histogram");
        w.kv("count", h.count());
        w.kv("sum", h.sum());
        w.kv("min", h.min());
        w.kv("max", h.max());
        w.kv("mean", h.mean());
        w.kv("p50", h.percentile(0.50));
        w.kv("p99", h.percentile(0.99));
        // Buckets as [low, high, count] triples; empty ones omitted.
        w.key("buckets");
        w.beginArray();
        for (unsigned b = 0; b < h.numBuckets(); ++b) {
            if (!h.bucketCount(b))
                continue;
            w.beginArray();
            w.value(Histogram::bucketLow(b));
            w.value(Histogram::bucketHigh(b));
            w.value(h.bucketCount(b));
            w.endArray();
        }
        w.endArray();
        break;
      }
    }
    w.endObject();
    return w.str();
}

void
ManifestWriter::addRun(const RunResult &r)
{
    runJsons.push_back(runJson(r));
}

void
ManifestWriter::addStatGroup(const std::string &label,
                             const StatGroup &group)
{
    std::string section = "{\"label\":\"" + JsonWriter::escape(label) +
                          "\",\"stats\":[";
    bool first = true;
    for (const StatBase *stat : group.all()) {
        if (!first)
            section += ',';
        first = false;
        section += statJson(*stat);
    }
    section += "]}";
    statSections.push_back(std::move(section));
}

void
ManifestWriter::addExtra(const std::string &key, double v)
{
    extras.emplace_back(key, JsonWriter::number(v));
}

void
ManifestWriter::addExtra(const std::string &key, const std::string &v)
{
    extras.emplace_back(key,
                        "\"" + JsonWriter::escape(v) + "\"");
}

void
ManifestWriter::addExtraJson(const std::string &key,
                             const std::string &raw)
{
    extras.emplace_back(key, raw);
}

std::string
ManifestWriter::json() const
{
    std::string out = "{\"schema\":\"";
    out += kSchema;
    out += "\",\"tool\":\"";
    out += JsonWriter::escape(tool);
    out += "\",\"config\":";
    out += configJson.empty() ? "null" : configJson;
    out += ",\"runs\":[";
    for (size_t i = 0; i < runJsons.size(); ++i) {
        if (i)
            out += ',';
        out += runJsons[i];
    }
    out += "],\"stats\":[";
    for (size_t i = 0; i < statSections.size(); ++i) {
        if (i)
            out += ',';
        out += statSections[i];
    }
    out += "],\"extra\":{";
    for (size_t i = 0; i < extras.size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += JsonWriter::escape(extras[i].first);
        out += "\":";
        out += extras[i].second;
    }
    out += "}}";
    return out;
}

void
ManifestWriter::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    fatal_if(!os, "cannot open ", path, " for writing");
    std::string doc = json();
    os << doc << "\n";
    fatal_if(!os.good(), "error writing ", path);
}

bool
ManifestWriter::tryWriteFile(const std::string &path) const
{
    std::string doc = json();
    doc += '\n';
    std::string err;
    if (!obs::atomicWriteFile(path, doc, &err)) {
        warn("cannot write manifest ", path, ": ", err);
        return false;
    }
    return true;
}

} // namespace nvmr
