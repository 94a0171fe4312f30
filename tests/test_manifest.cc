/**
 * @file
 * Tests for the JSON layer and the run-manifest writer: writer
 * escaping/nesting, strict validator acceptance and rejection, stat
 * snapshots of all three stat kinds, and a full manifest from a real
 * simulated run parsed back with the validator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "isa/assembler.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

TEST(JsonWriter, NestingAndCommas)
{
    JsonWriter w;
    w.beginObject();
    w.kv("a", 1);
    w.key("b");
    w.beginArray();
    w.value(1.5);
    w.value("two");
    w.value(true);
    w.valueNull();
    w.endArray();
    w.kv("c", std::string("x"));
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"b\":[1.5,\"two\",true,null],\"c\":\"x\"}");
    std::string err;
    EXPECT_TRUE(jsonValidate(w.str(), &err)) << err;
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    JsonWriter w;
    w.beginObject();
    w.kv("k", std::string("a\"b\\c\n\t\x01"));
    w.endObject();
    EXPECT_TRUE(jsonValidate(w.str()));
    EXPECT_NE(w.str().find("\\\"b"), std::string::npos);
    EXPECT_NE(w.str().find("\\n"), std::string::npos);
    EXPECT_NE(w.str().find("\\u0001"), std::string::npos);
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonValidate, AcceptsAndRejects)
{
    EXPECT_TRUE(jsonValidate("{}"));
    EXPECT_TRUE(jsonValidate("[1, 2.5e-3, \"x\", null, true]"));
    EXPECT_TRUE(jsonValidate("  {\"a\": [{}]}  "));
    std::string err;
    EXPECT_FALSE(jsonValidate("", &err));
    EXPECT_FALSE(jsonValidate("{", &err));
    EXPECT_FALSE(jsonValidate("{} extra", &err));
    EXPECT_FALSE(jsonValidate("{\"a\":01}", &err));
    EXPECT_FALSE(jsonValidate("[1,]", &err));
    EXPECT_FALSE(jsonValidate("{'a':1}", &err));
    EXPECT_FALSE(jsonValidate("[\"\\x\"]", &err));
    EXPECT_FALSE(jsonValidate("nul", &err));
}

TEST(Manifest, StatJsonCoversAllKinds)
{
    Scalar s("backups", "committed backups");
    s += 42;
    std::string sj = ManifestWriter::statJson(s);
    EXPECT_TRUE(jsonValidate(sj));
    EXPECT_NE(sj.find("\"backups\""), std::string::npos);
    EXPECT_NE(sj.find("\"scalar\""), std::string::npos);

    Histogram h("intervals", "");
    h.sample(3.0);
    h.sample(700.0);
    std::string hj = ManifestWriter::statJson(h);
    EXPECT_TRUE(jsonValidate(hj));
    EXPECT_NE(hj.find("\"histogram\""), std::string::npos);
    EXPECT_NE(hj.find("\"buckets\""), std::string::npos);
    EXPECT_NE(hj.find("\"p99\""), std::string::npos);
}

TEST(Manifest, FullDocumentFromARealRun)
{
    Program prog = assemble("tiny", R"(
        .data
arr:    .rand 64 3 0 100
        .text
main:
        li   r1, 0
loop:
        slli r2, r1, 2
        li   r3, arr
        add  r2, r2, r3
        ld   r4, 0(r2)
        addi r4, r4, 1
        st   r4, 0(r2)
        addi r1, r1, 1
        li   r5, 64
        blt  r1, r5, loop
        halt
)");
    SystemConfig cfg;
    JitPolicy policy;
    HarvestTrace trace(TraceKind::Solar, 3, 8.0);
    Simulator sim(prog, ArchKind::Nvmr, cfg, policy, trace);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);

    ManifestWriter m("test_manifest");
    m.setConfig(cfg);
    m.addRun(r);
    m.addStatGroup("tiny/nvmr", sim.archRef().statGroup());
    m.addExtra("note", std::string("unit test"));
    m.addExtra("iterations", 1.0);

    std::string doc = m.json();
    std::string err;
    ASSERT_TRUE(jsonValidate(doc, &err)) << err;
    EXPECT_NE(doc.find("\"nvmr-run-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"test_manifest\""), std::string::npos);
    EXPECT_NE(doc.find("\"capacitor_farads\""), std::string::npos);
    EXPECT_NE(doc.find("\"backup_interval_cycles\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"rename_chain_depth\""), std::string::npos);
    EXPECT_NE(doc.find("\"mtcache_residency\""), std::string::npos);
    EXPECT_NE(doc.find("\"nvm_wear_per_word\""), std::string::npos);
    EXPECT_NE(doc.find("\"tiny/nvmr\""), std::string::npos);
    EXPECT_NE(doc.find("\"unit test\""), std::string::npos);

    // writeFile round trip.
    std::string path =
        testing::TempDir() + "/nvmr_manifest_test.json";
    m.writeFile(path);
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_TRUE(jsonValidate(ss.str(), &err)) << err;
    std::remove(path.c_str());
}

} // namespace
} // namespace nvmr
