// Campaign JSON module + spec expansion tests.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "campaign/json.h"
#include "campaign/spec.h"
#include "ssd/ssd.h"

namespace ctflash::campaign {
namespace {

// --- Json ------------------------------------------------------------------

TEST(CampaignJson, ParsesScalarsAndContainers) {
  const Json v = Json::Parse(
      R"({"a": 1, "b": -2.5, "c": "sA", "d": [true, false, null], "e": {}})");
  EXPECT_EQ(v.Get("a")->AsUint(), 1u);
  EXPECT_DOUBLE_EQ(v.Get("b")->AsDouble(), -2.5);
  EXPECT_EQ(v.Get("c")->AsString(), "sA");
  ASSERT_TRUE(v.Get("d")->IsArray());
  EXPECT_EQ(v.Get("d")->AsArray().size(), 3u);
  EXPECT_TRUE(v.Get("d")->AsArray()[2].IsNull());
  EXPECT_TRUE(v.Get("e")->IsObject());
}

TEST(CampaignJson, DumpIsDeterministicSortedKeys) {
  Json v;
  v["zebra"] = 1;
  v["alpha"] = 2;
  v["mid"] = Json(JsonArray{Json(1), Json(2)});
  EXPECT_EQ(v.Dump(), R"({"alpha":2,"mid":[1,2],"zebra":1})");
}

TEST(CampaignJson, NumbersRoundTripThroughDump) {
  // Integers up to 2^53 print as integers; doubles print round-trippably.
  Json v;
  v["big"] = std::uint64_t{9'007'199'254'740'991};  // 2^53 - 1
  v["frac"] = 0.1;
  v["neg"] = -17;
  const Json back = Json::Parse(v.Dump());
  EXPECT_EQ(back.Get("big")->AsUint(), 9'007'199'254'740'991u);
  EXPECT_DOUBLE_EQ(back.Get("frac")->AsDouble(), 0.1);
  EXPECT_EQ(back.Get("neg")->AsInt(), -17);
  EXPECT_EQ(Json::Parse(back.Dump()).Dump(), back.Dump());
}

TEST(CampaignJson, RejectsMalformedInputWithPosition) {
  try {
    Json::Parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  try {
    Json::Parse("{\"a\": }");
    FAIL() << "malformed value accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
  EXPECT_THROW(Json::Parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::Parse(""), std::runtime_error);
}

TEST(CampaignJson, RejectsNonFiniteNumbers) {
  // strtod saturates these to +-inf; JSON has no representation for them.
  for (const char* text : {"1e999", "-1e999", "[1, 2e400]", "{\"a\": -9e9999}"}) {
    try {
      Json::Parse(text);
      FAIL() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  // The largest finite double still parses.
  EXPECT_DOUBLE_EQ(Json::Parse("1.7976931348623157e308").AsDouble(),
                   1.7976931348623157e308);
}

TEST(CampaignJson, RejectsNumbersOutsideTheJsonGrammar) {
  // strtod accepts all of these; RFC 8259 does not.
  for (const char* text :
       {"+1", "01", "-01", "00", "1.", ".5", "-.5", "-", "1e", "1e+", "1.e3",
        "1.5.2", "1e5e5", "--1", "[1, 08]", "{\"queue_depth\": 08}"}) {
    try {
      Json::Parse(text);
      FAIL() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("malformed number"), std::string::npos) << what;
      EXPECT_NE(what.find(" column "), std::string::npos) << what;
    }
  }
  // Every production of the grammar still parses to its value.
  const std::pair<const char*, double> valid[] = {
      {"0", 0.0},      {"-0", -0.0},     {"7", 7.0},        {"-12", -12.0},
      {"0.5", 0.5},    {"-0.25", -0.25}, {"10.125", 10.125}, {"1e3", 1e3},
      {"1E3", 1e3},    {"2e+2", 2e2},    {"5e-1", 0.5},     {"0e0", 0.0},
      {"1.5E-2", 1.5e-2}};
  for (const auto& [text, value] : valid) {
    EXPECT_DOUBLE_EQ(Json::Parse(text).AsDouble(), value) << text;
  }
}

TEST(CampaignJson, IntegralAccessorsRangeCheckBeforeCasting) {
  // Casting an out-of-range double to an integer is undefined behaviour;
  // the accessors must throw instead.
  for (const char* text : {"1e30", "-1e30", "9.3e18", "-9.3e18"}) {
    EXPECT_THROW(Json::Parse(text).AsInt(), std::runtime_error) << text;
  }
  for (const char* text : {"1e30", "1.9e19", "-1"}) {
    EXPECT_THROW(Json::Parse(text).AsUint(), std::runtime_error) << text;
  }
  EXPECT_THROW(Json(1e300).AsInt(), std::runtime_error);
  // The edges of each range convert.
  EXPECT_EQ(Json::Parse("-9223372036854775808").AsInt(), INT64_MIN);
  EXPECT_EQ(Json::Parse("9.3e18").AsUint(), 9'300'000'000'000'000'000u);
  EXPECT_EQ(Json::Parse("0").AsUint(), 0u);
  // The spec layer surfaces the error instead of wrapping a huge count.
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"workers": 1e30, "defaults": {"workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
}

TEST(CampaignJson, NestingDepthIsCapped) {
  // Deep nesting must fail with an error, not overflow the parser's stack.
  const std::string deep_array(200'000, '[');
  try {
    Json::Parse(deep_array);
    FAIL() << "200k nested arrays accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  std::string deep_object;
  for (int i = 0; i < 100'000; ++i) deep_object += "{\"a\":";
  EXPECT_THROW(Json::Parse(deep_object), std::runtime_error);
  // Moderate nesting still parses.
  std::string ok;
  for (int i = 0; i < 64; ++i) ok += '[';
  for (int i = 0; i < 64; ++i) ok += ']';
  EXPECT_TRUE(Json::Parse(ok).IsArray());
}

TEST(CampaignJson, MergePatchFollowsRfc7386) {
  const Json base = Json::Parse(R"({"a": {"x": 1, "y": 2}, "b": 3, "c": 4})");
  const Json patch = Json::Parse(R"({"a": {"y": 9}, "b": null, "d": 5})");
  const Json merged = MergePatch(base, patch);
  EXPECT_EQ(merged.Get("a")->Get("x")->AsUint(), 1u);  // untouched sibling
  EXPECT_EQ(merged.Get("a")->Get("y")->AsUint(), 9u);  // recursed override
  EXPECT_EQ(merged.Get("b"), nullptr);                 // null deletes
  EXPECT_EQ(merged.Get("c")->AsUint(), 4u);
  EXPECT_EQ(merged.Get("d")->AsUint(), 5u);
}

TEST(CampaignJson, SetJsonPathCreatesIntermediates) {
  Json root;
  SetJsonPath(root, "workload.queue_depth", Json(std::uint64_t{16}));
  SetJsonPath(root, "workload.read_fraction", Json(0.5));
  EXPECT_EQ(root.Get("workload")->Get("queue_depth")->AsUint(), 16u);
  EXPECT_DOUBLE_EQ(root.Get("workload")->Get("read_fraction")->AsDouble(), 0.5);
  EXPECT_THROW(SetJsonPath(root, "a..b", Json(1)), std::runtime_error);
}

// --- CampaignSpec ----------------------------------------------------------

constexpr const char* kBaseSpec = R"({
  "campaign": "test",
  "workers": 3,
  "defaults": {
    "device_bytes": "32MiB",
    "seed": 100,
    "workload": {"kind": "closed_loop", "requests": 50}
  },
  "grid": {
    "ftl": ["conventional", "ppb"],
    "workload.queue_depth": [2, 8]
  }
})";

TEST(CampaignSpec, ExpandsGridInSortedOdometerOrder) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.name, "test");
  EXPECT_EQ(spec.workers, 3u);
  ASSERT_EQ(spec.arms.size(), 4u);
  // Sorted grid keys: "ftl" varies slowest, "workload.queue_depth" fastest.
  EXPECT_EQ(spec.arms[0].name, "ftl=conventional,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[1].name, "ftl=conventional,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[2].name, "ftl=ppb,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[3].name, "ftl=ppb,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[0].device.kind, ssd::FtlKind::kConventional);
  EXPECT_EQ(spec.arms[2].device.kind, ssd::FtlKind::kPpb);
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            8u);
}

TEST(CampaignSpec, AutoSeedDecorrelatesArms) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.arms[0].seed, 100u);
  EXPECT_EQ(spec.arms[1].seed, 101u);
  EXPECT_EQ(spec.arms[3].seed, 103u);
}

TEST(CampaignSpec, ExplicitSeedOverridePinsArm) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"seed": 7, "workload": {"kind": "closed_loop"}},
    "grid": {"seed": [41, 42]}
  })");
  ASSERT_EQ(spec.arms.size(), 2u);
  EXPECT_EQ(spec.arms[0].seed, 41u);
  EXPECT_EQ(spec.arms[1].seed, 42u);
}

TEST(CampaignSpec, ExplicitArmsCrossWithGrid) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"workload": {"kind": "closed_loop"}},
    "grid": {"ftl": ["conventional", "ppb"]},
    "arms": [{"name": "base"}, {"name": "deep", "workload": {"queue_depth": 32}}]
  })");
  ASSERT_EQ(spec.arms.size(), 4u);
  EXPECT_EQ(spec.arms[0].name, "base:ftl=conventional");
  EXPECT_EQ(spec.arms[1].name, "deep:ftl=conventional");
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            32u);
  EXPECT_EQ(spec.arms[3].name, "deep:ftl=ppb");
}

TEST(CampaignSpec, RejectsBadFields) {
  EXPECT_THROW(CampaignSpec::Parse(R"({"workers": 0})"), std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"ftl": "nvm", "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"prefill_pct": 101, "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  // Workload object is mandatory per arm.
  EXPECT_THROW(CampaignSpec::Parse(R"({"defaults": {}})"), std::runtime_error);
  // Grid axes must be non-empty arrays.
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"workload": {"kind": "closed_loop"}}, "grid": {"ftl": []}})"),
      std::runtime_error);
}

TEST(CampaignSpec, ByteSizesAcceptStringsAndNumbers) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "64MiB", "page_size": 16384,
                  "workload": {"kind": "closed_loop"}}
  })");
  ASSERT_EQ(spec.arms.size(), 1u);
  EXPECT_EQ(spec.arms[0].merged.Get("device_bytes")->AsString(), "64MiB");
  EXPECT_EQ(spec.arms[0].device.geometry.page_size_bytes, 16384u);
}

TEST(CampaignSpec, WriteFrontiersGrowTheSparePool) {
  // Nine frontiers per stream on a 256 MiB 4-channel device need more
  // spare blocks than ScaledConfig's default floor provides; the spec
  // layer resizes over-provisioning so the device constructs.
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "256MiB", "channels": 4,
                 "workload": {"kind": "closed_loop"}},
    "grid": {"write_frontiers": [1, 4, 9]}
  })");
  ASSERT_EQ(spec.arms.size(), 3u);
  nand::NandGeometry four_channels;
  four_channels.channels = 4;
  const ssd::SsdConfig scaled = ssd::ScaledConfig(
      ssd::FtlKind::kConventional, 256 * kMiB, 16 * kKiB, 2.0, four_channels);
  // Up to 4 frontiers the default floor already covers: unchanged.
  EXPECT_EQ(spec.arms[0].device.ftl.op_ratio, scaled.ftl.op_ratio);
  EXPECT_EQ(spec.arms[1].device.ftl.op_ratio, scaled.ftl.op_ratio);
  const ssd::SsdConfig& nine = spec.arms[2].device;
  EXPECT_GT(nine.ftl.op_ratio, scaled.ftl.op_ratio);
  EXPECT_GE(nine.ftl.op_ratio * static_cast<double>(nine.geometry.TotalBlocks()),
            static_cast<double>(nine.ftl.gc_threshold_high + 2 * 9 + 8) - 1e-9);
  EXPECT_NO_THROW(ssd::Ssd{nine});
}

}  // namespace
}  // namespace ctflash::campaign
