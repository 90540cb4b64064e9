// Tests of the benchmark's own code: the tail-percentile rule, the Wilson
// interval, failure accounting and the JSON result line.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "src/obs/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  // p90 of 100 samples interpolates between ranks 89 and 90: only nine
  // samples lie strictly beyond, so it is not reported.
  EXPECT_FALSE(tail_percentile(ramp(100), 90.0).has_value());
  const auto p90 = tail_percentile(ramp(101), 90.0);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  EXPECT_EQ(samples_for_tail(90.0), 101u);
  EXPECT_EQ(samples_for_tail(50.0), 21u);
  EXPECT_FALSE(tail_percentile(ramp(20), 50.0).has_value());
  EXPECT_TRUE(tail_percentile(ramp(21), 50.0).has_value());
  EXPECT_FALSE(tail_percentile({}, 50.0).has_value());
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(201);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v, 90.0).value(), 180.0);
  EXPECT_DOUBLE_EQ(median(v), 100.0);
}

TEST(Wilson, MatchesReferenceValues) {
  // 5 of 10 at z = 1.96: the textbook [0.2366, 0.7634].
  const Interval half = wilson_interval(5, 10, 1.96);
  EXPECT_NEAR(half.lo, 0.2365896, 1e-6);
  EXPECT_NEAR(half.hi, 0.7634104, 1e-6);
  // Zero successes still gives a non-degenerate upper bound, z²/(n + z²).
  const Interval none = wilson_interval(0, 10, 1.96);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_NEAR(none.hi, 1.96 * 1.96 / (10 + 1.96 * 1.96), 1e-12);
  const Interval all = wilson_interval(10, 10, 1.96);
  EXPECT_NEAR(all.lo, 1.0 - none.hi, 1e-12);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
}

TEST(Wilson, NarrowsWithTrialsAndContainsTheEstimate) {
  const Interval small = wilson_interval(10, 100, 3.0);
  const Interval large = wilson_interval(1000, 10000, 3.0);
  EXPECT_TRUE(small.contains(0.1));
  EXPECT_TRUE(large.contains(0.1));
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
  EXPECT_FALSE(large.contains(0.2));
  const Interval empty = wilson_interval(0, 0, 3.0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
}

TEST(OpLedger, CountsFailedChecksAndThrowingUnits) {
  OpLedger ops;
  EXPECT_TRUE(ops.run("ok", [] { return true; }));
  EXPECT_FALSE(ops.run("bad output", [] { return false; }));
  EXPECT_FALSE(ops.run("throws", []() -> bool {
    throw std::runtime_error("boom");
  }));
  EXPECT_FALSE(ops.run("throws non-std", []() -> bool { throw 7; }));
  EXPECT_TRUE(ops.record("known good", true));
  EXPECT_EQ(ops.attempted(), 5u);
  EXPECT_EQ(ops.failed(), 3u);
  EXPECT_DOUBLE_EQ(ops.failed_ratio(), 0.6);
  ASSERT_EQ(ops.failures().size(), 3u);
  EXPECT_NE(ops.failures()[1].find("boom"), std::string::npos);
  EXPECT_DOUBLE_EQ(OpLedger{}.failed_ratio(), 0.0);
}

TEST(ResultJson, RoundTripsThroughObsJson) {
  RunResult result;
  result.add("setup_s", 0.812734567891234, "s");
  result.add("unit_p90_ms", 12.5, "ms");
  result.ops.record("a", true);
  result.ops.record("b", false);
  const std::string line = result_json(result).dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);

  std::string error;
  const auto doc = mmtag::obs::JsonValue::parse(line, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(doc->find("correct")->as_bool());
  const auto back = parse_result(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ops.attempted(), 2u);
  EXPECT_EQ(back->ops.failed(), 1u);
  ASSERT_EQ(back->metrics.size(), 2u);
  EXPECT_EQ(back->metrics[0].name, "setup_s");
  EXPECT_DOUBLE_EQ(back->metrics[0].value, 0.812734567891234);  // All digits.
  EXPECT_EQ(back->metrics[1].unit, "ms");
  EXPECT_EQ(result_json(*back).dump(), line);
}

TEST(ResultJson, RejectsMalformedResultLines) {
  const auto parse = [](const char* text) {
    return parse_result(mmtag::obs::JsonValue::parse(text, nullptr).value());
  };
  EXPECT_FALSE(parse(R"({"correct":true,"attempted":1,"failed":0})"));
  EXPECT_FALSE(parse(
      R"({"correct":true,"attempted":1,"failed":2,"metrics":{}})"));
  EXPECT_FALSE(parse(
      R"({"correct":false,"attempted":1,"failed":0,"metrics":{}})"));
  EXPECT_FALSE(parse(
      R"({"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1}}})"));
  EXPECT_TRUE(parse(
      R"({"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1,"unit":"s"}}})"));
}

TEST(Catalog, PerLayerSetIsCompletedWithZeros) {
  RunResult result;
  result.add("trace.overhead_ratio", 1.25, "ratio");
  result.add("phy.awgn_ns_per_sample", 80.0, "ns/sample");
  complete_per_layer(result);
  std::set<std::string> seen;
  for (const Metric& m : result.metrics) {
    EXPECT_FALSE(m.unit.empty());
    EXPECT_TRUE(seen.insert(m.name).second);
  }
  EXPECT_DOUBLE_EQ(result.find("phy.awgn_ns_per_sample")->value, 80.0);
  EXPECT_DOUBLE_EQ(result.find("mesh.frames_offered")->value, 0.0);
  EXPECT_EQ(result.find("mesh.frames_offered")->unit, "count/run");

  RunResult typo;
  typo.add("phy.awgn_ns_per_smaple", 80.0, "ns/sample");
  EXPECT_THROW(complete_per_layer(typo), std::logic_error);
  RunResult wrong_unit;
  wrong_unit.add("phy.awgn_ns_per_sample", 80.0, "ms");
  EXPECT_THROW(complete_per_layer(wrong_unit), std::logic_error);
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in.good()) << PERFBENCH_SPEC;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  const auto spec = mmtag::obs::JsonValue::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  std::vector<std::string> e2e;
  for (const auto& m : spec->find("end_to_end")->items()) {
    e2e.push_back(m.find("name")->as_string());
  }
  EXPECT_EQ(e2e, end_to_end_names());

  RunResult all;
  complete_per_layer(all);
  const auto& layers = spec->find("per_layer")->items();
  ASSERT_EQ(layers.size(), all.metrics.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].find("name")->as_string(), all.metrics[i].name);
    EXPECT_EQ(layers[i].find("unit")->as_string(), all.metrics[i].unit);
  }
}

}  // namespace
}  // namespace perfbench
