// Bench harness (src/obs/bench): CLI parser contract, report schema
// validation, and regression comparison on synthetic baselines.
#include "src/obs/bench.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.hpp"

namespace mmtag::bench {
namespace {

using obs::JsonValue;

// --- Parser ---------------------------------------------------------------

/// argv helper: parse() wants mutable char**; keep the strings alive.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) ptrs_.push_back(arg.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Parser, DefaultsMatchDocumentedContract) {
  Parser parser("unit", "test bench");
  Argv argv({"bench_unit"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv()));
  const Options& options = parser.options();
  EXPECT_EQ(options.bench_name, "unit");
  EXPECT_EQ(options.threads, 0);
  EXPECT_EQ(options.seed, 1u);
  EXPECT_EQ(options.warmup, 1);
  EXPECT_EQ(options.repeat, 3);
  EXPECT_DOUBLE_EQ(options.threshold, 0.25);
  EXPECT_FALSE(options.csv);
}

TEST(Parser, ParsesEveryStandardFlag) {
  Parser parser("unit");
  Argv argv({"bench_unit", "--threads", "4", "--seed", "99", "--warmup",
             "2", "--repeat", "7", "--json", "/tmp/out.json", "--compare",
             "/tmp/base.json", "--threshold", "0.5", "--csv"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv()));
  const Options& options = parser.options();
  EXPECT_EQ(options.threads, 4);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.warmup, 2);
  EXPECT_EQ(options.repeat, 7);
  EXPECT_EQ(options.json_path, "/tmp/out.json");
  EXPECT_EQ(options.compare_path, "/tmp/base.json");
  EXPECT_DOUBLE_EQ(options.threshold, 0.5);
  EXPECT_TRUE(options.csv);
}

TEST(Parser, UnknownFlagFailsWithExitCode2) {
  Parser parser("unit");
  Argv argv({"bench_unit", "--bogus"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(parser.exit_code(), 2);
}

TEST(Parser, MalformedValueFailsWithExitCode2) {
  Parser parser("unit");
  Argv argv({"bench_unit", "--repeat", "many"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(parser.exit_code(), 2);
}

TEST(Parser, MissingValueFailsWithExitCode2) {
  Parser parser("unit");
  Argv argv({"bench_unit", "--seed"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(parser.exit_code(), 2);
}

TEST(Parser, HelpStopsWithExitCode0) {
  Parser parser("unit");
  Argv argv({"bench_unit", "--help"});
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(parser.exit_code(), 0);
}

TEST(Parser, BenchSpecificExtrasParse) {
  Parser parser("unit");
  int cells = 3;
  bool fast = false;
  parser.add_int("--cells", &cells, "grid cells");
  parser.add_flag("--fast", &fast, "cheap mode");
  Argv argv({"bench_unit", "--cells", "12", "--fast"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(cells, 12);
  EXPECT_TRUE(fast);
}

TEST(Parser, CountBelowOneFailsWithExitCode2) {
  for (const char* bad : {"0", "-5", "3000000000"}) {
    Parser parser("unit");
    int tags = 7;
    parser.add_count("--tags", &tags, "tag count");
    Argv argv({"bench_unit", "--tags", bad});
    EXPECT_FALSE(parser.parse(argv.argc(), argv.argv())) << bad;
    EXPECT_EQ(parser.exit_code(), 2) << bad;
    EXPECT_EQ(tags, 7) << bad;  // Rejected values never land.
  }
  Parser parser("unit");
  int tags = 7;
  parser.add_count("--tags", &tags, "tag count");
  Argv argv({"bench_unit", "--tags", "1"});
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(tags, 1);
}

// --- Harness --------------------------------------------------------------

Options quiet_options(int warmup = 0, int repeat = 3) {
  Options options;
  options.bench_name = "unit";
  options.warmup = warmup;
  options.repeat = repeat;
  options.csv = true;  // Suppresses the human-readable table on stdout.
  return options;
}

TEST(Harness, RunsWarmupPlusRepeatAndReportsUnits) {
  Options options = quiet_options(/*warmup=*/2, /*repeat=*/3);
  Harness harness(options);
  int calls = 0;
  int warmup_calls = 0;
  harness.add("case_a", [&](CaseContext& ctx) {
    ++calls;
    if (ctx.warmup()) ++warmup_calls;
    ctx.set_units(100.0, "widgets");
  });
  ::testing::internal::CaptureStdout();
  const int rc = harness.run();
  (void)::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(warmup_calls, 2);
  ASSERT_EQ(harness.case_reports().size(), 1u);
  const CaseReport& report = harness.case_reports()[0];
  EXPECT_EQ(report.name, "case_a");
  EXPECT_EQ(report.repeat, 3);
  EXPECT_EQ(report.unit_name, "widgets");
  EXPECT_GT(report.wall_median_ns, 0.0);
  EXPECT_GT(report.units_per_s(), 0.0);
}

TEST(Harness, ReportPassesItsOwnValidation) {
  Harness harness(quiet_options());
  harness.add("case_a", [](CaseContext&) {});
  harness.add("case_b", [](CaseContext& ctx) { ctx.set_units(1.0, "ops"); });
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(harness.run(), 0);
  (void)::testing::internal::GetCapturedStdout();
  std::string error;
  EXPECT_TRUE(validate_report(harness.report(), &error)) << error;
  // Round-trip: the dumped report re-parses and re-validates.
  const std::optional<JsonValue> parsed =
      JsonValue::parse(harness.report().dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(validate_report(*parsed, &error)) << error;
}

// --- Schema validation on synthetic documents -----------------------------

/// Minimal valid report with one case at the given median.
JsonValue synthetic_report(const std::string& case_name, double median_ns) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(kSchemaVersion));
  doc.set("bench", JsonValue("unit"));
  doc.set("config", JsonValue::object());
  JsonValue wall = JsonValue::object();
  wall.set("median", JsonValue(median_ns));
  wall.set("p90", JsonValue(median_ns * 1.1));
  JsonValue entry = JsonValue::object();
  entry.set("name", JsonValue(case_name));
  entry.set("wall_ns", std::move(wall));
  JsonValue cases = JsonValue::array();
  cases.push_back(std::move(entry));
  doc.set("cases", std::move(cases));
  return doc;
}

TEST(ValidateReport, AcceptsMinimalValidDocument) {
  std::string error;
  EXPECT_TRUE(validate_report(synthetic_report("case_a", 1000.0), &error))
      << error;
}

TEST(ValidateReport, RejectsWrongSchemaVersion) {
  JsonValue doc = synthetic_report("case_a", 1000.0);
  doc.set("schema", JsonValue("mmtag.bench.v0"));
  std::string error;
  EXPECT_FALSE(validate_report(doc, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(ValidateReport, RejectsMissingPieces) {
  std::string error;
  EXPECT_FALSE(validate_report(JsonValue(), &error));
  EXPECT_FALSE(validate_report(JsonValue::object(), &error));

  JsonValue no_cases = synthetic_report("case_a", 1000.0);
  no_cases.set("cases", JsonValue("not an array"));
  EXPECT_FALSE(validate_report(no_cases, &error));

  JsonValue nameless = synthetic_report("", 1000.0);
  EXPECT_FALSE(validate_report(nameless, &error));
  EXPECT_NE(error.find("name"), std::string::npos);

  JsonValue negative = synthetic_report("case_a", -1.0);
  EXPECT_FALSE(validate_report(negative, &error));
  EXPECT_NE(error.find("median"), std::string::npos);
}

// --- Comparison semantics -------------------------------------------------

TEST(CompareReports, IdenticalReportsPass) {
  const JsonValue report = synthetic_report("case_a", 1000.0);
  std::string log;
  EXPECT_EQ(compare_reports(report, report, 0.25, &log), 0);
  EXPECT_NE(log.find("ok"), std::string::npos);
}

TEST(CompareReports, InjectedSlowdownBeyondThresholdRegresses) {
  // 50% slowdown against a 25% threshold: exactly the acceptance-criteria
  // scenario, on deterministic synthetic numbers.
  const JsonValue baseline = synthetic_report("case_a", 1000.0);
  const JsonValue current = synthetic_report("case_a", 1500.0);
  std::string log;
  EXPECT_EQ(compare_reports(current, baseline, 0.25, &log), 1);
  EXPECT_NE(log.find("REGRESS"), std::string::npos);
}

TEST(CompareReports, SlowdownWithinThresholdPasses) {
  const JsonValue baseline = synthetic_report("case_a", 1000.0);
  const JsonValue current = synthetic_report("case_a", 1200.0);
  EXPECT_EQ(compare_reports(current, baseline, 0.25, nullptr), 0);
}

TEST(CompareReports, SpeedupNeverRegresses) {
  const JsonValue baseline = synthetic_report("case_a", 1000.0);
  const JsonValue current = synthetic_report("case_a", 100.0);
  EXPECT_EQ(compare_reports(current, baseline, 0.25, nullptr), 0);
}

TEST(CompareReports, MissingCaseCountsAsRegression) {
  const JsonValue baseline = synthetic_report("case_gone", 1000.0);
  const JsonValue current = synthetic_report("case_new", 1000.0);
  std::string log;
  EXPECT_EQ(compare_reports(current, baseline, 0.25, &log), 1);
  EXPECT_NE(log.find("MISSING"), std::string::npos);
}

TEST(CompareReports, ZeroBaselineMedianIsSkippedNotDivided) {
  const JsonValue baseline = synthetic_report("case_a", 0.0);
  const JsonValue current = synthetic_report("case_a", 1000.0);
  std::string log;
  EXPECT_EQ(compare_reports(current, baseline, 0.25, &log), 0);
  EXPECT_NE(log.find("SKIP"), std::string::npos);
}

// --- Formatting helpers ---------------------------------------------------

TEST(Format, AdaptiveNsUnits) {
  EXPECT_EQ(format_ns(12.0), "12 ns");
  EXPECT_EQ(format_ns(12.0e3), "12.00 us");
  EXPECT_EQ(format_ns(12.0e6), "12.00 ms");
  EXPECT_EQ(format_ns(1.5e9), "1.500 s");
}

TEST(Format, SiSuffixes) {
  EXPECT_EQ(format_si(950.0), "950.00");
  EXPECT_EQ(format_si(1.25e3), "1.25 k");
  EXPECT_EQ(format_si(3.5e6), "3.50 M");
  EXPECT_EQ(format_si(2.0e9), "2.00 G");
}

}  // namespace
}  // namespace mmtag::bench
