#include "src/obs/bench.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"

namespace mmtag::bench {

namespace {

double wall_now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_now_ns() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
  }
#endif
  return static_cast<double>(std::clock()) *
         (1e9 / static_cast<double>(CLOCKS_PER_SEC));
}

}  // namespace

std::string format_ns(double ns) {
  char buf[48];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
  }
  return buf;
}

std::string format_si(double value) {
  char buf[48];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f G", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f M", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f k", value / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f", value);
  }
  return buf;
}

// --------------------------------------------------------------------------
// Parser

Parser::Parser(std::string bench_name, std::string description)
    : description_(std::move(description)) {
  options_.bench_name = std::move(bench_name);
  add_int("--threads", &options_.threads,
          "worker threads for pool-based cases (0 = hardware/MMTAG_THREADS)");
  add_uint64("--seed", &options_.seed, "base RNG seed");
  add_int("--warmup", &options_.warmup, "untimed repetitions per case");
  add_int("--repeat", &options_.repeat, "timed repetitions per case");
  add_string("--json", &options_.json_path,
             "write BENCH_<name>.json report to this path");
  add_string("--compare", &options_.compare_path,
             "baseline report to diff against (exit 1 on regression)");
  add_double("--threshold", &options_.threshold,
             "relative median-wall regression tolerance for --compare");
  add_flag("--csv", &options_.csv, "machine-readable CSV tables");
}

void Parser::add_flag(const char* name, bool* target, const char* help) {
  specs_.push_back(Spec{name, Kind::kFlag, target, help});
}
void Parser::add_int(const char* name, int* target, const char* help) {
  specs_.push_back(Spec{name, Kind::kInt, target, help});
}
void Parser::add_count(const char* name, int* target, const char* help) {
  specs_.push_back(Spec{name, Kind::kCount, target, help});
}
void Parser::add_uint64(const char* name, std::uint64_t* target,
                        const char* help) {
  specs_.push_back(Spec{name, Kind::kUint64, target, help});
}
void Parser::add_double(const char* name, double* target, const char* help) {
  specs_.push_back(Spec{name, Kind::kDouble, target, help});
}
void Parser::add_string(const char* name, std::string* target,
                        const char* help) {
  specs_.push_back(Spec{name, Kind::kString, target, help});
}

void Parser::print_usage() const {
  std::fprintf(stderr, "usage: bench_%s [options]\n",
               options_.bench_name.c_str());
  if (!description_.empty()) {
    std::fprintf(stderr, "%s\n", description_.c_str());
  }
  std::fprintf(stderr, "options:\n");
  for (const Spec& spec : specs_) {
    std::fprintf(stderr, "  %-14s %s%s\n", spec.name.c_str(),
                 spec.kind == Kind::kFlag ? "" : "<value>  ",
                 spec.help.c_str());
  }
  std::fprintf(stderr, "  %-14s %s\n", "--help", "print this message");
}

bool Parser::apply(const Spec& spec, const char* value) {
  char* end = nullptr;
  switch (spec.kind) {
    case Kind::kFlag:
      *static_cast<bool*>(spec.target) = true;
      return true;
    case Kind::kInt:
    case Kind::kCount: {
      const long parsed = std::strtol(value, &end, 10);
      if (end == value || *end != '\0') return false;
      if (spec.kind == Kind::kCount && (parsed < 1 || parsed > INT_MAX)) {
        return false;
      }
      *static_cast<int*>(spec.target) = static_cast<int>(parsed);
      return true;
    }
    case Kind::kUint64: {
      const unsigned long long parsed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
      *static_cast<std::uint64_t*>(spec.target) = parsed;
      return true;
    }
    case Kind::kDouble: {
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
      *static_cast<double*>(spec.target) = parsed;
      return true;
    }
    case Kind::kString:
      *static_cast<std::string*>(spec.target) = value;
      return true;
  }
  return false;
}

bool Parser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage();
      exit_code_ = 0;
      return false;
    }
    const auto spec =
        std::find_if(specs_.begin(), specs_.end(),
                     [&](const Spec& s) { return s.name == arg; });
    if (spec == specs_.end()) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg);
      print_usage();
      exit_code_ = 2;
      return false;
    }
    const char* value = nullptr;
    if (spec->kind != Kind::kFlag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: option '%s' needs a value\n", arg);
        exit_code_ = 2;
        return false;
      }
      value = argv[++i];
    }
    if (!apply(*spec, value)) {
      std::fprintf(stderr, "error: bad value '%s' for option '%s'\n", value,
                   arg);
      exit_code_ = 2;
      return false;
    }
  }
  if (options_.repeat < 1 || options_.warmup < 0) {
    std::fprintf(stderr,
                 "error: --repeat must be >= 1 and --warmup >= 0\n");
    exit_code_ = 2;
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Harness

Harness::Harness(Options options) : options_(std::move(options)) {}

void Harness::add(std::string name, std::function<void(CaseContext&)> body) {
  cases_.push_back(Case{std::move(name), std::move(body)});
}

namespace {

obs::JsonValue timing_json(double min, double median, double p90, double max,
                           double mean) {
  obs::JsonValue t = obs::JsonValue::object();
  t.set("min", obs::JsonValue(min));
  t.set("median", obs::JsonValue(median));
  t.set("p90", obs::JsonValue(p90));
  t.set("max", obs::JsonValue(max));
  t.set("mean", obs::JsonValue(mean));
  return t;
}

obs::JsonValue metrics_json() {
  obs::JsonValue counters = obs::JsonValue::object();
  for (const auto& view : obs::Registry::instance().counters()) {
    counters.set(view.name, obs::JsonValue(view.value));
  }
  obs::JsonValue histograms = obs::JsonValue::object();
  for (const auto& view : obs::Registry::instance().histograms()) {
    obs::JsonValue h = obs::JsonValue::object();
    h.set("count", obs::JsonValue(view.count));
    h.set("sum", obs::JsonValue(view.sum));
    h.set("mean", obs::JsonValue(view.mean));
    h.set("p50", obs::JsonValue(view.p50));
    h.set("p90", obs::JsonValue(view.p90));
    h.set("p99", obs::JsonValue(view.p99));
    h.set("rejected", obs::JsonValue(view.rejected));
    h.set("overflow", obs::JsonValue(view.overflow));
    histograms.set(view.name, std::move(h));
  }
  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("counters", std::move(counters));
  metrics.set("histograms", std::move(histograms));
  return metrics;
}

std::optional<obs::JsonValue> load_json_file(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  auto doc = obs::JsonValue::parse(buffer.str(), &parse_error);
  if (!doc && error != nullptr) {
    *error = "parse error in '" + path + "': " + parse_error;
  }
  return doc;
}

}  // namespace

int Harness::run() {
  case_reports_.clear();
  for (Case& bench_case : cases_) {
    for (int w = 0; w < options_.warmup; ++w) {
      CaseContext ctx(options_, /*warmup=*/true);
      bench_case.body(ctx);
    }
    std::vector<double> wall_ns;
    std::vector<double> cpu_ns;
    wall_ns.reserve(static_cast<std::size_t>(options_.repeat));
    cpu_ns.reserve(static_cast<std::size_t>(options_.repeat));
    CaseReport report;
    report.name = bench_case.name;
    report.repeat = options_.repeat;
    for (int r = 0; r < options_.repeat; ++r) {
      CaseContext ctx(options_, /*warmup=*/false);
      const double cpu0 = cpu_now_ns();
      const double wall0 = wall_now_ns();
      bench_case.body(ctx);
      wall_ns.push_back(wall_now_ns() - wall0);
      cpu_ns.push_back(cpu_now_ns() - cpu0);
      report.units = ctx.units();
      report.unit_name = ctx.unit_name();
    }
    std::sort(wall_ns.begin(), wall_ns.end());
    std::sort(cpu_ns.begin(), cpu_ns.end());
    report.wall_min_ns = wall_ns.front();
    report.wall_max_ns = wall_ns.back();
    report.wall_median_ns = obs::percentile_sorted(wall_ns, 50.0);
    report.wall_p90_ns = obs::percentile_sorted(wall_ns, 90.0);
    double total = 0.0;
    for (const double v : wall_ns) total += v;
    report.wall_mean_ns = total / static_cast<double>(wall_ns.size());
    report.cpu_median_ns = obs::percentile_sorted(cpu_ns, 50.0);
    report.cpu_p90_ns = obs::percentile_sorted(cpu_ns, 90.0);
    case_reports_.push_back(std::move(report));
  }

  // Build the JSON report.
  report_ = obs::JsonValue::object();
  report_.set("schema", obs::JsonValue(kSchemaVersion));
  report_.set("bench", obs::JsonValue(options_.bench_name));
  obs::JsonValue config = obs::JsonValue::object();
  config.set("threads", obs::JsonValue(options_.threads));
  config.set("seed", obs::JsonValue(options_.seed));
  config.set("warmup", obs::JsonValue(options_.warmup));
  config.set("repeat", obs::JsonValue(options_.repeat));
  config.set("obs_enabled", obs::JsonValue(obs::kObsEnabled));
  report_.set("config", std::move(config));
  obs::JsonValue cases = obs::JsonValue::array();
  for (const CaseReport& report : case_reports_) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("name", obs::JsonValue(report.name));
    entry.set("repeat", obs::JsonValue(report.repeat));
    entry.set("wall_ns",
              timing_json(report.wall_min_ns, report.wall_median_ns,
                          report.wall_p90_ns, report.wall_max_ns,
                          report.wall_mean_ns));
    obs::JsonValue cpu = obs::JsonValue::object();
    cpu.set("median", obs::JsonValue(report.cpu_median_ns));
    cpu.set("p90", obs::JsonValue(report.cpu_p90_ns));
    entry.set("cpu_ns", std::move(cpu));
    if (!report.unit_name.empty()) {
      entry.set("units", obs::JsonValue(report.units));
      entry.set("unit", obs::JsonValue(report.unit_name));
      entry.set("units_per_s", obs::JsonValue(report.units_per_s()));
    }
    cases.push_back(std::move(entry));
  }
  report_.set("cases", std::move(cases));
  report_.set("metrics", metrics_json());

  // Timing summary (CSV under --csv so existing piping keeps working).
  if (options_.csv) {
    std::printf("case,repeat,wall_median_ns,wall_p90_ns,cpu_median_ns,"
                "units,unit,units_per_s\n");
    for (const CaseReport& report : case_reports_) {
      std::printf("%s,%d,%.0f,%.0f,%.0f,%.0f,%s,%.2f\n",
                  report.name.c_str(), report.repeat, report.wall_median_ns,
                  report.wall_p90_ns, report.cpu_median_ns, report.units,
                  report.unit_name.c_str(), report.units_per_s());
    }
  } else if (!case_reports_.empty()) {
    std::printf("\n== bench %s: %zu case(s), warmup=%d repeat=%d ==\n",
                options_.bench_name.c_str(), case_reports_.size(),
                options_.warmup, options_.repeat);
    std::printf("%-32s %10s %10s %10s %16s\n", "case", "wall_med",
                "wall_p90", "cpu_med", "throughput");
    for (const CaseReport& report : case_reports_) {
      std::string throughput = "-";
      if (!report.unit_name.empty()) {
        throughput =
            format_si(report.units_per_s()) + " " + report.unit_name + "/s";
      }
      std::printf("%-32s %10s %10s %10s %16s\n", report.name.c_str(),
                  format_ns(report.wall_median_ns).c_str(),
                  format_ns(report.wall_p90_ns).c_str(),
                  format_ns(report.cpu_median_ns).c_str(),
                  throughput.c_str());
    }
  }

  int exit_code = 0;

  if (!options_.json_path.empty()) {
    std::string error;
    if (!validate_report(report_, &error)) {
      std::fprintf(stderr, "error: generated report invalid: %s\n",
                   error.c_str());
      return 2;
    }
    std::ofstream out(options_.json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   options_.json_path.c_str());
      return 2;
    }
    out << report_.dump(2) << '\n';
    if (!options_.csv) {
      std::printf("wrote %s\n", options_.json_path.c_str());
    }
  }

  if (!options_.compare_path.empty()) {
    std::string error;
    const auto baseline = load_json_file(options_.compare_path, &error);
    if (!baseline) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    if (!validate_report(*baseline, &error)) {
      std::fprintf(stderr, "error: baseline schema invalid: %s\n",
                   error.c_str());
      return 2;
    }
    if (!validate_report(report_, &error)) {
      std::fprintf(stderr, "error: current report invalid: %s\n",
                   error.c_str());
      return 2;
    }
    std::string log;
    const int regressions =
        compare_reports(report_, *baseline, options_.threshold, &log);
    std::fputs(log.c_str(), stdout);
    if (regressions > 0) {
      std::fprintf(stderr,
                   "FAIL: %d case(s) regressed beyond %.0f%% vs %s\n",
                   regressions, options_.threshold * 100.0,
                   options_.compare_path.c_str());
      exit_code = 1;
    } else {
      std::printf("compare OK vs %s (threshold %.0f%%)\n",
                  options_.compare_path.c_str(), options_.threshold * 100.0);
    }
  }

  return exit_code;
}

// --------------------------------------------------------------------------
// Validation & comparison

bool validate_report(const obs::JsonValue& doc, std::string* error) {
  const auto fail = [error](const char* reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (!doc.is_object()) return fail("root is not an object");
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return fail("missing 'schema' string");
  }
  if (schema->as_string() != kSchemaVersion) {
    return fail("unsupported schema version");
  }
  const obs::JsonValue* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() ||
      bench->as_string().empty()) {
    return fail("missing 'bench' name");
  }
  const obs::JsonValue* config = doc.find("config");
  if (config == nullptr || !config->is_object()) {
    return fail("missing 'config' object");
  }
  const obs::JsonValue* cases = doc.find("cases");
  if (cases == nullptr || !cases->is_array()) {
    return fail("missing 'cases' array");
  }
  for (const obs::JsonValue& entry : cases->items()) {
    if (!entry.is_object()) return fail("case entry is not an object");
    const obs::JsonValue* name = entry.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      return fail("case missing 'name'");
    }
    const obs::JsonValue* wall = entry.find("wall_ns");
    if (wall == nullptr || !wall->is_object()) {
      return fail("case missing 'wall_ns'");
    }
    const obs::JsonValue* median = wall->find("median");
    const obs::JsonValue* p90 = wall->find("p90");
    if (median == nullptr || !median->is_number() ||
        median->as_double() < 0.0) {
      return fail("case wall_ns.median missing or negative");
    }
    if (p90 == nullptr || !p90->is_number() || p90->as_double() < 0.0) {
      return fail("case wall_ns.p90 missing or negative");
    }
  }
  return true;
}

int compare_reports(const obs::JsonValue& current,
                    const obs::JsonValue& baseline, double threshold,
                    std::string* log) {
  const auto append = [log](const std::string& line) {
    if (log != nullptr) {
      *log += line;
      *log += '\n';
    }
  };
  const obs::JsonValue* base_cases = baseline.find("cases");
  const obs::JsonValue* cur_cases = current.find("cases");
  if (base_cases == nullptr || cur_cases == nullptr) return 0;

  int regressions = 0;
  for (const obs::JsonValue& base_entry : base_cases->items()) {
    const obs::JsonValue* name = base_entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const obs::JsonValue* cur_entry = nullptr;
    for (const obs::JsonValue& candidate : cur_cases->items()) {
      const obs::JsonValue* cand_name = candidate.find("name");
      if (cand_name != nullptr && cand_name->is_string() &&
          cand_name->as_string() == name->as_string()) {
        cur_entry = &candidate;
        break;
      }
    }
    if (cur_entry == nullptr) {
      append("MISSING  " + name->as_string() +
             ": case present in baseline but not in this run");
      ++regressions;
      continue;
    }
    const obs::JsonValue* base_wall = base_entry.find("wall_ns");
    const obs::JsonValue* cur_wall = cur_entry->find("wall_ns");
    const double base_median =
        base_wall != nullptr ? base_wall->number_or("median", 0.0) : 0.0;
    const double cur_median =
        cur_wall != nullptr ? cur_wall->number_or("median", 0.0) : 0.0;
    if (base_median <= 0.0) {
      append("SKIP     " + name->as_string() + ": baseline median is zero");
      continue;
    }
    const double rel = cur_median / base_median - 1.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-8s %s: %s -> %s (%+.1f%%)",
                  rel > threshold ? "REGRESS" : "ok",
                  name->as_string().c_str(), format_ns(base_median).c_str(),
                  format_ns(cur_median).c_str(), rel * 100.0);
    append(buf);
    if (rel > threshold) ++regressions;
  }
  return regressions;
}

}  // namespace mmtag::bench
