// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper; the helpers standardize
// configuration and formatting.
#pragma once

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "core/policy.h"
#include "proto/mode.h"
#include "stats/metrics.h"
#include "stats/table.h"
#include "topo/experiment.h"

namespace hydra::bench {

namespace detail {

// Accumulates the bench header, every table passed to emit() and every
// bench::comment() line so the process can mirror them to
// BENCH_<id>.json at exit (the `bench_all` build target collects
// these). The comments carry the free-form commentary — the "Paper: ..."
// comparison footers and expected-shape notes — so the JSON reports are
// self-describing without the stdout stream.
struct JsonReport {
  std::string id;
  std::string paper_result;
  std::string note;
  std::vector<std::string> tables_json;
  std::vector<std::string> comments;
};

inline JsonReport& json_report() {
  static JsonReport report;
  return report;
}

inline std::string slug(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

inline void write_json_report() {
  using stats::append_json_string;
  const auto& report = json_report();
  if (report.id.empty()) return;
  std::string doc = "{\"bench\": ";
  append_json_string(doc, report.id);
  doc += ", \"paper_result\": ";
  append_json_string(doc, report.paper_result);
  doc += ", \"note\": ";
  append_json_string(doc, report.note);
  doc += ", \"tables\": [";
  for (std::size_t i = 0; i < report.tables_json.size(); ++i) {
    if (i > 0) doc += ", ";
    doc += report.tables_json[i];
  }
  doc += "], \"comments\": [";
  for (std::size_t i = 0; i < report.comments.size(); ++i) {
    if (i > 0) doc += ", ";
    append_json_string(doc, report.comments[i]);
  }
  doc += "]}\n";
  const std::string path = "BENCH_" + slug(report.id) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace detail

// Prints a table to stdout and records it for the JSON report.
inline void emit(const stats::Table& table) {
  table.print();
  detail::json_report().tables_json.push_back(table.to_json());
}

// Prints a line of free-form commentary (paper comparisons, expected
// shapes, sweep notes) and records it in the JSON report's "comments"
// array. Leading/trailing whitespace is stripped from the recorded form
// so callers can keep their stdout spacing (e.g. a leading "\n").
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
inline void
comment(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (written < 0) return;  // encoding error: buf is indeterminate
  std::printf("%s\n", buf);
  std::string recorded = buf;
  const auto first = recorded.find_first_not_of(" \t\n");
  const auto last = recorded.find_last_not_of(" \t\n");
  recorded = first == std::string::npos
                 ? std::string{}
                 : recorded.substr(first, last - first + 1);
  if (!recorded.empty()) detail::json_report().comments.push_back(recorded);
}

// The four rates the paper's experiments use (§5).
inline const std::vector<std::size_t> kPaperModeIndices = {0, 1, 2, 3};

inline std::string rate_label(std::size_t mode_idx) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f",
                proto::mode_by_index(mode_idx).rate.mbps());
  return buf;
}

// Builds a TCP experiment at one rate (broadcast rate = unicast rate).
inline topo::ExperimentConfig tcp_config(topo::ScenarioSpec scenario,
                                         core::AggregationPolicy policy,
                                         std::size_t mode_idx,
                                         std::uint64_t file_bytes = 200'000) {
  topo::ExperimentConfig cfg;
  cfg.scenario = std::move(scenario);
  cfg.scenario.node.policy = policy;
  cfg.traffic = topo::TrafficKind::kTcp;
  cfg.tcp_file_bytes = file_bytes;
  cfg.scenario.node.unicast_mode = proto::mode_by_index(mode_idx);
  cfg.scenario.node.broadcast_mode = proto::mode_by_index(mode_idx);
  return cfg;
}

// Builds a saturating UDP experiment at one rate.
inline topo::ExperimentConfig udp_config(topo::ScenarioSpec scenario,
                                         core::AggregationPolicy policy,
                                         std::size_t mode_idx) {
  topo::ExperimentConfig cfg;
  cfg.scenario = std::move(scenario);
  cfg.scenario.node.policy = policy;
  cfg.traffic = topo::TrafficKind::kUdp;
  cfg.scenario.node.unicast_mode = proto::mode_by_index(mode_idx);
  cfg.scenario.node.broadcast_mode = proto::mode_by_index(mode_idx);
  cfg.udp_interval = sim::Duration::millis(100);
  cfg.udp_packets_per_tick = 8;  // saturates every paper rate
  cfg.udp_duration = sim::Duration::seconds(20);
  return cfg;
}

inline void print_header(const char* id, const char* paper_result,
                         const char* note) {
  std::printf("== %s — %s ==\n", id, paper_result);
  if (note && note[0]) std::printf("%s\n", note);
  auto& report = detail::json_report();
  report.id = id;
  report.paper_result = paper_result;
  report.note = note ? note : "";
  std::atexit(detail::write_json_report);
}

// Number of independent runs each data point is averaged over (the
// paper's testbed numbers are averages of repeated transfers; DCF
// collision luck makes single runs noisy).
inline constexpr int kDefaultRuns = 5;

// Mean of `metric` over `runs` seeds.
template <typename F>
double avg_metric(topo::ExperimentConfig cfg, F metric,
                  int runs = kDefaultRuns) {
  double sum = 0.0;
  for (int seed = 1; seed <= runs; ++seed) {
    cfg.seed = static_cast<std::uint64_t>(seed);
    sum += metric(app::run_experiment(cfg));
  }
  return sum / runs;
}

// Mean first-flow (or worst-flow) throughput over `runs` seeds.
inline double avg_throughput(const topo::ExperimentConfig& cfg,
                             bool worst_case = false,
                             int runs = kDefaultRuns) {
  return avg_metric(
      cfg,
      [worst_case](const topo::ExperimentResult& r) {
        return worst_case ? r.worst_throughput_mbps()
                          : r.flows[0].throughput_mbps;
      },
      runs);
}

}  // namespace hydra::bench
