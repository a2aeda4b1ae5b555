#pragma once
// Shared command-line handling and machine-readable reporting for the bench
// binaries.
//
// Every instrumented bench accepts, in addition to its positional arguments:
//   --trace=FILE     enable epi-trace and write a Chrome/Perfetto trace
//   --csv=FILE       also dump the counter registry as CSV
//   --metrics=FILE   override the BENCH_trace.json metrics path
//   --no-metrics     suppress the metrics file entirely
//
// The metrics file (default `<bench>_trace.json`, written next to wherever
// the bench runs) carries per-bench GFLOPS/bandwidth figures plus headline
// counters, so the performance trajectory is tracked run-over-run by CI
// artifacts instead of eyeballed terminal tables.

#include <string>
#include <utility>
#include <vector>

namespace epi::trace {
class Counters;
class Tracer;
struct ProfileReport;
}  // namespace epi::trace

namespace epi::util {

struct BenchArgs {
  std::string bench;         // bench name (e.g. "tab03_elink64")
  std::string trace_path;    // empty = tracing off
  std::string csv_path;      // empty = no CSV dump
  std::string metrics_path;  // empty = metrics suppressed
  std::vector<std::string> positional;

  /// Parse argv, stripping the flags above; anything else stays positional.
  [[nodiscard]] static BenchArgs parse(int argc, char** argv, std::string bench);

  [[nodiscard]] bool tracing() const noexcept { return !trace_path.empty(); }
  /// Positional argument `i` as a double, or `fallback` when absent. A
  /// malformed value exits 2 with a message naming the argument.
  [[nodiscard]] double positional_double(std::size_t i, double fallback) const;
};

/// Accumulates named metrics and writes them as deterministic JSON.
class BenchReport {
public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void metric(std::string name, double value);
  /// Fold in every machine-wide counter (names containing '@' are per-entity
  /// detail and stay out of the headline report).
  void add_counters(const trace::Counters& counters);

  /// Write `{"bench": ..., "metrics": {...}}` to `path` (insertion order).
  void write(const std::string& path) const;

private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Standard tail of an instrumented bench: when `tracer` is non-null, write
/// the Perfetto trace / counters CSV named in `args`, fold headline counters
/// into `report`, and print the terminal summary (with per-core attribution
/// when `profile` is given); then write the metrics file.
void finish_bench(const BenchArgs& args, const trace::Tracer* tracer,
                  BenchReport& report, const trace::ProfileReport* profile = nullptr);

}  // namespace epi::util
