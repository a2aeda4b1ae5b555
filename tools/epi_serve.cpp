// epi-serve: replay a multi-tenant job workload against the simulated 8x8
// mesh and report what the scheduler did with it.
//
// With --spec=FILE the workload is read from a workload-spec text file (see
// src/sched/workload.hpp for the format); otherwise a seeded stream is
// generated, and --spec-out can save it for later byte-identical replays.
//
// Usage:
//   epi_serve [options]
//     --spec=FILE        replay a workload spec instead of generating one
//     --jobs=N           generated stream length            (default 60)
//     --seed=S           traffic seed                       (default 1)
//     --interarrival=C   mean cycles between arrivals       (default 30000)
//     --queue=N          admission queue capacity           (default 64)
//     --pipelines=F      fraction of generated requests drawn as multi-kernel
//                        pipelines (job graphs with tensor handoffs between
//                        stages; see src/sched/dag.hpp)       (default 0)
//     --spec-out=FILE    write the workload spec that was run
//     --report=FILE      write the run report to FILE as well as stdout
//     --log              print the scheduler's decision log (with --plan, the
//                        injection log first: every fault the plan applied)
//     --trace=FILE       Perfetto trace of the whole serving run
//     --plan=FILE        arm a fault-injection plan (see src/fault/plan.hpp);
//                        the watchdog defaults on (400000 cycles) so silent
//                        stalls become FaultReports instead of deadlocks
//     --watchdog=C       per-job silence budget in cycles (0 disables)
//     --strict           exit non-zero if any job ends with a Failed verdict
//                        (default: failures are reported but tolerated --
//                        a degraded chip keeps serving)
//     --lint=MODE        admission-time static verification of custom jobs:
//                        off (default), warn (log findings, admit anyway), or
//                        strict (reject jobs with error-severity findings
//                        before placement)
//     --asm=F1[,F2...]   serve the given eCore .s files as one custom job
//                        instead of a generated stream (1 file replicates
//                        SPMD-style; else give rows*cols files in row-major
//                        order)
//     --asm-shape=RxC    workgroup shape for --asm              (default 1x1)
//
// Cluster (multi-chip xMesh) mode -- each chip is one conservative-PDES
// domain with its own engine and scheduler, advanced in parallel windows:
//     --chips=RxC        serve an RxC chip grid instead of one chip; each
//                        chip gets its own seeded stream of --jobs jobs and
//                        a --remote-frac fraction is forwarded over the
//                        xMesh bridge to another chip's scheduler
//     --parallel=N       worker threads for the cluster run (default 1;
//                        reports are byte-identical for every N)
//     --remote-frac=F    fraction of each chip's stream homed off-chip
//                        (default 0.25)
//     --plan=FILE        in cluster mode: a cluster fault plan (`chips RxC`
//                        grammar) -- chip-crash/chip-stall/xmesh/notice
//                        faults arm the failover stack (heartbeat watchdogs,
//                        quarantine, re-forwarding with idempotent dedup);
//                        chip-tagged machine faults go to that chip's
//                        injector. Recovery decisions land in the report.
//     --trace=FILE       in cluster mode: Perfetto trace with one process
//                        per chip (per-chip sched.cluster.chipN.* counters
//                        land on that chip's counter track)
//
// Generated streams mix matmul, stencil, DRAM-window offload, and the
// epi-shmem cannon/transpose PGAS workloads (see src/sched/workload.hpp).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/parse.hpp"

namespace {

using namespace epi;

struct Options {
  std::string spec_path;
  unsigned jobs = 60;
  std::uint64_t seed = 1;
  sim::Cycles interarrival = 30'000;
  std::size_t queue = 64;
  std::string spec_out;
  std::string report_path;
  std::string trace_path;
  std::string plan_path;
  sim::Cycles watchdog = 0;
  bool watchdog_set = false;
  bool strict = false;
  bool print_log = false;
  sched::LintMode lint = sched::LintMode::Off;
  std::string asm_files;       // comma-separated .s paths for one custom job
  unsigned asm_rows = 1, asm_cols = 1;
  unsigned chip_rows = 0, chip_cols = 0;  // 0 = single-chip mode
  unsigned parallel = 1;
  double remote_frac = 0.25;
  double pipelines = 0.0;
};

/// One custom job from comma-separated .s paths.
sched::JobSpec custom_job(const std::string& files, unsigned rows, unsigned cols) {
  sched::JobSpec s;
  s.kind = sched::JobKind::Custom;
  s.rows = rows;
  s.cols = cols;
  std::size_t start = 0;
  while (start <= files.size()) {
    const auto comma = files.find(',', start);
    const std::string path =
        files.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (!path.empty()) {
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open program: " + path);
      std::ostringstream text;
      text << in.rdbuf();
      s.programs.emplace_back(path, text.str());
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (s.programs.empty()) throw std::runtime_error("--asm names no programs");
  return s;
}

/// Cluster mode: serve an RxC chip grid through the parallel PDES executor.
/// The report is byte-identical for every worker count.
int run_cluster(const Options& opt) {
  if (!opt.spec_path.empty() || !opt.asm_files.empty()) {
    std::fprintf(stderr,
                 "epi_serve: --spec/--asm are single-chip flags; cluster "
                 "mode generates its own per-chip streams\n");
    return 2;
  }
  sched::ClusterConfig cc;
  cc.chip_rows = opt.chip_rows;
  cc.chip_cols = opt.chip_cols;
  cc.traffic.jobs = opt.jobs;
  cc.traffic.seed = opt.seed;
  cc.traffic.mean_interarrival = opt.interarrival;
  cc.traffic.pipeline_frac = opt.pipelines;
  cc.sched.queue_capacity = opt.queue;
  cc.sched.lint = opt.lint;
  // In cluster mode --plan carries the cluster grammar (`chips RxC` plus
  // chip-scoped faults, see src/fault/plan.hpp); chip-tagged machine faults
  // arm the per-job watchdog by default, same as single-chip plans do.
  if (!opt.plan_path.empty()) cc.cluster_plan = fault::load_file(opt.plan_path);
  if (opt.watchdog_set) {
    cc.sched.watchdog_cycles = opt.watchdog;
  } else if (!opt.plan_path.empty()) {
    cc.sched.watchdog_cycles = 400'000;
  }
  cc.remote_frac = opt.remote_frac;
  cc.trace = !opt.trace_path.empty();

  std::cout << "serving a " << opt.chip_rows << "x" << opt.chip_cols
            << " chip grid: " << opt.jobs << " jobs/chip (seed " << opt.seed
            << "), remote-frac " << opt.remote_frac << ", --parallel="
            << opt.parallel << "\n\n";
  sched::ClusterScheduler cs(cc);
  const auto t0 = std::chrono::steady_clock::now();
  cs.run(opt.parallel);
  const double wall =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cc.trace) {
    std::ofstream os(opt.trace_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write trace file: " + opt.trace_path);
    cs.write_trace(os);
  }
  const std::string report = cs.report();
  std::cout << report;
  // Timing is narrative only -- never part of the report bytes.
  std::printf(
      "\nwall-clock: %.1f ms with %u worker thread(s) (%u hardware threads)\n",
      wall, opt.parallel, std::thread::hardware_concurrency());
  if (!opt.report_path.empty()) {
    std::ofstream os(opt.report_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write report: " + opt.report_path);
    os << report;
  }
  return 0;
}

/// Single-chip mode: serve a generated, replayed or --asm workload.
int run_chip(const Options& opt) {
  std::vector<sched::JobSpec> jobs;
  if (!opt.asm_files.empty()) {
    jobs.push_back(custom_job(opt.asm_files, opt.asm_rows, opt.asm_cols));
    std::cout << "serving " << jobs[0].programs.size() << " custom program(s) as a "
              << opt.asm_rows << "x" << opt.asm_cols
              << " workgroup (lint=" << to_string(opt.lint) << ")\n\n";
  } else if (!opt.spec_path.empty()) {
    jobs = sched::load_file(opt.spec_path);
    std::cout << "replaying " << jobs.size() << " jobs from " << opt.spec_path << "\n\n";
  } else {
    sched::TrafficConfig tc;
    tc.jobs = opt.jobs;
    tc.seed = opt.seed;
    tc.mean_interarrival = opt.interarrival;
    tc.pipeline_frac = opt.pipelines;
    jobs = sched::generate(tc);
    std::cout << "generated " << jobs.size() << " jobs (seed " << opt.seed
              << ", mean interarrival " << opt.interarrival << " cycles)\n\n";
  }
  if (!opt.spec_out.empty()) {
    std::ofstream os(opt.spec_out, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write spec: " + opt.spec_out);
    os << sched::save(jobs);
  }

  host::System sys;
  if (!opt.trace_path.empty()) sys.machine().enable_tracing();
  if (!opt.plan_path.empty()) {
    sys.machine().enable_faults(fault::load_file(opt.plan_path));
  }
  sched::SchedConfig cfg;
  cfg.queue_capacity = opt.queue;
  cfg.lint = opt.lint;
  // With a plan armed, silent stalls are expected: default the watchdog on
  // so they become FaultReports instead of an engine deadlock.
  cfg.watchdog_cycles =
      opt.watchdog_set ? opt.watchdog : (opt.plan_path.empty() ? 0 : 400'000);
  sched::Scheduler sc(sys, cfg);
  for (const auto& spec : jobs) sc.submit(spec);
  sc.run();
  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write trace file: " + opt.trace_path);
    trace::write_chrome_trace(os, *sys.machine().tracer());
  }

  const std::string report = sched::render_report(sc);
  std::cout << report;
  if (!sc.fault_log().empty()) {
    std::cout << "\n-- fault log --\n";
    for (const auto& r : sc.fault_log()) std::cout << fault::to_line(r) << "\n";
  }
  if (opt.print_log) {
    if (const auto* inj = sys.machine().faults()) {
      std::cout << "\n-- injections --\n";
      for (const auto& line : inj->injections()) std::cout << line << "\n";
    }
    std::cout << "\n-- decision log --\n";
    for (const auto& line : sc.event_log()) std::cout << line << "\n";
  }
  if (!opt.report_path.empty()) {
    std::ofstream os(opt.report_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write report: " + opt.report_path);
    os << report;
  }
  if (!opt.trace_path.empty()) {
    std::cout << "\nWrote Perfetto trace to " << opt.trace_path
              << " (open at ui.perfetto.dev; ts is in cycles)\n";
  }

  unsigned unresolved = 0, failed = 0;
  std::vector<const sched::JobRecord*> rejected;
  for (const auto& rec : sc.records()) {
    if (rec.verdict == sched::Verdict::Pending) ++unresolved;
    if (rec.verdict == sched::Verdict::Failed) ++failed;
    if (rec.verdict == sched::Verdict::Rejected) rejected.push_back(&rec);
  }
  if (unresolved != 0) {
    std::fprintf(stderr, "epi_serve: FAIL: %u jobs left without a verdict\n", unresolved);
    return 1;
  }
  if (!opt.asm_files.empty() && !rejected.empty()) {
    for (const auto* rec : rejected) {
      std::fprintf(stderr, "epi_serve: rejected: job %u: %s\n", rec->spec.id,
                   rec->detail.c_str());
    }
    return 1;
  }
  if (opt.strict && failed != 0) {
    std::fprintf(stderr, "epi_serve: --strict: %u jobs failed\n", failed);
    return 1;
  }
  return 0;
}

/// Read the command line into `opt`; throws util::ParseError naming the
/// flag on a malformed or unknown argument.
void parse_args(int argc, char** argv, Options& opt) {
  std::string val;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const util::Flag f(arg);
    if (f.text("--spec", opt.spec_path) || f.text("--spec-out", opt.spec_out) ||
        f.text("--report", opt.report_path) || f.text("--trace", opt.trace_path) ||
        f.text("--plan", opt.plan_path) || f.text("--asm", opt.asm_files) ||
        f.number("--jobs", opt.jobs) || f.number("--seed", opt.seed) ||
        f.number("--interarrival", opt.interarrival) ||
        f.number("--queue", opt.queue) || f.fraction("--remote-frac", opt.remote_frac) ||
        f.fraction("--pipelines", opt.pipelines) ||
        f.shape("--chips", opt.chip_rows, opt.chip_cols)) {
      continue;
    }
    if (f.number("--watchdog", opt.watchdog)) {
      opt.watchdog_set = true;
    } else if (f.number("--parallel", opt.parallel)) {
      if (opt.parallel == 0) throw util::ParseError("--parallel needs at least 1 worker");
    } else if (f.shape("--asm-shape", opt.asm_rows, opt.asm_cols)) {
      if (opt.asm_rows > 8 || opt.asm_cols > 8) {
        throw util::ParseError("--asm-shape must fit the 8x8 mesh");
      }
    } else if (f.text("--lint", val)) {
      if (val == "off") opt.lint = sched::LintMode::Off;
      else if (val == "warn") opt.lint = sched::LintMode::Warn;
      else if (val == "strict") opt.lint = sched::LintMode::Strict;
      else throw util::ParseError("--lint needs off|warn|strict");
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--log") {
      opt.print_log = true;
    } else {
      throw util::ParseError("unknown argument '" + std::string(arg) +
                             "' (see the header of tools/epi_serve.cpp)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    parse_args(argc, argv, opt);
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "epi_serve: %s\n", e.what());
    return 2;
  }
  try {
    return opt.chip_rows != 0 ? run_cluster(opt) : run_chip(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_serve: error: %s\n", e.what());
    return 1;
  }
}
