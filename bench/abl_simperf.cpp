// Simulator self-benchmark (google-benchmark): wall-clock throughput of the
// discrete-event engine and of representative end-to-end experiments. This
// is the one place where host wall-clock is the right metric -- it bounds
// how large a modelled experiment is practical.
//
// Unless the caller passes --benchmark_out=..., results are also written as
// machine-readable JSON to BENCH_simperf.json in the working directory
// (scripts/bench.sh runs this from the repository root; the committed
// BENCH_simperf.json is the regression baseline CI compares against).
//
// The binary refuses to run when built without NDEBUG: throughput numbers
// from unoptimised builds are meaningless and have polluted results before.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/matmul.hpp"
#include "core/stencil.hpp"
#include "host/system.hpp"
#include "mem/memory_system.hpp"
#include "sched/cluster.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace {

using namespace epi;

// ---- engine event queue ---------------------------------------------------

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 100; ++i) {
      sim::spawn(e, [](sim::Engine& eng) -> sim::Op<void> {
        for (int k = 0; k < 100; ++k) co_await sim::delay(eng, 3);
      }(e));
    }
    e.run();
    state.counters["events"] = static_cast<double>(e.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 100 * 100);
}
BENCHMARK(BM_EngineEventThroughput);

// Delays beyond the engine's near-future ring: every event takes the
// overflow-heap path, so this isolates the slow tier of the two-level queue.
void BM_EngineFarHorizon(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 100; ++i) {
      sim::spawn(e, [](sim::Engine& eng) -> sim::Op<void> {
        for (int k = 0; k < 50; ++k) co_await sim::delay(eng, 6000);
      }(e));
    }
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * 50);
}
BENCHMARK(BM_EngineFarHorizon);

// ---- wait/notify ----------------------------------------------------------

// FIFO churn on one WaitQueue: 64 parked processes, woken one per cycle.
// Exercises the head-indexed waiter list (notify_one used to erase from the
// front of a vector, making each wake O(waiters)).
void BM_WaitNotifyChurn(benchmark::State& state) {
  constexpr int kWaiters = 64;
  constexpr int kRounds = 50;
  for (auto _ : state) {
    sim::Engine e;
    sim::WaitQueue q(e);
    long woken = 0;
    for (int i = 0; i < kWaiters; ++i) {
      sim::spawn(e, [](sim::WaitQueue& wq, long& w) -> sim::Op<void> {
        for (int r = 0; r < kRounds; ++r) {
          co_await wq.wait();
          ++w;
        }
      }(q, woken));
    }
    sim::spawn(e, [](sim::Engine& eng, sim::WaitQueue& wq) -> sim::Op<void> {
      for (int n = 0; n < kWaiters * kRounds; ++n) {
        wq.notify_one();
        co_await sim::delay(eng, 1);
      }
    }(e, q));
    e.run();
    benchmark::DoNotOptimize(woken);
  }
  state.SetItemsProcessed(state.iterations() * kWaiters * kRounds);
}
BENCHMARK(BM_WaitNotifyChurn);

// ---- coroutine frame allocation -------------------------------------------

sim::Op<void> tick_child(sim::Engine& e) { co_await sim::delay(e, 1); }

// Frame churn: one driver awaiting thousands of short-lived child Ops. Each
// child is a fresh coroutine frame, so this measures FramePool's free-list
// recycling against the global allocator it replaced. The pool is trimmed
// first so the timed region includes the cold build-up.
void BM_FrameAllocation(benchmark::State& state) {
  sim::FramePool::trim();
  const auto before = sim::FramePool::stats();
  for (auto _ : state) {
    sim::Engine e;
    sim::spawn(e, [](sim::Engine& eng) -> sim::Op<void> {
      for (int k = 0; k < 1000; ++k) co_await tick_child(eng);
    }(e));
    e.run();
  }
  const auto after = sim::FramePool::stats();
  const double allocs = static_cast<double>(after.allocated - before.allocated);
  const double recycled = static_cast<double>(after.recycled - before.recycled);
  state.counters["recycle_rate"] = allocs > 0 ? recycled / allocs : 0.0;
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FrameAllocation);

// ---- memory watches --------------------------------------------------------

// Flag-spin wake-up: 64 watchers each on their own core's flag word, one
// writer bumping every flag once per generation. Exercises the
// address-interval watch index (waking a watcher used to scan every watch
// in the machine on every store).
void BM_MemoryWatchNotify(benchmark::State& state) {
  constexpr std::uint32_t kGens = 20;
  // Engine and memory live across iterations (constructing the 32 MB
  // external window would otherwise dominate); each iteration works on a
  // fresh generation band so every wait really parks on a watch.
  sim::Engine e;
  mem::MemorySystem mem(arch::MeshDims{8, 8}, e);
  std::uint32_t base = 0;
  for (auto _ : state) {
    for (unsigned idx = 0; idx < 64; ++idx) {
      const arch::CoreCoord c{idx / 8, idx % 8};
      const arch::Addr flag = mem.map().global(c, 0x100);
      sim::spawn(e, [](mem::MemorySystem& m, arch::CoreCoord cc, arch::Addr a,
                       std::uint32_t b) -> sim::Op<void> {
        for (std::uint32_t g = 1; g <= kGens; ++g) {
          co_await m.wait_u32(a, cc, [b, g](std::uint32_t v) { return v >= b + g; });
        }
      }(mem, c, flag, base));
    }
    sim::spawn(e, [](sim::Engine& eng, mem::MemorySystem& m,
                     std::uint32_t b) -> sim::Op<void> {
      for (std::uint32_t g = 1; g <= kGens; ++g) {
        for (unsigned idx = 0; idx < 64; ++idx) {
          const arch::CoreCoord c{idx / 8, idx % 8};
          m.write_value<std::uint32_t>(m.map().global(c, 0x100), b + g, {0, 0});
        }
        co_await sim::delay(eng, 2);
      }
    }(e, mem, base));
    e.run();
    base += kGens;
  }
  state.SetItemsProcessed(state.iterations() * 64 * kGens);
}
BENCHMARK(BM_MemoryWatchNotify);

// ---- end-to-end experiments ------------------------------------------------

void BM_Stencil64Core(benchmark::State& state) {
  for (auto _ : state) {
    host::System sys;
    core::StencilConfig cfg;
    cfg.rows = 20;
    cfg.cols = 20;
    cfg.iters = static_cast<unsigned>(state.range(0));
    auto ex = core::run_stencil_experiment(sys, 8, 8, cfg, 1, false);
    benchmark::DoNotOptimize(ex.result.cycles);
  }
}
BENCHMARK(BM_Stencil64Core)->Arg(5)->Arg(20);

void BM_MatmulOnChip(benchmark::State& state) {
  for (auto _ : state) {
    host::System sys;
    auto r = core::run_matmul_onchip(sys, static_cast<unsigned>(state.range(0)), 16,
                                     core::Codegen::TunedAsm, 1, false);
    benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_MatmulOnChip)->Arg(2)->Arg(4)->Arg(8);

void BM_BarrierRound(benchmark::State& state) {
  for (auto _ : state) {
    host::System sys;
    auto wg = sys.open(0, 0, 8, 8);
    wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
      return [](device::CoreCtx& c) -> sim::Op<void> {
        for (int k = 0; k < 10; ++k) co_await c.barrier();
      }(ctx);
    });
    benchmark::DoNotOptimize(wg.run());
  }
}
BENCHMARK(BM_BarrierRound);

// ---- parallel PDES cluster serving ----------------------------------------

// Wall-clock cost of serving a chip grid through the conservative PDES
// executor, swept over worker counts {1, 2, 4, 8}. This is the speedup
// measurement for --parallel=N: simulated work and output bytes are
// identical for every worker count (the determinism goldens pin that), so
// real_time ratios between rows ARE the parallel speedup. UseRealTime is
// essential: the workers burn CPU time on other threads, so cpu_time of the
// benchmark thread would undercount a parallel run.
//
// The `workers` counter records the executor's actual thread count -- the
// per-benchmark "threads" field stays 1 because google-benchmark only
// counts its own harness threads, not the threads under test.
void BM_ClusterServe(benchmark::State& state) {
  const auto grid = static_cast<unsigned>(state.range(0));  // chips per side
  const auto workers = static_cast<unsigned>(state.range(1));
  sched::ClusterConfig cfg;
  cfg.chip_rows = cfg.chip_cols = grid;
  cfg.traffic.jobs = 12;
  cfg.traffic.seed = 3;
  cfg.traffic.mean_interarrival = 30'000;
  cfg.remote_frac = 0.25;
  std::uint64_t windows = 0;
  sim::Cycles makespan = 0;
  for (auto _ : state) {
    sched::ClusterScheduler cs(cfg);
    cs.run(workers);
    windows = cs.stats().windows;
    makespan = cs.stats().makespan;
    benchmark::DoNotOptimize(makespan);
  }
  state.counters["workers"] = workers;
  state.counters["chips"] = grid * grid;
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["sim_cycles"] = static_cast<double>(makespan);
  state.SetItemsProcessed(state.iterations() * grid * grid * cfg.traffic.jobs);
}
BENCHMARK(BM_ClusterServe)
    ->UseRealTime()
    ->ArgNames({"grid", "workers"})
    ->Args({2, 1})->Args({2, 2})->Args({2, 4})->Args({2, 8})
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8});

/// The git commit of the source tree this binary was built from, or
/// "unknown" outside a git checkout.
[[maybe_unused]] std::string source_revision() {
  std::string rev;
  std::unique_ptr<FILE, int (*)(FILE*)> git(
      popen("git -C '" EPI_SOURCE_DIR "' rev-parse HEAD 2>/dev/null", "r"), pclose);
  if (git) {
    char buf[64] = {};
    while (std::fgets(buf, sizeof buf, git.get()) != nullptr) rev += buf;
    if (pclose(git.release()) != 0) rev.clear();
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "abl_simperf: refusing to run: this binary was built without NDEBUG\n"
               "(Debug or unspecified build type). Simulator throughput numbers from\n"
               "unoptimised builds are meaningless; build with\n"
               "-DCMAKE_BUILD_TYPE=Release (scripts/bench.sh does this).\n");
  return 2;
#else
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_simperf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int eff_argc = static_cast<int>(args.size());
  benchmark::Initialize(&eff_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(eff_argc, args.data())) return 1;
  // The per-benchmark "threads" field only counts google-benchmark harness
  // threads (always 1 here); record the machine's real parallelism and the
  // executor worker sweep in the context block so BENCH_simperf.json says
  // what hardware the BM_ClusterServe speedups were measured on.
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("cluster_worker_sweep", "1,2,4,8");
  // google-benchmark's own "library_build_type" describes the installed
  // library, not this binary; say what was built and from which commit.
  benchmark::AddCustomContext("epi_build_type", EPI_BUILD_TYPE);
  benchmark::AddCustomContext("git_revision", source_revision());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#endif
}
