// epi-serve scheduler tests: mesh allocation, core reservations, admission /
// aging / retry / timeout policy, and run-over-run determinism.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <vector>

#include "host/system.hpp"
#include "lint/wg_fixtures.hpp"
#include "sched/allocator.hpp"
#include "sched/dag.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/random.hpp"

namespace {

using namespace epi;

// ---- MeshAllocator --------------------------------------------------------

TEST(MeshAllocator, FirstFitIsDeterministic) {
  const std::vector<std::pair<unsigned, unsigned>> requests = {
      {2, 2}, {4, 4}, {1, 8}, {2, 4}, {3, 3}};
  std::vector<sched::Placement> first, second;
  for (auto* out : {&first, &second}) {
    sched::MeshAllocator a({8, 8});
    for (auto [r, c] : requests) {
      auto p = a.place(r, c);
      ASSERT_TRUE(p.has_value());
      out->push_back(*p);
    }
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].origin.row, second[i].origin.row);
    EXPECT_EQ(first[i].origin.col, second[i].origin.col);
    EXPECT_EQ(first[i].rows, second[i].rows);
    EXPECT_EQ(first[i].cols, second[i].cols);
  }
}

TEST(MeshAllocator, ChurnLeavesNoLeakedCores) {
  sched::MeshAllocator a({8, 8});
  std::vector<sched::Placement> live;
  // Interleave placements and frees for a few hundred rounds; the shape mix
  // fragments and re-coalesces the grid.
  const std::pair<unsigned, unsigned> shapes[] = {{1, 1}, {2, 2}, {2, 4}, {4, 4}, {1, 8}};
  for (unsigned round = 0; round < 300; ++round) {
    auto [r, c] = shapes[round % std::size(shapes)];
    if (auto p = a.place(r, c)) live.push_back(*p);
    if (round % 3 == 2 && !live.empty()) {
      a.free(live[live.size() / 2]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2));
    }
  }
  for (const auto& p : live) a.free(p);
  EXPECT_EQ(a.free_cores(), 64u);
  EXPECT_EQ(a.largest_free_rect(), 64u);
  EXPECT_EQ(a.fragmentation(), 0.0);
  // The grid is genuinely empty again: a full-mesh placement succeeds.
  EXPECT_TRUE(a.place(8, 8).has_value());
}

TEST(MeshAllocator, RejectsUnsatisfiableShapes) {
  sched::MeshAllocator a({8, 8});
  EXPECT_FALSE(a.fits_ever(9, 1));
  EXPECT_FALSE(a.fits_ever(1, 9));
  EXPECT_FALSE(a.fits_ever(0, 4));
  EXPECT_FALSE(a.place(9, 9).has_value());
  EXPECT_TRUE(a.fits_ever(8, 8));
  // Rotation admits a shape whose transpose fits.
  EXPECT_TRUE(a.fits_ever(3, 8));
  auto p = a.place(8, 3, /*allow_rotate=*/true);
  ASSERT_TRUE(p.has_value());
}

TEST(MeshAllocator, RotationAndFragmentation) {
  sched::MeshAllocator a({8, 8});
  // Occupy rows 0-5 fully: only a 2x8 strip remains.
  auto big = a.place(6, 8);
  ASSERT_TRUE(big.has_value());
  // 8x2 cannot stand upright any more; rotation lands it in the strip.
  auto p = a.place(8, 2, /*allow_rotate=*/true);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->rotated);
  EXPECT_EQ(p->rows, 2u);
  EXPECT_EQ(p->cols, 8u);
  EXPECT_EQ(a.free_cores(), 0u);
  EXPECT_EQ(a.fragmentation(), 0.0);  // full mesh: no free cores to fragment
  a.free(*p);
  EXPECT_EQ(a.largest_free_rect(), 16u);
  EXPECT_THROW(a.free(*p), std::logic_error);  // double free
}

// ---- core reservations (host::System::open overlap rejection) -------------

TEST(Reservations, OverlappingOpenIsRejected) {
  host::System sys;
  auto wg = sys.open(2, 2, 4, 4);
  try {
    auto overlap = sys.open(4, 4, 2, 2);
    FAIL() << "overlapping open must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already reserved"), std::string::npos)
        << e.what();
  }
  // Disjoint rectangles coexist.
  auto beside = sys.open(0, 0, 2, 2);
  SUCCEED();
}

TEST(Reservations, DestructionReleasesCores) {
  host::System sys;
  {
    auto wg = sys.open(0, 0, 8, 8);
    EXPECT_EQ(sys.machine().reservations().reserved_count(), 64u);
  }
  EXPECT_EQ(sys.machine().reservations().reserved_count(), 0u);
  auto again = sys.open(0, 0, 8, 8);  // fully reusable after release
  SUCCEED();
}

TEST(Reservations, MoveTransfersOwnership) {
  host::System sys;
  auto wg = sys.open(1, 1, 2, 2);
  host::Workgroup moved = std::move(wg);
  EXPECT_EQ(sys.machine().reservations().reserved_count(), 4u);
  EXPECT_THROW((void)sys.open(1, 1, 1, 1), std::runtime_error);
}

// ---- scheduler policy -----------------------------------------------------

sched::JobSpec make_job(std::uint32_t id, unsigned rows, unsigned cols,
                        unsigned prio, sim::Cycles arrival) {
  sched::JobSpec s;
  s.id = id;
  s.kind = sched::JobKind::Offload;
  s.rows = rows;
  s.cols = cols;
  s.priority = prio;
  s.arrival = arrival;
  s.block = 16;
  s.iters = 1;
  return s;
}

TEST(Scheduler, RunsConcurrentWorkgroupsAndResolvesEverything) {
  host::System sys;
  sched::Scheduler sc(sys);
  for (std::uint32_t i = 0; i < 6; ++i) {
    sc.submit(make_job(i, 2, 2, 0, i * 100));
  }
  sc.run();
  EXPECT_GE(sc.peak_resident(), 3u);  // four 2x2s fit side by side
  for (const auto& rec : sc.records()) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << "job " << rec.spec.id;
    EXPECT_GE(rec.finished, rec.started);
  }
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.jobs.completed"), 6.0);
}

TEST(Scheduler, UnsatisfiableShapeAndFullQueueAreRejected) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.queue_capacity = 1;
  sched::Scheduler sc(sys, cfg);
  sc.submit(make_job(0, 9, 9, 0, 0));   // can never fit
  sc.submit(make_job(1, 8, 8, 0, 0));   // placed immediately (queue drains)
  sc.submit(make_job(2, 8, 8, 0, 10));  // waits behind the running 8x8
  sc.submit(make_job(3, 8, 8, 0, 20));  // queue of 1 is full -> rejected
  sc.run();
  const auto& recs = sc.records();
  EXPECT_EQ(recs[0].verdict, sched::Verdict::Rejected);
  EXPECT_NE(recs[0].detail.find("cannot fit"), std::string::npos);
  EXPECT_EQ(recs[1].verdict, sched::Verdict::Completed);
  EXPECT_EQ(recs[2].verdict, sched::Verdict::Completed);
  EXPECT_EQ(recs[3].verdict, sched::Verdict::Rejected);
  EXPECT_NE(recs[3].detail.find("queue full"), std::string::npos);
}

TEST(Scheduler, TimeoutDropsUnstartedJobs) {
  host::System sys;
  sched::Scheduler sc(sys);
  sc.submit(make_job(0, 8, 8, 0, 0));  // holds the whole mesh
  auto starved = make_job(1, 8, 8, 0, 0);
  starved.timeout = 2;  // cannot possibly start within 2 cycles
  sc.submit(starved);
  sc.run();
  EXPECT_EQ(sc.records()[0].verdict, sched::Verdict::Completed);
  EXPECT_EQ(sc.records()[1].verdict, sched::Verdict::TimedOut);
  EXPECT_NE(sc.records()[1].detail.find("not started"), std::string::npos);
}

TEST(Scheduler, LaunchFailuresRetryWithBackoffThenStick) {
  host::System sys;
  sched::Scheduler sc(sys);
  auto flaky = make_job(0, 2, 2, 0, 0);
  flaky.launch_failures = 2;
  sc.submit(flaky);
  auto doomed = make_job(1, 2, 2, 0, 0);
  doomed.launch_failures = 100;  // more than max_attempts
  sc.submit(doomed);
  sc.run();
  EXPECT_EQ(sc.records()[0].verdict, sched::Verdict::Completed);
  EXPECT_EQ(sc.records()[0].attempts, 3u);
  EXPECT_EQ(sc.records()[1].verdict, sched::Verdict::Failed);
  EXPECT_EQ(sc.records()[1].attempts, 4u);  // default max_attempts
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.launch.retries"), 2.0 + 3.0);
}

TEST(Scheduler, AgingPreventsStarvationOfTheBigJob) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.aging_quantum = 20'000;
  cfg.head_block_wait = 60'000;
  sched::Scheduler sc(sys, cfg);
  // One low-priority full-mesh job at t=0 against a continuous stream of
  // small urgent jobs: without aging + head-blocking the 8x8 never finds 64
  // free cores.
  auto big = make_job(0, 8, 8, 0, 0);
  sc.submit(big);
  for (std::uint32_t i = 1; i <= 40; ++i) {
    sc.submit(make_job(i, 2, 2, 3, i * 4'000));
  }
  sc.run();
  EXPECT_EQ(sc.records()[0].verdict, sched::Verdict::Completed)
      << sc.records()[0].detail;
  for (const auto& rec : sc.records()) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << "job " << rec.spec.id;
  }
}

TEST(Scheduler, MixedSeededWorkloadIsDeterministic) {
  sched::TrafficConfig tc;
  tc.jobs = 30;
  tc.seed = 7;
  tc.mean_interarrival = 20'000;
  auto run = [&](std::vector<std::string>& log, std::string& report) {
    host::System sys;
    sched::Scheduler sc(sys);
    for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
    sc.run();
    log = sc.event_log();
    report = sched::render_report(sc);
  };
  std::vector<std::string> log1, log2;
  std::string rep1, rep2;
  run(log1, rep1);
  run(log2, rep2);
  EXPECT_EQ(log1, log2);   // bit-identical scheduler event order
  EXPECT_EQ(rep1, rep2);   // byte-identical report
  EXPECT_FALSE(log1.empty());
}

// Host-pass work is deterministic, so it is pinned exactly: a pass runs for
// every engine event, and a placement attempt is one place_near call. The
// passes match the uncached scheduler's; the attempts are what the
// failed-placement cache left of its calls.
struct PassCounts {
  std::uint64_t passes = 0;
  std::uint64_t attempts = 0;
  friend bool operator==(const PassCounts&, const PassCounts&) = default;
  friend void PrintTo(const PassCounts& c, std::ostream* os) {
    *os << "{passes " << c.passes << ", place_near " << c.attempts << "}";
  }
};

PassCounts pass_counts(const sched::TrafficConfig& tc) {
  host::System sys;
  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  return {sc.host_passes(), sc.place_attempts()};
}

TEST(Scheduler, HostPassAndPlaceAttemptCounts) {
  sched::TrafficConfig mix;  // seed 1, 60 jobs: epi_serve's default stream
  EXPECT_EQ(pass_counts(mix), (PassCounts{19163, 217}));

  sched::TrafficConfig pipelines = mix;
  pipelines.pipeline_frac = 0.25;
  EXPECT_EQ(pass_counts(pipelines), (PassCounts{27908, 318}));

  sched::TrafficConfig overload = mix;
  overload.jobs = 400;
  overload.mean_interarrival = 3'000;
  EXPECT_EQ(pass_counts(overload), (PassCounts{56071, 4253}));
}

// ---- workload spec round-trip ---------------------------------------------

TEST(Workload, SaveLoadRoundTrips) {
  sched::TrafficConfig tc;
  tc.jobs = 12;
  tc.seed = 3;
  const auto jobs = sched::generate(tc);
  const std::string text = sched::save(jobs);
  std::istringstream in(text);
  const auto loaded = sched::load(in);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, jobs[i].id);
    EXPECT_EQ(loaded[i].tenant, jobs[i].tenant);
    EXPECT_EQ(loaded[i].kind, jobs[i].kind);
    EXPECT_EQ(loaded[i].rows, jobs[i].rows);
    EXPECT_EQ(loaded[i].cols, jobs[i].cols);
    EXPECT_EQ(loaded[i].priority, jobs[i].priority);
    EXPECT_EQ(loaded[i].arrival, jobs[i].arrival);
    EXPECT_EQ(loaded[i].deadline, jobs[i].deadline);
    EXPECT_EQ(loaded[i].timeout, jobs[i].timeout);
    EXPECT_EQ(loaded[i].iters, jobs[i].iters);
    EXPECT_EQ(loaded[i].block, jobs[i].block);
    EXPECT_EQ(loaded[i].launch_failures, jobs[i].launch_failures);
  }
  // save() of the loaded stream reproduces the exact bytes.
  EXPECT_EQ(sched::save(loaded), text);
}

TEST(Workload, JobKindNamesRoundTripForEveryKind) {
  // Exhaustive over kAllJobKinds so adding a JobKind without wiring its
  // to_string/parse_kind pair fails here rather than in a spec file later.
  for (const sched::JobKind k : sched::kAllJobKinds) {
    const char* name = sched::to_string(k);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    sched::JobKind parsed{};
    ASSERT_TRUE(sched::parse_kind(name, parsed)) << name;
    EXPECT_EQ(parsed, k) << name;
  }
  sched::JobKind k{};
  EXPECT_FALSE(sched::parse_kind("warp", k));
  EXPECT_FALSE(sched::parse_kind("", k));
  // The shmem kinds spell exactly as the spec-file grammar documents.
  ASSERT_TRUE(sched::parse_kind("cannon", k));
  EXPECT_EQ(k, sched::JobKind::CannonMatmul);
  ASSERT_TRUE(sched::parse_kind("transpose", k));
  EXPECT_EQ(k, sched::JobKind::Transpose);
}

TEST(Workload, GraphSpecsRoundTripForEveryKind) {
  // Exhaustive over kAllJobKinds (minus Custom, which graphs exclude): a
  // graph whose stages cover every drawable kind survives save -> load ->
  // re-save byte-identically, with graph/stage/deps fields intact. This is
  // the graph-serialisation extension of JobKindNamesRoundTripForEveryKind:
  // a new JobKind that breaks either the kind grammar or the pipeline tags
  // fails here before it can corrupt a spec file.
  sched::JobGraph g;
  g.id = 3;
  g.tenant = "erin";
  g.priority = 1;
  g.arrival = 500;
  g.deadline = 4'000'000;
  g.timeout = 8'000'000;
  for (const sched::JobKind k : sched::kAllJobKinds) {
    if (k == sched::JobKind::Custom) continue;
    g.stages.push_back({k, 2, 2, 1, 8});
  }
  ASSERT_GE(g.stages.size(), 2u);
  for (unsigned i = 0; i + 1 < g.stages.size(); ++i) {
    g.edges.push_back({i, i + 1, 1024 * (i + 1)});
  }
  const auto specs = sched::expand_graph(g, 0);
  const std::string text = sched::save(specs);
  std::istringstream in(text);
  const auto loaded = sched::load(in);
  ASSERT_EQ(loaded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, specs[i].kind);
    EXPECT_EQ(loaded[i].graph, specs[i].graph);
    EXPECT_EQ(loaded[i].stage, specs[i].stage);
    EXPECT_EQ(loaded[i].graph_stages, specs[i].graph_stages);
    EXPECT_EQ(loaded[i].deps, specs[i].deps);
    EXPECT_EQ(loaded[i].deadline, specs[i].deadline);
  }
  EXPECT_EQ(sched::save(loaded), text);
  // The re-derived plan expands to the same dependency structure: re-running
  // expand_graph on the original graph matches the loaded stream field-wise.
  const auto replan = sched::expand_graph(g, 0);
  for (std::size_t i = 0; i < replan.size(); ++i) {
    EXPECT_EQ(loaded[i].deps, replan[i].deps);
  }
}

TEST(MeshAllocator, PlaceNearNeverFailsWhenPlaceWouldSucceed) {
  // Property: co-placement is a *scoring* variant, not a feasibility
  // variant -- under mixed pipeline-shaped churn, place_near(anchors) must
  // succeed exactly when plain place() would (admission never deadlocks
  // because a stage asked to sit near its producer).
  sched::MeshAllocator a({8, 8});
  sim::Rng rng(99);
  const std::pair<unsigned, unsigned> shapes[] = {
      {1, 2}, {2, 2}, {2, 4}, {4, 4}, {1, 1}, {2, 8}};
  std::vector<sched::Placement> live;
  std::vector<sched::Placement> anchors;
  unsigned placements = 0;
  for (unsigned round = 0; round < 500; ++round) {
    const auto [r, c] = shapes[rng.next_below(std::size(shapes))];
    if (!anchors.empty() && rng.next_below(2) == 0) anchors.clear();
    // Probe plain first-fit feasibility on a copy of the *same* mesh state,
    // then ask the real allocator for a co-placed rect.
    sched::MeshAllocator probe = a;
    const auto pp = probe.place(r, c, /*allow_rotate=*/true);
    const auto pn = a.place_near(r, c, /*allow_rotate=*/true, anchors);
    ASSERT_EQ(pn.has_value(), pp.has_value())
        << "round " << round << " shape " << r << "x" << c;
    if (pn) {
      ++placements;
      live.push_back(*pn);
      anchors.push_back(*pn);
    }
    if (!live.empty() && rng.next_below(3) == 0) {
      const std::size_t v = rng.next_below(live.size());
      a.free(live[v]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
      anchors.clear();  // stale anchors must still never break feasibility
    }
  }
  EXPECT_GT(placements, 100u);  // the churn actually exercised the mesh
  for (const auto& p : live) a.free(p);
  EXPECT_EQ(a.free_cores(), 64u);
}

TEST(Workload, LoadRejectsMalformedLines) {
  std::istringstream bad1("job id=0 kind=warp rows=1 cols=1\n");
  EXPECT_THROW((void)sched::load(bad1), std::runtime_error);
  std::istringstream bad2("task id=0\n");
  EXPECT_THROW((void)sched::load(bad2), std::runtime_error);
  std::istringstream bad3("job id=0 rows=banana\n");
  EXPECT_THROW((void)sched::load(bad3), std::runtime_error);
  std::istringstream ok("# comment\n\njob id=5 kind=stencil rows=2 cols=3\n");
  const auto jobs = sched::load(ok);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 5u);
  EXPECT_EQ(jobs[0].kind, sched::JobKind::Stencil);
}

TEST(Workload, CustomJobsCannotComeFromSpecFiles) {
  std::istringstream custom("job id=0 kind=custom rows=1 cols=2\n");
  EXPECT_THROW((void)sched::load(custom), std::runtime_error);
}

// ---- admission-time lint gate (custom jobs) -------------------------------

sched::JobSpec custom_job(std::uint32_t id, const lint::fixtures::WgFixture& fx,
                          sim::Cycles arrival = 0) {
  sched::JobSpec s;
  s.id = id;
  s.kind = sched::JobKind::Custom;
  s.rows = fx.rows;
  s.cols = fx.cols;
  s.arrival = arrival;
  s.programs = fx.programs;
  return s;
}

TEST(LintGate, StrictRejectsStaticallyRacyJobBeforePlacement) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.lint = sched::LintMode::Strict;
  sched::Scheduler sc(sys, cfg);
  sc.submit(custom_job(1, lint::fixtures::listing12(/*racy=*/true)));
  sc.run();
  const auto& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Rejected);
  EXPECT_NE(rec.detail.find("lint:"), std::string::npos) << rec.detail;
  EXPECT_NE(rec.detail.find("wg-race"), std::string::npos) << rec.detail;
  EXPECT_EQ(rec.started, 0u);  // rejected at admission, never placed
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.lint.rejects"), 1.0);
  // The decision log carries a structured lint-reject line.
  bool logged = false;
  for (const auto& line : sc.event_log()) {
    logged |= line.find("lint-reject job=1") != std::string::npos;
  }
  EXPECT_TRUE(logged);
}

TEST(LintGate, StrictAdmitsAndCompletesTheCleanTwin) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.lint = sched::LintMode::Strict;
  sched::Scheduler sc(sys, cfg);
  sc.submit(custom_job(1, lint::fixtures::listing12(/*racy=*/false)));
  sc.submit(custom_job(2, lint::fixtures::barrier_exchange(), 10));
  sc.run();
  for (const auto& rec : sc.records()) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.lint.rejects"), 0.0);
}

TEST(LintGate, StrictRejectsRacyShmemConsumerAndCompletesItsCleanTwin) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.lint = sched::LintMode::Strict;
  sched::Scheduler sc(sys, cfg);
  sc.submit(custom_job(1, lint::fixtures::shmem_put_signal(/*racy=*/true)));
  sc.submit(custom_job(2, lint::fixtures::shmem_put_signal(/*racy=*/false), 10));
  sc.run();
  const auto& racy = sc.records()[0];
  EXPECT_EQ(racy.verdict, sched::Verdict::Rejected);
  EXPECT_NE(racy.detail.find("wg-race"), std::string::npos) << racy.detail;
  EXPECT_EQ(racy.started, 0u);
  const auto& clean = sc.records()[1];
  EXPECT_EQ(clean.verdict, sched::Verdict::Completed) << clean.detail;
}

TEST(LintGate, WarnLogsButAdmits) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.lint = sched::LintMode::Warn;
  sched::Scheduler sc(sys, cfg);
  sc.submit(custom_job(1, lint::fixtures::listing12(/*racy=*/true)));
  sc.run();
  const auto& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  bool warned = false;
  for (const auto& line : sc.event_log()) {
    warned |= line.find("lint-warn job=1") != std::string::npos;
  }
  EXPECT_TRUE(warned);
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.lint.warnings"), 1.0);
}

TEST(LintGate, OffStillRejectsProgramsThatDoNotAssemble) {
  host::System sys;
  sched::Scheduler sc(sys);  // default config: lint off
  lint::fixtures::WgFixture fx;
  fx.rows = 1;
  fx.cols = 1;
  fx.programs.emplace_back("broken", "frobnicate r1, r2\nhalt\n");
  sc.submit(custom_job(1, fx));
  sc.run();
  const auto& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Rejected);
  EXPECT_NE(rec.detail.find("lint:"), std::string::npos) << rec.detail;
}

TEST(LintGate, OffAdmitsTheRacyJobUnchecked) {
  host::System sys;
  sched::Scheduler sc(sys);  // default config: lint off
  sc.submit(custom_job(1, lint::fixtures::listing12(/*racy=*/true)));
  sc.run();
  // Off preserves pre-gate behaviour: the job runs (the serving model
  // executes custom programs solo, so the latent race does not bite here).
  EXPECT_EQ(sc.records()[0].verdict, sched::Verdict::Completed);
}

TEST(LintGate, RejectionIsDeterministic) {
  const auto once = [] {
    host::System sys;
    sched::SchedConfig cfg;
    cfg.lint = sched::LintMode::Strict;
    sched::Scheduler sc(sys, cfg);
    sc.submit(custom_job(1, lint::fixtures::listing12(/*racy=*/true)));
    sc.submit(custom_job(2, lint::fixtures::listing12(/*racy=*/false), 5));
    sc.submit(custom_job(3, lint::fixtures::shmem_put_signal(/*racy=*/true), 10));
    sc.submit(custom_job(4, lint::fixtures::shmem_put_signal(/*racy=*/false), 15));
    sc.run();
    std::string all;
    for (const auto& rec : sc.records()) all += rec.detail + "|";
    for (const auto& line : sc.event_log()) all += "\n" + line;
    return all;
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
