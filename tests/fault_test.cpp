// Fault injection, detection and recovery tests: plan parsing errors,
// watchdog semantics (exactly one report per stuck group, no report for a
// merely-slow job), quarantine + relocation, transfer-CRC plumbing, and the
// byte-identity of same-plan runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/crc.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace {

using namespace epi;

// ---- CRC ------------------------------------------------------------------

TEST(FaultCrc, MatchesKnownVectorAndChains) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  std::byte digits[9];
  for (std::size_t i = 0; i < 9; ++i) digits[i] = static_cast<std::byte>('1' + i);
  EXPECT_EQ(fault::crc32(digits), 0xCBF43926u);
  // Chaining over a split buffer equals the one-shot CRC.
  const auto head = fault::crc32(std::span<const std::byte>{digits, 4});
  EXPECT_EQ(fault::crc32(std::span<const std::byte>{digits + 4, 5}, head),
            0xCBF43926u);
  // A single flipped bit changes the CRC.
  digits[3] ^= std::byte{0x10};
  EXPECT_NE(fault::crc32(digits), 0xCBF43926u);
}

// ---- parser error reporting ----------------------------------------------

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)fault::parse(in, "plan");
  } catch (const fault::FaultError& e) {
    return e.what();
  }
  return {};
}

// One malformed input: its exact `source:line:` prefix and a phrase the
// message must contain.
struct BadInput {
  const char* text;
  const char* where;
  const char* says;
};

TEST(FaultPlanParser, ErrorsCarrySourceAndLine) {
  const BadInput cases[] = {
      {"kill core=2,3\n", "plan:1:", "needs at="},
      {"seed 5\n\n# ok\nwobble at=3\n", "plan:4:", "unknown directive 'wobble'"},
      {"stall core=1,1 at=5 for=0\n", "plan:1:", "for=CYCLES > 0"},
      {"mem-flip region=rom at=0\n", "plan:1:", "'dram' or 'scratch'"},
      {"kill core=1,1 at=soon\n", "plan:1:", "non-numeric"},
      // Numbers are whole-token unsigned decimals that fit their field:
      // nothing is truncated, wrapped or read up to the first bad byte.
      {"kill core=4294967297,2 at=5\n", "plan:1:", "needs row,col"},
      {"kill core=-1,2 at=5\n", "plan:1:", "needs row,col"},
      {"kill core=1,1 at=12abc\n", "plan:1:", "non-numeric"},
      {"kill core=1,1 at=0x10\n", "plan:1:", "non-numeric"},
      {"seed 3\nkill core=1,1 at=-5\n", "plan:2:", "non-numeric"},
      {"kill core=1,2x at=5\n", "plan:1:", "needs row,col"},
      {"elink-flip kind=write at=0 count=4294967297\n", "plan:1:", "out of range"},
      {"seed 18446744073709551616\n", "plan:1:", "seed value"},
      {"chips 2x2x\n", "plan:1:", "not RxC"},
      {"kill core=1,1 at=5 at=6\n", "plan:1:", "duplicate field 'at'"},
      // Each directive takes only its own fields.
      {"kill core=1,1 at=5 for=9\n", "plan:1:", "unknown field 'for'"},
      {"link router=4,4 at=5\n", "plan:1:", "dir="},
      {"seed 7 8\n", "plan:1:", "exactly one value"},
      // The parser cases formerly checked by `epi_fault --selftest`.
      {"seed 5\nfrob core=1,1 at=10\n", "plan:2:", "unknown directive 'frob'"},
      {"link router=4 dir=east at=5 for=0\n", "plan:1:", "needs row,col"},
      {"mem-flip region=attic at=0 for=0 count=1\n", "plan:1:", "'dram' or 'scratch'"},
      {"seed banana\n", "plan:1:", "seed value 'banana'"},
      {"chips 2x2\nchip-crash chip=0,0 at=10 id=3\n"
       "chip-stall chip=0,1 at=20 for=50 id=3\n",
       "plan:3:", "duplicate fault id 3"},
      {"chips 2x2\nchip-crash chip=2,0 at=10\n", "plan:2:", "outside the 2x2 chip grid"},
      {"chips 2x2\nxmesh from=0,1 to=3,3 at=5 for=100\n", "plan:2:",
       "outside the 2x2 chip grid"},
      {"chips 2x2\nxmesh from=0,0 to=0,0 at=5 for=100\n", "plan:2:", "must differ"},
      {"chip-stall chip=0,0 at=5 for=100\n", "plan:1:", "needs a prior 'chips RxC'"},
      {"seed 1\nchips 2x2\nchips 2x2\n", "plan:3:", "duplicate 'chips'"},
  };
  for (const BadInput& c : cases) {
    const std::string msg = parse_error(c.text);
    EXPECT_EQ(msg.substr(0, std::string(c.where).size()), c.where) << c.text << msg;
    EXPECT_NE(msg.find(c.says), std::string::npos) << c.text << msg;
  }
}

TEST(FaultPlanParser, RoundTripsThroughText) {
  fault::ChaosConfig cc;
  cc.seed = 99;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.core_stalls = 2;
  cc.link_faults = 3;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 2;
  const fault::FaultPlan plan = fault::generate(cc);
  const std::string text = fault::save(plan);
  std::istringstream in(text);
  EXPECT_EQ(fault::save(fault::parse(in)), text);
}

TEST(FaultPlanGenerator, SameSeedIsByteIdenticalAndSeedMovesThePlan) {
  fault::ChaosConfig cc;
  cc.seed = 7;
  cc.dims = {8, 8};
  cc.core_kills = 2;
  cc.core_stalls = 2;
  cc.link_faults = 6;
  cc.elink_outages = 2;
  cc.elink_flips = 2;
  cc.mem_flips = 2;
  const std::string a = fault::save(fault::generate(cc));
  EXPECT_EQ(fault::save(fault::generate(cc)), a);
  cc.seed = 8;
  EXPECT_NE(fault::save(fault::generate(cc)), a);
}

TEST(WorkloadParser, ErrorsCarrySourceAndLine) {
  const auto err = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      (void)sched::load(in, "wl");
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  };
  const BadInput cases[] = {
      {"task id=0\n", "wl:1:", "expected 'job'"},
      {"# fine\njob id=0 kind=sort\n", "wl:2:", "unknown kind 'sort'"},
      {"job id=0 kind=matmul rows=0 cols=2 arrival=0\n", "wl:1:", "at least 1x1"},
      {"job id=zero kind=matmul rows=1 cols=1 arrival=0\n", "wl:1:", "non-numeric"},
      {"job id=0 kind=matmul rows=4294967297 cols=1\n", "wl:1:", "out of range"},
      {"job id=0 kind=matmul rows=-1 cols=1\n", "wl:1:", "non-numeric"},
      {"\njob id=0 kind=matmul arrival=12abc\n", "wl:2:", "non-numeric"},
      {"job id=0 kind=matmul deadline=0x10\n", "wl:1:", "non-numeric"},
      {"job id=0 kind=matmul timeout=-5\n", "wl:1:", "non-numeric"},
      {"job id=1 kind=offload graph=1 stage=1 stages=2 deps=0:2048x\n", "wl:1:",
       "'0:2048x' is not id:bytes"},
      {"job id=1 kind=offload graph=1 stage=1 stages=2 deps=0:1:2\n", "wl:1:",
       "is not id:bytes"},
      {"job id=0 kind=matmul rows=1 rows=2\n", "wl:1:", "duplicate field 'rows'"},
      {"job id=0 kind=matmul size=2\n", "wl:1:", "unknown field 'size'"},
  };
  for (const BadInput& c : cases) {
    const std::string msg = err(c.text);
    EXPECT_EQ(msg.substr(0, std::string(c.where).size()), c.where) << c.text << msg;
    EXPECT_NE(msg.find(c.says), std::string::npos) << c.text << msg;
  }
}

// ---- watchdog semantics ---------------------------------------------------

fault::FaultPlan kill_plan(unsigned row, unsigned col, sim::Cycles at) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::KillCore;
  e.core = {row, col};
  e.at = at;
  plan.events.push_back(e);
  return plan;
}

sched::JobSpec lone_matmul(unsigned iters) {
  sched::JobSpec s;
  s.id = 0;
  s.kind = sched::JobKind::Matmul;
  s.rows = 1;
  s.cols = 1;
  s.iters = iters;
  s.block = 16;
  return s;
}

// A cluster plan armed on one machine is refused, never served with its
// chip-level faults silently dropped.
TEST(FaultInjector, RejectsClusterPlansOnOneChip) {
  fault::FaultPlan chip_scoped;  // a chip-crash with its grid taken away
  chip_scoped.events.push_back(fault::FaultEvent{.kind = fault::FaultKind::ChipCrash});
  fault::FaultPlan chip_tagged;  // a kill still scoped to one chip
  chip_tagged.events.push_back(fault::FaultEvent{.has_chip = true});
  std::istringstream cluster("seed 1\nchips 2x2\nchip-crash chip=0,1 at=1000\n");
  const std::tuple<fault::FaultPlan, const char*> cases[] = {
      {fault::parse(cluster), "declares a chip grid"},
      {chip_scoped, "has chip-scoped fault 'chip-crash'"},
      {chip_tagged, "scopes 'kill' to chip (0,0)"},
  };
  for (const auto& [plan, says] : cases) {
    host::System sys;
    try {
      sys.machine().enable_faults(plan);
      ADD_FAILURE() << "accepted: " << fault::save(plan);
    } catch (const fault::FaultError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(says), std::string::npos) << msg;
      EXPECT_NE(msg.find("serve it with epi_serve --chips=RxC"), std::string::npos)
          << msg;
    }
  }
}

TEST(Watchdog, StalledCoreTripsExactlyOnceAndJobRelocates) {
  host::System sys;
  sys.machine().enable_faults(kill_plan(0, 0, 1'000));
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 50'000;
  sched::Scheduler sc(sys, cfg);
  sc.submit(lone_matmul(4));
  sc.run();

  ASSERT_EQ(sc.fault_log().size(), 1u);
  EXPECT_EQ(sc.fault_log()[0].kind, "watchdog");
  EXPECT_EQ(sc.fault_log()[0].job, 0u);
  // The kill struck at cycle 1000; detection latency is bounded by the
  // watchdog horizon, and the report points at the true fault time.
  EXPECT_EQ(sc.fault_log()[0].since, 1'000u);
  EXPECT_LE(sc.fault_log()[0].detected, 1'000u + 2 * 50'000u);

  EXPECT_EQ(sc.allocator().quarantined_cores(), 1u);
  const sched::JobRecord& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Completed);
  EXPECT_EQ(rec.recovery, sched::Recovery::Relocated);
  EXPECT_EQ(rec.reexecs, 1u);
  // The re-execution cannot land on the quarantined core.
  EXPECT_FALSE(rec.placed_row == 0 && rec.placed_col == 0);
}

TEST(Watchdog, HealthySlowJobDoesNotTrip) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});  // armed, but empty
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 2'000;  // far below the job's true service time
  sched::Scheduler sc(sys, cfg);
  sc.submit(lone_matmul(20));
  sc.run();

  EXPECT_TRUE(sc.fault_log().empty());
  EXPECT_EQ(sc.allocator().quarantined_cores(), 0u);
  const sched::JobRecord& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Completed);
  EXPECT_EQ(rec.recovery, sched::Recovery::None);
  EXPECT_GT(rec.service(), cfg.watchdog_cycles);  // it really was "late"
}

TEST(Watchdog, ZeroDisablesAndStuckGroupStillDeadlocks) {
  host::System sys;
  sys.machine().enable_faults(kill_plan(0, 0, 1'000));
  sched::Scheduler sc(sys);  // watchdog_cycles == 0: pre-fault behaviour
  sc.submit(lone_matmul(4));
  EXPECT_THROW(sc.run(), sim::DeadlockError);
}

// ---- determinism ----------------------------------------------------------

struct ChaosRun {
  std::string report;
  std::vector<std::string> log;
  std::vector<std::string> faults;
  std::vector<std::string> injections;
  unsigned completed = 0, pending = 0, quarantined = 0;
};

ChaosRun run_chaos(const fault::FaultPlan& plan, unsigned jobs, std::uint64_t seed,
                   sim::Cycles interarrival, sim::Cycles watchdog) {
  host::System sys;
  sys.machine().enable_faults(plan);
  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = seed;
  tc.mean_interarrival = interarrival;
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = watchdog;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  ChaosRun out;
  out.report = sched::render_report(sc);
  out.log = sc.event_log();
  for (const auto& r : sc.fault_log()) out.faults.push_back(fault::to_line(r));
  out.injections = sys.machine().faults()->injections();
  for (const auto& rec : sc.records()) {
    if (rec.verdict == sched::Verdict::Completed) ++out.completed;
    if (rec.verdict == sched::Verdict::Pending) ++out.pending;
  }
  out.quarantined = sc.allocator().quarantined_cores();
  return out;
}

TEST(FaultDeterminism, SamePlanSameWorkloadIsByteIdentical) {
  fault::ChaosConfig cc;
  cc.seed = 21;
  cc.dims = {8, 8};
  cc.horizon = 500'000;
  cc.core_kills = 1;
  cc.link_faults = 5;
  cc.elink_flips = 1;
  cc.mem_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);
  const ChaosRun a = run_chaos(plan, 20, 5, 25'000, 300'000);
  const ChaosRun b = run_chaos(plan, 20, 5, 25'000, 300'000);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.faults, b.faults);
}

// Every detection path at once: one dead core, ~5% of the 256 directed mesh
// links out (mostly transiently), an eLink outage and eLink/memory bit
// flips. Faults degrade the mesh; they must not wedge the scheduler, and the
// whole run replays byte-identically from (plan, workload seed).
TEST(FaultChaos, SeededPlanServesQuarantinesAndReplays) {
  fault::ChaosConfig cc;
  cc.seed = 11;
  cc.dims = {8, 8};
  cc.horizon = 900'000;
  cc.core_kills = 1;
  cc.link_faults = 13;
  cc.transient_link_prob = 0.8;
  cc.elink_outages = 1;
  cc.elink_flips = 2;
  cc.mem_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);
  const ChaosRun first = run_chaos(plan, 40, 7, 30'000, 400'000);

  EXPECT_EQ(first.pending, 0u);  // every job reached a verdict
  // Serving continued. Completed offload results are CRC/pattern-validated
  // inside the scheduler when an injector is armed, so they are bit-correct.
  EXPECT_GT(first.completed, 0u);
  EXPECT_GE(first.quarantined, 1u);  // the kill was noticed and retired
  EXPECT_FALSE(first.faults.empty());
  EXPECT_FALSE(first.injections.empty());

  const ChaosRun second = run_chaos(plan, 40, 7, 30'000, 400'000);
  EXPECT_EQ(second.report, first.report);
  EXPECT_EQ(second.log, first.log);
  EXPECT_EQ(second.faults, first.faults);
  EXPECT_EQ(second.injections, first.injections);
}

TEST(FaultDeterminism, EmptyPlanMatchesUninstrumentedRun) {
  sched::TrafficConfig tc;
  tc.jobs = 16;
  tc.seed = 9;
  tc.mean_interarrival = 30'000;
  const std::vector<sched::JobSpec> jobs = sched::generate(tc);

  auto serve = [&](bool arm) {
    host::System sys;
    if (arm) sys.machine().enable_faults(fault::FaultPlan{});
    sched::Scheduler sc(sys);
    for (const auto& spec : jobs) sc.submit(spec);
    sc.run();
    return std::tuple<std::string, std::vector<std::string>, sim::Cycles>(
        sched::render_report(sc), sc.event_log(), sc.makespan());
  };
  EXPECT_EQ(serve(false), serve(true));
}

TEST(FaultDeterminism, EmptyPlanInjectsAndDetectsNothing) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});
  sched::TrafficConfig tc;
  tc.jobs = 24;
  tc.seed = 3;
  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  ASSERT_NE(sys.machine().faults(), nullptr);
  EXPECT_TRUE(sys.machine().faults()->injections().empty());
  EXPECT_TRUE(sc.fault_log().empty());
}

}  // namespace
