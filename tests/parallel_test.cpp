// Tests for the conservative PDES executor (sim/parallel.hpp): the SPSC
// channel, window scheduling, the deterministic cross-domain merge, the
// lookahead contract, global-idle deadlock detection -- and the cluster
// serving layer's tentpole property, byte-identical output for every
// worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sched/cluster.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace epi;

TEST(SpscChannel, FifoOrderSingleThread) {
  sim::SpscChannel<int> ch;
  EXPECT_TRUE(ch.empty());
  for (int i = 0; i < 100; ++i) ch.push(i);
  int v = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ch.pop(v));
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.total_pushed(), 100u);
}

TEST(SpscChannel, TwoThreadStream) {
  sim::SpscChannel<std::uint64_t> ch;
  constexpr std::uint64_t kN = 20'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN; ++i) ch.push(i);
  });
  std::uint64_t expect = 0, v = 0;
  while (expect < kN) {
    if (ch.pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ch.empty());
}

// A minimal domain: its own engine, no host-side orchestration.
struct ToyDomain : sim::Domain {
  sim::Engine eng;
  sim::Engine& engine() override { return eng; }
  void advance(sim::Cycles limit) override {
    while (eng.step_below(limit)) {
    }
  }
  sim::Cycles next_time() override { return eng.next_event_time(); }
};

// Two domains ping-pong a token through the executor. The merged firing
// log (domain, cycle) must be identical for 1 and 2 workers, and the
// window count must match the schedule implied by the lookahead.
TEST(ParallelEngine, PingPongIdenticalAcrossWorkers) {
  constexpr sim::Cycles kLook = 450;
  constexpr int kHops = 16;

  auto run_once = [&](unsigned workers, sim::ParallelStats& stats_out) {
    ToyDomain a, b;
    sim::ParallelEngine pe(kLook);
    const sim::DomainId ia = pe.add_domain(a);
    const sim::DomainId ib = pe.add_domain(b);
    std::vector<std::pair<int, sim::Cycles>> log;

    // hop() runs on `self`'s engine; each hop re-sends to the peer until
    // the budget runs out. std::function self-reference via a small struct.
    struct Hopper {
      sim::ParallelEngine* pe;
      ToyDomain* doms[2];
      sim::DomainId ids[2];
      std::vector<std::pair<int, sim::Cycles>>* log;
      void hop(int side, int remaining) {
        ToyDomain& d = *doms[side];
        log->emplace_back(side, d.eng.now());
        if (remaining == 0) return;
        const int peer = 1 - side;
        const sim::Cycles at = d.eng.now() + kLook + 7;
        pe->send(ids[side], ids[peer], at,
                 static_cast<std::uint64_t>(remaining),
                 [this, peer, remaining] { hop(peer, remaining - 1); });
      }
    };
    Hopper h{&pe, {&a, &b}, {ia, ib}, &log};
    a.eng.call_at(5, [&h] { h.hop(0, kHops); });
    pe.run(workers);
    stats_out = pe.stats();
    return log;
  };

  sim::ParallelStats s1{}, s2{};
  const auto log1 = run_once(1, s1);
  const auto log2 = run_once(2, s2);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(log1.size(), static_cast<std::size_t>(kHops + 1));
  EXPECT_EQ(s1.windows, s2.windows);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.messages, static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(s1.workers, 1u);
  EXPECT_EQ(s2.workers, 2u);
  // Each hop lands beyond the previous window (gap > lookahead), so every
  // hop opens its own window.
  EXPECT_EQ(s1.windows, static_cast<std::uint64_t>(kHops + 1));
}

// Same-cycle cross-domain messages from two sources merge by (key, src,
// seq), independent of which worker flushed first.
TEST(ParallelEngine, SameCycleMergeIsKeyOrdered) {
  auto run_once = [](unsigned workers) {
    ToyDomain src_a, src_b, dst;
    sim::ParallelEngine pe(100);
    const sim::DomainId ia = pe.add_domain(src_a);
    const sim::DomainId ib = pe.add_domain(src_b);
    const sim::DomainId id = pe.add_domain(dst);
    std::vector<int> order;
    // Both sources fire at cycle 10 and target cycle 110 on dst; keys are
    // chosen so key order disagrees with source order.
    src_a.eng.call_at(10, [&] {
      pe.send(ia, id, 110, 9, [&order] { order.push_back(9); });
      pe.send(ia, id, 110, 2, [&order] { order.push_back(2); });
    });
    src_b.eng.call_at(10, [&] {
      pe.send(ib, id, 110, 5, [&order] { order.push_back(5); });
    });
    pe.run(workers);
    return order;
  };
  const std::vector<int> want{2, 5, 9};
  EXPECT_EQ(run_once(1), want);
  EXPECT_EQ(run_once(3), want);
}

TEST(ParallelEngine, LookaheadViolationThrows) {
  ToyDomain a, b;
  sim::ParallelEngine pe(450);
  const sim::DomainId ia = pe.add_domain(a);
  const sim::DomainId ib = pe.add_domain(b);
  a.eng.call_at(100, [&] {
    pe.send(ia, ib, 100 + 449, 0, [] {});  // one cycle short of the contract
  });
  EXPECT_THROW(pe.run(1), std::logic_error);
}

TEST(ParallelEngine, SendOutsideRunThrows) {
  ToyDomain a, b;
  sim::ParallelEngine pe(450);
  const sim::DomainId ia = pe.add_domain(a);
  const sim::DomainId ib = pe.add_domain(b);
  EXPECT_THROW(pe.send(ia, ib, 1000, 0, [] {}), std::logic_error);
}

// A domain that goes idle with work it knows is unfinished must surface a
// DeadlockError at global idle (the cluster equivalent of a kernel that
// waits on a flag nobody will ever set).
TEST(ParallelEngine, UnfinishedWorkRaisesDeadlock) {
  struct StuckDomain final : ToyDomain {
    std::vector<std::string> unfinished() override { return {"stuck-kernel"}; }
  };
  StuckDomain d;
  sim::ParallelEngine pe(450);
  pe.add_domain(d);
  try {
    pe.run(1);
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-kernel"), std::string::npos);
  }
}

// ---- cluster serving layer ------------------------------------------------

sched::ClusterConfig small_cluster() {
  sched::ClusterConfig cfg;
  cfg.chip_rows = 2;
  cfg.chip_cols = 2;
  cfg.traffic.jobs = 8;
  cfg.traffic.seed = 11;
  cfg.traffic.mean_interarrival = 40'000;
  cfg.remote_frac = 0.4;
  return cfg;
}

TEST(Cluster, ReportByteIdenticalAcrossWorkers) {
  std::string ref;
  std::uint64_t ref_windows = 0;
  for (unsigned workers : {1u, 2u, 4u}) {
    sched::ClusterScheduler cs(small_cluster());
    cs.run(workers);
    EXPECT_EQ(cs.parallel_stats().workers, workers);
    if (ref.empty()) {
      ref = cs.report();
      ref_windows = cs.stats().windows;
      EXPECT_FALSE(ref.empty());
    } else {
      EXPECT_EQ(cs.report(), ref) << "workers=" << workers;
      EXPECT_EQ(cs.stats().windows, ref_windows);
    }
  }
}

TEST(Cluster, ReportByteIdenticalWithMoreWorkersThanFour) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.chip_cols = 3;  // six domains, so six workers each get one
  const std::string ref = [&] {
    sched::ClusterScheduler cs(cfg);
    cs.run(1);
    return cs.report();
  }();
  sched::ClusterScheduler cs(cfg);
  cs.run(6);
  EXPECT_EQ(cs.parallel_stats().workers, 6u);
  EXPECT_EQ(cs.report(), ref);
}

TEST(Cluster, ForwardsJobsAndReturnsNotices) {
  sched::ClusterScheduler cs(small_cluster());
  cs.run(2);
  const sched::ClusterStats& st = cs.stats();
  EXPECT_EQ(st.chips, 4u);
  EXPECT_EQ(st.lookahead, 450u);
  EXPECT_GT(st.forwards, 0u);
  // Every forwarded job resolves exactly once, so every forward produces
  // exactly one completion notice back to its origin.
  EXPECT_EQ(st.notices, st.forwards);
  std::uint64_t delivered = 0;
  for (unsigned c = 0; c < st.chips; ++c) delivered += cs.notices(c).size();
  EXPECT_EQ(delivered, st.notices);
  // Forwarded jobs really ran on their home chip: records exist whose
  // origin differs from the chip that served them.
  std::uint64_t remote_records = 0;
  for (unsigned c = 0; c < st.chips; ++c) {
    for (const auto& rec : cs.chip_sched(c).records()) {
      EXPECT_EQ(rec.spec.home_chip, c);
      if (rec.spec.origin_chip != c) ++remote_records;
      EXPECT_NE(rec.verdict, sched::Verdict::Pending);
    }
  }
  EXPECT_EQ(remote_records, st.forwards);
}

TEST(Cluster, SingleChipDegeneratesCleanly) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.chip_rows = cfg.chip_cols = 1;
  cfg.traffic.jobs = 6;
  sched::ClusterScheduler cs(cfg);
  cs.run(4);  // clamps to 1 worker: one domain
  EXPECT_EQ(cs.stats().forwards, 0u);
  EXPECT_EQ(cs.stats().notices, 0u);
  EXPECT_EQ(cs.parallel_stats().workers, 1u);
  for (const auto& rec : cs.chip_sched(0).records()) {
    EXPECT_NE(rec.verdict, sched::Verdict::Pending);
  }
}

}  // namespace
