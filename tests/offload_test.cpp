// Tests for the offload layer (the paper's "familiar programming models"
// future work): buffer striping, parallel_for semantics and timing, and
// the binomial reduction over shmem.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "offload/queue.hpp"
#include "sim/random.hpp"
#include "util/reference.hpp"

namespace {

using namespace epi;
using offload::Buffer;
using offload::Queue;

TEST(OffloadQueue, RejectsOversizedPlacement) {
  host::System sys;
  EXPECT_THROW((void)Queue(sys, 9, 1), std::out_of_range);
  EXPECT_THROW((void)Queue(sys, 1, 0), std::out_of_range);
}

TEST(OffloadBuffer, WriteReadRoundTrip) {
  host::System sys;
  Queue q(sys, 2, 2);
  auto b = q.alloc(1000);  // 250 per core
  EXPECT_EQ(b.stripe(), 250u);
  std::vector<float> data(1000);
  util::fill_random(data, 1);
  q.write(b, data);
  std::vector<float> back(1000);
  q.read(b, back);
  EXPECT_EQ(util::max_abs_diff(data, back), 0.0f);
}

TEST(OffloadBuffer, RaggedTailHandled) {
  host::System sys;
  Queue q(sys, 2, 2);
  auto b = q.alloc(10);  // stripe 3: cores hold 3,3,3,1
  std::vector<float> data(10);
  std::iota(data.begin(), data.end(), 1.0f);
  q.write(b, data);
  std::vector<float> back(10);
  q.read(b, back);
  EXPECT_EQ(data, back);
}

TEST(OffloadBuffer, HeapExhaustionThrows) {
  host::System sys;
  Queue q(sys, 1, 1);
  (void)q.alloc(3000);  // 12 KB of the ~14 KB heap
  EXPECT_THROW((void)q.alloc(1000), std::bad_alloc);
  q.release_all();
  EXPECT_NO_THROW((void)q.alloc(3000));
}

TEST(OffloadHeap, ExhaustionReportsSizes) {
  host::System sys;
  Queue q(sys, 2, 2);
  // The per-core heap is 0x4000..0x7BFF (15360 bytes). One 3000-float stripe
  // per core = 12000 bytes; a second such buffer exhausts it.
  auto buf = q.alloc(4 * 3000);
  EXPECT_EQ(buf.stripe(), 3000u);
  try {
    (void)q.alloc(4 * 3000);
    FAIL() << "second 12000-byte stripe must exhaust the 15360-byte heap";
  } catch (const shmem::HeapExhausted& e) {
    EXPECT_EQ(e.requested(), 3000u * sizeof(float));
    EXPECT_EQ(e.available(), 15360u - 12000u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("symmetric heap exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("12000"), std::string::npos) << msg;
  }
  // HeapExhausted still satisfies callers catching a bare bad_alloc.
  EXPECT_THROW((void)q.alloc(4 * 3000), std::bad_alloc);
  // release_all() makes the heap fully reusable.
  q.release_all();
  EXPECT_EQ(q.heap_available(), 0x3C00u);
  auto buf3 = q.alloc(4 * 3000);
  EXPECT_EQ(buf3.offset(), Queue::kHeapBase);
}

TEST(OffloadParallelFor, SaxpyAcrossCores) {
  host::System sys;
  Queue q(sys, 4, 4);
  constexpr std::size_t n = 4096;
  auto x = q.alloc(n);
  auto y = q.alloc(n);
  std::vector<float> xs(n), ys(n);
  util::fill_random(xs, 2);
  util::fill_random(ys, 3);
  q.write(x, xs);
  q.write(y, ys);

  const float a = 1.5f;
  q.parallel_for(
      n, 1.0,
      [a](std::size_t, std::size_t count, std::span<std::span<float>> c) {
        for (std::size_t i = 0; i < count; ++i) c[1][i] = a * c[0][i] + c[1][i];
      },
      {&x, &y});

  std::vector<float> out(n);
  q.read(y, out);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], a * xs[i] + ys[i]) << i;
  }
}

TEST(OffloadParallelFor, GlobalIndexVisibleToBody) {
  host::System sys;
  Queue q(sys, 2, 2);
  constexpr std::size_t n = 64;
  auto b = q.alloc(n);
  q.parallel_for(
      n, 1.0,
      [](std::size_t first, std::size_t count, std::span<std::span<float>> c) {
        for (std::size_t i = 0; i < count; ++i) {
          c[0][i] = static_cast<float>(first + i);
        }
      },
      {&b});
  std::vector<float> out(n);
  q.read(b, out);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], static_cast<float>(i));
}

TEST(OffloadParallelFor, TimeScalesInverselyWithCores) {
  constexpr std::size_t n = 8192;
  auto time_on = [&](unsigned edge) {
    host::System sys;
    Queue q(sys, edge, edge);
    auto b = q.alloc(n);
    return q.parallel_for(
        n, 4.0, [](std::size_t, std::size_t, std::span<std::span<float>>) {}, {&b});
  };
  // (edge 1 cannot hold 32 KB of stripe; compare 2x2 against 8x8.)
  const auto t2 = time_on(2);
  const auto t8 = time_on(8);
  EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t8), 16.0, 0.5);
}

TEST(OffloadParallelFor, BufferTooSmallThrows) {
  host::System sys;
  Queue q(sys, 2, 2);
  auto b = q.alloc(16);
  EXPECT_THROW(q.parallel_for(
                   32, 1.0, [](std::size_t, std::size_t, std::span<std::span<float>>) {},
                   {&b}),
               std::invalid_argument);
}

class OffloadReduceShapes : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {
};

TEST_P(OffloadReduceShapes, SumMatchesHost) {
  const auto [rows, cols] = GetParam();
  host::System sys;
  Queue q(sys, rows, cols);
  constexpr std::size_t n = 3000;
  auto b = q.alloc(n);
  std::vector<float> data(n);
  // Integers keep float addition associative, so any combine order matches.
  sim::Rng rng(9);
  for (auto& v : data) v = static_cast<float>(rng.next_below(100));
  q.write(b, data);
  const float host_sum = std::accumulate(data.begin(), data.end(), 0.0f);
  const float dev_sum = q.reduce(b, n, shmem::ReduceOp::Sum, 1.0);
  EXPECT_EQ(dev_sum, host_sum);
}

INSTANTIATE_TEST_SUITE_P(Groups, OffloadReduceShapes,
                         ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 2u),
                                           std::make_pair(1u, 3u), std::make_pair(2u, 2u),
                                           std::make_pair(3u, 3u), std::make_pair(4u, 4u),
                                           std::make_pair(8u, 8u)));

TEST(OffloadReduce, MaxReduction) {
  host::System sys;
  Queue q(sys, 4, 4);
  constexpr std::size_t n = 2048;
  auto b = q.alloc(n);
  std::vector<float> data(n);
  util::fill_random(data, 17);
  data[777] = 9.5f;  // clear maximum
  q.write(b, data);
  const float m = q.reduce(b, n, shmem::ReduceOp::Max, 1.0);
  EXPECT_EQ(m, 9.5f);
}

TEST(OffloadReduce, TreeBeatsSerialGather) {
  // The reduction tree's depth is log2(cores); device time for the combine
  // phase must grow far slower than the core count.
  constexpr std::size_t n = 64;  // one element per core at 8x8
  auto combine_time = [&](unsigned edge) {
    host::System sys;
    Queue q(sys, edge, edge);
    auto b = q.alloc(n);
    std::vector<float> ones(n, 1.0f);
    q.write(b, ones);
    sim::Cycles cycles = 0;
    (void)q.reduce(b, n, shmem::ReduceOp::Sum, 1.0, &cycles);
    return cycles;
  };
  const auto t2 = combine_time(2);   // depth 2
  const auto t8 = combine_time(8);   // depth 6
  EXPECT_LT(static_cast<double>(t8), 4.0 * static_cast<double>(t2));
}

TEST(OffloadReduce, RepeatedReductionsOnSameQueue) {
  host::System sys;
  Queue q(sys, 2, 2);
  auto b = q.alloc(100);
  std::vector<float> data(100, 2.0f);
  q.write(b, data);
  for (int rep = 0; rep < 3; ++rep) {
    const float s = q.reduce(b, 100, shmem::ReduceOp::Sum, 1.0);
    EXPECT_EQ(s, 200.0f) << rep;
  }
}

}  // namespace
