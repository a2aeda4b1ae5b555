// The offload programming model in action (the paper's section-IX call for
// "familiar programming models such as OpenCL"): a dot product computed as
// an element-wise multiply distributed over the 8x8 workgroup followed by
// shmem's binomial reduction across the mesh -- no explicit kernels, flags
// or DMA descriptors in user code.

#include <cstdio>
#include <numeric>
#include <vector>

#include "offload/queue.hpp"
#include "sim/random.hpp"
#include "util/reference.hpp"

using namespace epi;

int main() {
  host::System sys;
  offload::Queue q(sys, 8, 8);

  constexpr std::size_t n = 50000;
  auto x = q.alloc(n);
  auto y = q.alloc(n);
  auto prod = q.alloc(n);

  std::vector<float> xs(n), ys(n);
  // Integer-valued data keeps float addition associative, so the device's
  // tree-order sum is comparable exactly.
  sim::Rng rng(41);
  for (auto& v : xs) v = static_cast<float>(rng.next_below(8));
  for (auto& v : ys) v = static_cast<float>(rng.next_below(8));
  q.write(x, xs);
  q.write(y, ys);

  std::printf("offload_dot: dot(x, y) over %zu elements on 64 cores\n\n", n);

  // Element-wise multiply: one FMADD-slot per element.
  const sim::Cycles t_map = q.parallel_for(
      n, 1.0,
      [](std::size_t, std::size_t count, std::span<std::span<float>> c) {
        for (std::size_t i = 0; i < count; ++i) c[2][i] = c[0][i] * c[1][i];
      },
      {&x, &y, &prod});

  sim::Cycles t_reduce = 0;
  const float dev = q.reduce(prod, n, shmem::ReduceOp::Sum, 1.0, &t_reduce);

  const double host =
      std::inner_product(xs.begin(), xs.end(), ys.begin(), 0.0);

  std::printf("map phase:    %8llu cycles (%.2f us, %zu elems over 64 stripes)\n",
              static_cast<unsigned long long>(t_map), sys.seconds(t_map) * 1e6, n);
  std::printf("reduce phase: %8llu cycles (%.2f us, local folds + 6-level mesh tree)\n",
              static_cast<unsigned long long>(t_reduce), sys.seconds(t_reduce) * 1e6);
  std::printf("device dot:   %.1f\nhost dot:     %.1f\n", dev, host);
  const bool ok = dev == static_cast<float>(host);
  std::printf("verification: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
