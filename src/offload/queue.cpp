#include "offload/queue.hpp"

namespace epi::offload {

namespace {

sim::Op<void> fold_then_reduce(device::CoreCtx& ctx, shmem::Group& group, const Buffer b,
                            std::size_t n, shmem::ReduceOp op, double cpe,
                            float& result) {
  shmem::Pe pe(ctx, group);
  // Local fold over my stripe.
  const std::size_t stripe = (n + pe.n_pes() - 1) / pe.n_pes();
  const std::size_t first = static_cast<std::size_t>(pe.my_pe()) * stripe;
  float acc = shmem::identity(op);
  if (first < n) {
    const std::size_t count = std::min(stripe, n - first);
    co_await ctx.compute(static_cast<sim::Cycles>(cpe * static_cast<double>(count) + 0.5));
    for (float v : ctx.local_array<float>(b.offset(), count)) acc = shmem::combine(op, acc, v);
  }
  acc = co_await pe.reduce_f32(op, acc);
  if (pe.my_pe() == 0) result = acc;
}

}  // namespace

float Queue::reduce(const Buffer& b, std::size_t n, shmem::ReduceOp op,
                    double cycles_per_elem, sim::Cycles* cycles_out) {
  if (b.size() < n) throw std::invalid_argument("buffer smaller than the reduce range");
  auto wg = open();
  // Every kernel's Pe restarts its flag generations at 1, so the previous
  // reduce's flags must not survive to release this one early.
  group_.reset_runtime_words();
  float result = 0.0f;
  wg.load([&, n, op, cycles_per_elem](device::CoreCtx& ctx) -> sim::Op<void> {
    return fold_then_reduce(ctx, group_, b, n, op, cycles_per_elem, result);
  });
  const sim::Cycles cycles = wg.run();
  if (cycles_out) *cycles_out = cycles;
  return result;
}

}  // namespace epi::offload
