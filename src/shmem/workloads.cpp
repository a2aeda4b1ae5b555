#include "shmem/workloads.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/matmul_schedule.hpp"
#include "mem/memory_system.hpp"
#include "util/fmt.hpp"

namespace epi::shmem {

namespace {

using arch::Addr;

[[nodiscard]] std::uint32_t mix(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                                std::uint32_t d) noexcept {
  std::uint32_t x = a * 0x9E3779B9u ^ b * 0x85EBCA6Bu ^ c * 0xC2B2AE35u ^
                    d * 0x27D4EB2Fu ^ 0x165667B1u;
  x ^= x >> 16;
  x *= 0x045D9F3Bu;
  x ^= x >> 13;
  return x;
}

/// Host write issued as the owning core's own store (initialisation, not
/// cross-core traffic, to the sanitizer's eyes).
void host_word(machine::Machine& m, arch::CoreCoord c, Addr offset, std::uint32_t v) {
  auto& mem = m.mem();
  mem.write_value<std::uint32_t>(mem.map().global(c, offset), v, c);
}

[[nodiscard]] float read_float(machine::Machine& m, arch::CoreCoord c, Addr offset) {
  auto& mem = m.mem();
  float f;  // hook-invisible readback: validation is not traffic
  std::memcpy(&f, mem.resolve(mem.map().global(c, offset), sizeof f, {0, 0}).data(),
              sizeof f);
  return f;
}

[[nodiscard]] std::uint32_t read_word(machine::Machine& m, arch::CoreCoord c,
                                      Addr offset) {
  auto& mem = m.mem();
  std::uint32_t w;
  std::memcpy(&w, mem.resolve(mem.map().global(c, offset), sizeof w, {0, 0}).data(),
              sizeof w);
  return w;
}

[[nodiscard]] arch::CoreCoord member(const device::GroupInfo& info, unsigned r,
                                     unsigned c) noexcept {
  return {info.origin.row + r, info.origin.col + c};
}

}  // namespace

// ---- Cannon's blocked matmul ---------------------------------------------

CannonPlan plan_cannon(SymmetricHeap& heap, const device::GroupInfo& info,
                       unsigned block, unsigned iters) {
  CannonPlan plan;
  plan.p = std::min(info.rows, info.cols);
  plan.block = std::max(1u, block);
  plan.iters = std::max(1u, iters);
  const std::uint32_t bytes = plan.block * plan.block * 4;
  plan.a = heap.alloc(bytes);
  plan.b = heap.alloc(bytes);
  plan.c = heap.alloc(bytes);
  plan.stage_a = heap.alloc(bytes);
  plan.stage_b = heap.alloc(bytes);
  plan.sig_a = heap.alloc(4, 4);
  plan.sig_b = heap.alloc(4, 4);
  return plan;
}

float cannon_input(std::uint32_t seed, unsigned which, unsigned r, unsigned c) noexcept {
  // Small integers, exact in float: sums of <= 2^10 products of magnitude
  // <= 4 stay integral, so Cannon's reordered accumulation matches the host
  // reference bit for bit.
  return static_cast<float>(static_cast<int>(mix(seed, which, r, c) % 5u) - 2);
}

void fill_cannon_inputs(machine::Machine& m, const device::GroupInfo& info,
                        const CannonPlan& plan, std::uint32_t seed) {
  const unsigned p = plan.p;
  const unsigned b = plan.block;
  for (unsigned i = 0; i < p; ++i) {
    for (unsigned j = 0; j < p; ++j) {
      const arch::CoreCoord c = member(info, i, j);
      const unsigned skew = (i + j) % p;  // Cannon's initial alignment
      for (unsigned r = 0; r < b; ++r) {
        for (unsigned col = 0; col < b; ++col) {
          const Addr off = 4 * (r * b + col);
          const float av = cannon_input(seed, 0, i * b + r, skew * b + col);
          const float bv = cannon_input(seed, 1, skew * b + r, j * b + col);
          host_word(m, c, plan.a + off, std::bit_cast<std::uint32_t>(av));
          host_word(m, c, plan.b + off, std::bit_cast<std::uint32_t>(bv));
          host_word(m, c, plan.c + off, 0);
        }
      }
      host_word(m, c, plan.sig_a, 0);
      host_word(m, c, plan.sig_b, 0);
    }
  }
}

std::string verify_cannon_output(machine::Machine& m, const device::GroupInfo& info,
                                 const CannonPlan& plan, std::uint32_t seed) {
  const unsigned p = plan.p;
  const unsigned b = plan.block;
  const unsigned n = p * b;
  // The whole n x n inputs, generated once: the reference product below
  // reads each element n times.
  std::vector<float> a(static_cast<std::size_t>(n) * n), bm(a.size());
  for (unsigned r = 0; r < n; ++r) {
    for (unsigned k = 0; k < n; ++k) {
      a[r * n + k] = cannon_input(seed, 0, r, k);
      bm[r * n + k] = cannon_input(seed, 1, r, k);
    }
  }
  for (unsigned i = 0; i < p; ++i) {
    for (unsigned j = 0; j < p; ++j) {
      const arch::CoreCoord c = member(info, i, j);
      for (unsigned r = 0; r < b; ++r) {
        for (unsigned col = 0; col < b; ++col) {
          float want = 0.0f;
          for (unsigned k = 0; k < n; ++k) {
            want += a[(i * b + r) * n + k] * bm[k * n + j * b + col];
          }
          want *= static_cast<float>(plan.iters);
          const float got = read_float(m, c, plan.c + 4 * (r * b + col));
          if (got != want) {
            return util::format(
                "cannon C block of core (%u,%u) element (%u,%u): got %g want %g",
                c.row, c.col, r, col, static_cast<double>(got),
                static_cast<double>(want));
          }
        }
      }
    }
  }
  return {};
}

sim::Op<void> cannon_kernel(device::CoreCtx& ctx, std::shared_ptr<Group> group,
                            CannonPlan plan) {
  Pe pe(ctx, *group);
  const unsigned p = plan.p;
  const unsigned row = ctx.group_row();
  const unsigned col = ctx.group_col();
  const unsigned cols = ctx.group_cols();
  const bool active = row < p && col < p;
  const unsigned b = plan.block;
  const std::uint32_t bytes = b * b * 4;
  std::uint32_t gen = 0;
  for (unsigned it = 0; it < plan.iters; ++it) {
    for (unsigned s = 0; s < p; ++s) {
      if (active) {
        {
          auto ph = ctx.phase(trace::Phase::Compute, "cannon-block");
          co_await ctx.compute(core::MatmulSchedule::block_cycles(
              b, b, b, core::Codegen::TunedAsm));
          ctx.count_flops(core::MatmulSchedule::block_flops(b, b, b));
          auto A = ctx.local_array<float>(plan.a, bytes / 4);
          auto B = ctx.local_array<float>(plan.b, bytes / 4);
          auto C = ctx.local_array<float>(plan.c, bytes / 4);
          for (unsigned r = 0; r < b; ++r) {
            for (unsigned k = 0; k < b; ++k) {
              const float a = A[r * b + k];
              for (unsigned q = 0; q < b; ++q) C[r * b + q] += a * B[k * b + q];
            }
          }
        }
        if (p > 1) {
          ++gen;
          // Rotate A westward and B northward around the active torus; the
          // chained signal tells the receiver its staged block is complete.
          const unsigned west = row * cols + (col + p - 1) % p;
          const unsigned north = ((row + p - 1) % p) * cols + col;
          co_await pe.put_with_signal(west, plan.stage_a, plan.a, bytes,
                                      plan.sig_a, gen);
          co_await pe.put_with_signal(north, plan.stage_b, plan.b, bytes,
                                      plan.sig_b, gen);
          co_await pe.wait_signal_ge(plan.sig_a, gen);
          co_await pe.wait_signal_ge(plan.sig_b, gen);
          co_await ctx.direct_write_block(ctx.my_global(plan.a),
                                          ctx.my_global(plan.stage_a), bytes);
          co_await ctx.direct_write_block(ctx.my_global(plan.b),
                                          ctx.my_global(plan.stage_b), bytes);
        }
      }
      // Everyone (including PEs outside the active square) meets here, so a
      // sender can never run a full lap ahead and overwrite a staged block
      // its neighbour has not consumed yet.
      if (group->n_pes() > 1) co_await pe.barrier_all();
    }
  }
}

// ---- all-to-all transpose -------------------------------------------------

TransposePlan plan_transpose(SymmetricHeap& heap, const device::GroupInfo& info,
                             unsigned elems, unsigned iters) {
  TransposePlan plan;
  plan.n = info.size();
  plan.elems = std::max(1u, elems);
  plan.iters = std::max(1u, iters);
  const std::uint32_t block_bytes = plan.elems * 4;
  plan.send = heap.alloc(plan.n * block_bytes);
  plan.recv = heap.alloc(plan.n * block_bytes);
  plan.sig = heap.alloc(plan.n * 4, 4);
  return plan;
}

std::uint32_t transpose_word(std::uint32_t seed, unsigned src, unsigned dst,
                             unsigned e) noexcept {
  return mix(seed, src, dst, e);
}

void fill_transpose_inputs(machine::Machine& m, const device::GroupInfo& info,
                           const TransposePlan& plan, std::uint32_t seed) {
  const std::uint32_t block_bytes = plan.elems * 4;
  for (unsigned pe = 0; pe < plan.n; ++pe) {
    const arch::CoreCoord c = member(info, pe / info.cols, pe % info.cols);
    for (unsigned dst = 0; dst < plan.n; ++dst) {
      for (unsigned e = 0; e < plan.elems; ++e) {
        host_word(m, c, plan.send + dst * block_bytes + 4 * e,
                  transpose_word(seed, pe, dst, e));
      }
      host_word(m, c, plan.sig + 4 * dst, 0);
    }
  }
}

std::string verify_transpose_output(machine::Machine& m, const device::GroupInfo& info,
                                    const TransposePlan& plan, std::uint32_t seed) {
  const std::uint32_t block_bytes = plan.elems * 4;
  for (unsigned pe = 0; pe < plan.n; ++pe) {
    const arch::CoreCoord c = member(info, pe / info.cols, pe % info.cols);
    for (unsigned src = 0; src < plan.n; ++src) {
      for (unsigned e = 0; e < plan.elems; ++e) {
        const std::uint32_t want = transpose_word(seed, src, pe, e);
        const std::uint32_t got =
            read_word(m, c, plan.recv + src * block_bytes + 4 * e);
        if (got != want) {
          return util::format(
              "transpose recv slot %u word %u on core (%u,%u): got 0x%08x "
              "want 0x%08x",
              src, e, c.row, c.col, got, want);
        }
      }
    }
  }
  return {};
}

sim::Op<void> transpose_kernel(device::CoreCtx& ctx, std::shared_ptr<Group> group,
                               TransposePlan plan) {
  Pe pe(ctx, *group);
  const unsigned n = plan.n;
  const unsigned me = ctx.group_index();
  const std::uint32_t block_bytes = plan.elems * 4;
  for (unsigned it = 0; it < plan.iters; ++it) {
    const std::uint32_t gen = it + 1;
    auto ph = ctx.phase(trace::Phase::Comm, "all-to-all");
    // My own block needs no network trip.
    co_await ctx.direct_write_block(ctx.my_global(plan.recv + me * block_bytes),
                                    ctx.my_global(plan.send + me * block_bytes),
                                    block_bytes);
    // Staggered schedule: in round k, PE i targets PE (i+k) mod n -- a
    // rotating permutation, so no destination is ever hit by two senders in
    // the same round.
    for (unsigned k = 1; k < n; ++k) {
      const unsigned dst = (me + k) % n;
      co_await pe.put_with_signal(dst, plan.recv + me * block_bytes,
                                  plan.send + dst * block_bytes, block_bytes,
                                  plan.sig + 4 * me, gen);
    }
    for (unsigned k = 1; k < n; ++k) {
      const unsigned src = (me + n - k) % n;
      co_await pe.wait_signal_ge(plan.sig + 4 * src, gen);
    }
    if (n > 1) co_await pe.barrier_all();
  }
}

}  // namespace epi::shmem
