#pragma once
// A minimal data-parallel offload layer -- the "familiar programming
// models" the paper's conclusion calls for ("further work towards
// implementation of familiar programming models such as OpenCL and the
// recently launched OpenMP Accelerator model for the Epiphany is of great
// interest", section IX).
//
// The model is deliberately small but genuine, and layered over the shmem
// PGAS runtime the way Richie & Ross layer OpenCL over OpenSHMEM
// (arXiv:1608.03549):
//   * Buffer: a 1D float array striped across the workgroup's scratchpads
//     (core k holds elements [k*stripe, (k+1)*stripe)), allocated from the
//     queue's shmem symmetric heap, so it sits at the same offset on every
//     core;
//   * Queue::parallel_for: every core applies a host-provided body to its
//     stripe chunks, charged at a caller-declared cycles-per-element rate
//     (the analogue of an OpenCL NDRange over local memory);
//   * Queue::reduce: a per-core local fold followed by shmem's binomial
//     reduction onto core 0 -- partials hop between scratchpads behind flag
//     waits, so the reduction genuinely pays mesh latencies.

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "host/system.hpp"
#include "shmem/shmem.hpp"

namespace epi::offload {

class Queue;

/// A device-resident float array, striped across the queue's cores.
class Buffer {
public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t stripe() const noexcept { return stripe_; }
  [[nodiscard]] arch::Addr offset() const noexcept { return offset_; }

private:
  friend class Queue;
  Buffer(arch::Addr offset, std::size_t size, std::size_t stripe)
      : offset_(offset), size_(size), stripe_(stripe) {}
  arch::Addr offset_;
  std::size_t size_;
  std::size_t stripe_;
};

class Queue {
public:
  // The symmetric heap holding offload buffers on each core.
  static constexpr arch::Addr kHeapBase = 0x4000;
  static constexpr arch::Addr kHeapEnd = 0x7C00;

  /// A queue over the rows x cols workgroup whose top-left core sits at
  /// (origin_row, origin_col); standalone use keeps the default of (0,0).
  Queue(host::System& sys, unsigned rows, unsigned cols, unsigned origin_row = 0,
        unsigned origin_col = 0)
      : sys_(&sys),
        group_(sys.machine(), fit(sys, {{origin_row, origin_col}, rows, cols}),
               {kHeapBase, kHeapEnd}) {}

  [[nodiscard]] unsigned cores() const noexcept { return group_.n_pes(); }

  /// Allocate a striped device buffer of `n` floats. Throws
  /// shmem::HeapExhausted (a std::bad_alloc) naming the requested and
  /// remaining sizes when the per-core heap cannot hold another stripe.
  [[nodiscard]] Buffer alloc(std::size_t n) {
    const std::size_t stripe = (n + cores() - 1) / cores();
    return Buffer(group_.heap().alloc(stripe * sizeof(float)), n, stripe);
  }

  /// Free every buffer at once (a bump allocator cannot free piecemeal).
  /// Outstanding Buffer handles are invalidated.
  void release_all() noexcept { group_.heap().reset(); }

  /// Bytes of per-core heap still available to alloc().
  [[nodiscard]] std::size_t heap_available() const noexcept {
    return group_.heap().capacity() - group_.heap().used();
  }

  /// Host -> device: scatter `src` into the buffer's stripes.
  void write(const Buffer& b, std::span<const float> src) {
    if (src.size() != b.size()) throw std::invalid_argument("offload write size mismatch");
    auto wg = open();
    const unsigned cols = group_.info().cols;
    for (unsigned k = 0; k < cores(); ++k) {
      const std::size_t first = static_cast<std::size_t>(k) * b.stripe();
      if (first >= src.size()) break;
      const std::size_t count = std::min(b.stripe(), src.size() - first);
      sys_->write_array<float>(wg.ctx(k / cols, k % cols).my_global(b.offset()),
                               src.subspan(first, count));
    }
  }

  /// Device -> host: gather the buffer's stripes into `dst`.
  void read(const Buffer& b, std::span<float> dst) {
    if (dst.size() != b.size()) throw std::invalid_argument("offload read size mismatch");
    auto wg = open();
    const unsigned cols = group_.info().cols;
    for (unsigned k = 0; k < cores(); ++k) {
      const std::size_t first = static_cast<std::size_t>(k) * b.stripe();
      if (first >= dst.size()) break;
      const std::size_t count = std::min(b.stripe(), dst.size() - first);
      sys_->read_array<float>(wg.ctx(k / cols, k % cols).my_global(b.offset()),
                              dst.subspan(first, count));
    }
  }

  /// The body of a parallel_for: chunk-global first index, element count,
  /// and one local span per bound buffer, in binding order.
  using Body =
      std::function<void(std::size_t first, std::size_t count,
                         std::span<std::span<float>> chunks)>;

  /// Run `body` across `n` elements distributed over the workgroup,
  /// charging `cycles_per_elem` on every core for its chunk. Returns the
  /// elapsed device cycles.
  sim::Cycles parallel_for(std::size_t n, double cycles_per_elem, Body body,
                           std::initializer_list<const Buffer*> buffers) {
    for (const Buffer* b : buffers) {
      if (b->size() < n) throw std::invalid_argument("buffer smaller than the range");
    }
    auto wg = open();
    const std::size_t stripe = (n + cores() - 1) / cores();
    std::vector<const Buffer*> bufs(buffers);
    wg.load([&, stripe, n, cycles_per_elem](device::CoreCtx& ctx) -> sim::Op<void> {
      return [](device::CoreCtx& c, const Queue::Body& fn,
                const std::vector<const Buffer*>& bs, std::size_t str, std::size_t total,
                double cpe) -> sim::Op<void> {
        const std::size_t first = static_cast<std::size_t>(c.group_index()) * str;
        if (first >= total) co_return;
        const std::size_t count = std::min(str, total - first);
        co_await c.compute(static_cast<sim::Cycles>(cpe * static_cast<double>(count) + 0.5));
        std::vector<std::span<float>> chunks;
        chunks.reserve(bs.size());
        for (const Buffer* b : bs) {
          chunks.push_back(c.local_array<float>(b->offset(), count));
        }
        fn(first, count, std::span<std::span<float>>(chunks));
      }(ctx, body, bufs, stripe, n, cycles_per_elem);
    });
    return wg.run();
  }

  /// Reduce the first `n` elements of `b` with `op`: local folds, then
  /// shmem's binomial reduction onto core 0 over the mesh. Returns the
  /// result and, via `cycles_out`, the device time.
  float reduce(const Buffer& b, std::size_t n, shmem::ReduceOp op, double cycles_per_elem,
               sim::Cycles* cycles_out = nullptr);

private:
  static device::GroupInfo fit(host::System& sys, device::GroupInfo info) {
    if (info.rows == 0 || info.cols == 0 ||
        info.origin.row + info.rows > sys.machine().dims().rows ||
        info.origin.col + info.cols > sys.machine().dims().cols) {
      throw std::out_of_range("offload queue does not fit the mesh");
    }
    return info;
  }
  [[nodiscard]] host::Workgroup open() {
    const device::GroupInfo& g = group_.info();
    return sys_->open(g.origin.row, g.origin.col, g.rows, g.cols);
  }

  host::System* sys_;
  shmem::Group group_;
};

}  // namespace epi::offload
