#pragma once
// 2D mesh allocator: rectangular workgroup placement on the 8x8 grid.
//
// Placement is policy; enforcement is machine::CoreReservations. The
// allocator answers "where should this rows x cols group go?" by first-fit
// scan over row-major origins (deterministic: same request stream, same
// placements), optionally trying the transposed shape when the requested
// orientation does not fit. It also keeps the fragmentation picture the
// scheduler's metrics report: how many cores are free, and how large a
// rectangle could still be placed -- the gap between the two is external
// fragmentation, the classic cost of first-fit on a torus-less mesh.
//
// The OpenSHMEM-on-Epiphany work (arXiv:1608.03545) made workgroup topology
// a first-class runtime concern; this is the serving-side counterpart.

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/coords.hpp"

namespace epi::sched {

/// A granted rectangle. `rotated` records that the allocator transposed the
/// requested shape to make it fit.
struct Placement {
  arch::CoreCoord origin{};
  unsigned rows = 1;
  unsigned cols = 1;
  bool rotated = false;

  [[nodiscard]] unsigned cores() const noexcept { return rows * cols; }
};

class MeshAllocator {
public:
  explicit MeshAllocator(arch::MeshDims dims);

  /// First-fit placement of a rows x cols rectangle (row-major origin scan).
  /// When `allow_rotate` and the shape is not square, the transposed shape
  /// is tried after the requested one. Empty when nothing fits right now.
  [[nodiscard]] std::optional<Placement> place(unsigned rows, unsigned cols,
                                               bool allow_rotate = true);

  /// Locality-aware variant for pipeline co-placement: among every origin
  /// where the shape fits, pick the one minimising the summed Manhattan
  /// distance between rectangle centres and the `anchors`' centres (the
  /// completed producer stages), first-fit order breaking ties. Tries the
  /// requested orientation exhaustively before the rotated one, and succeeds
  /// whenever place() would (same fit test, different tie-break), so
  /// co-placement can never deadlock an admission plain first-fit would
  /// serve. Empty `anchors` delegates to place() verbatim.
  [[nodiscard]] std::optional<Placement> place_near(
      unsigned rows, unsigned cols, bool allow_rotate,
      const std::vector<Placement>& anchors);

  /// Return a placement's cores to the free pool. Double-free (or freeing
  /// cells never placed) is a logic error and throws.
  void free(const Placement& p);

  /// Permanently retire a placement's cores (fault recovery: a watchdog
  /// caught the resident job silent). The cells stay marked used forever --
  /// they are never returned to the free pool, place() never considers them,
  /// and fits_ever() accounts for the shrunken healthy mesh.
  void quarantine(const Placement& p);
  [[nodiscard]] unsigned quarantined_cores() const noexcept { return quarantined_count_; }

  /// Whether the shape could fit an *empty* mesh at all (admission check).
  /// With quarantined cores, "empty" means every transient occupant gone but
  /// the dead cells still dead: the shape must clear a quarantine-free rect.
  [[nodiscard]] bool fits_ever(unsigned rows, unsigned cols,
                               bool allow_rotate = true) const noexcept;

  [[nodiscard]] arch::MeshDims dims() const noexcept { return dims_; }
  [[nodiscard]] unsigned free_cores() const noexcept { return free_; }
  [[nodiscard]] unsigned used_cores() const noexcept {
    return dims_.core_count() - free_;
  }

  /// Area of the largest free rectangle still placeable (0 when full).
  [[nodiscard]] unsigned largest_free_rect() const noexcept;

  /// External fragmentation in [0,1]: the fraction of free cores that the
  /// largest placeable rectangle can NOT reach. 0 when the free space is one
  /// solid rectangle (or the mesh is full); approaches 1 as the free cores
  /// scatter into unusable slivers.
  [[nodiscard]] double fragmentation() const noexcept;

  /// Bumped by every placement, free and quarantine. place() and
  /// place_near() read nothing else that can change, so a request that
  /// failed keeps failing until the generation moves (the scheduler's
  /// failed-placement cache leans on this).
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

  // ---- placement epochs ----------------------------------------------------
  // Every successful placement gets a monotonically increasing sequence
  // number, stamped on its cells. The scheduler uses the stamps to decide
  // whether a completed producer's (freed) rectangle still holds its tensor
  // bytes: scratchpad-to-scratchpad handoff is valid only while no *other*
  // placement has touched those cells since the producer ran.

  /// Sequence number of the most recent successful placement (0 before any).
  [[nodiscard]] std::uint64_t last_place_seq() const noexcept { return seq_; }
  /// Sequence of the last placement that covered cell (r, c); 0 if never.
  [[nodiscard]] std::uint64_t cell_seq(unsigned r, unsigned c) const noexcept {
    return last_seq_[r * dims_.cols + c];
  }

private:
  [[nodiscard]] bool rect_free(unsigned r0, unsigned c0, unsigned rows,
                               unsigned cols) const noexcept;
  void mark(unsigned r0, unsigned c0, unsigned rows, unsigned cols, bool used);

  [[nodiscard]] bool rect_healthy(unsigned r0, unsigned c0, unsigned rows,
                                  unsigned cols) const noexcept;
  void stamp(unsigned r0, unsigned c0, unsigned rows, unsigned cols);

  arch::MeshDims dims_;
  std::vector<std::uint8_t> used_;         // row-major occupancy
  std::vector<std::uint8_t> quarantined_;  // row-major; subset of used_
  std::vector<std::uint64_t> last_seq_;    // row-major placement epochs
  unsigned free_;
  unsigned quarantined_count_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t gen_ = 0;
};

}  // namespace epi::sched
