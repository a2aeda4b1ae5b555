#pragma once
// Seeded-defect (and clean-twin) workgroup fixtures for the whole-group
// verifier. Shared between the verifier tests and the scheduler's
// admission-gate tests so both layers exercise the same defects: the
// paper's Listing-1/2 read-after-remote-write race, barrier participation
// mismatches, circular flag-wait chains, out-of-workgroup stores, and DMA
// descriptors that overflow the 32 KB scratchpad.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lint/workgroup.hpp"

namespace epi::lint::fixtures {

struct WgFixture {
  unsigned rows = 1;
  unsigned cols = 1;
  /// name -> assembly source; 1 entry replicates SPMD, else rows*cols.
  std::vector<std::pair<std::string, std::string>> programs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> host_preloaded;
};

/// Assemble a fixture into a verifier spec (group anchored at mesh (0,0)).
[[nodiscard]] WorkgroupSpec to_spec(const WgFixture& fx);

/// The paper's Listing-1/2 shape on a 1x2 group: core (0,0) pushes a word
/// into core (0,1)'s scratchpad and raises a flag there. With `racy`, the
/// consumer reads without waiting on the flag (the defect); otherwise it
/// waits first (the idiomatic fix).
[[nodiscard]] WgFixture listing12(bool racy);

/// Core (0,0) runs two barriers, core (0,1) only one: participation
/// mismatch, the group deadlocks at the unmatched rendezvous.
[[nodiscard]] WgFixture barrier_mismatch();

/// Both cores wait on their own flag before releasing the peer's:
/// a circular flag-wait chain that can never make progress.
[[nodiscard]] WgFixture circular_wait();

/// Core (0,0) stores into core (4,0)'s scratchpad -- a mapped core, but
/// outside the 1x2 workgroup rectangle.
[[nodiscard]] WgFixture stray_remote_write();

/// A `.dma` descriptor whose destination walk runs past the 32 KB
/// scratchpad (stride/count overflow).
[[nodiscard]] WgFixture bad_dma();

/// Core (0,0) waits on a flag word that no core ever writes and the host
/// never preloads.
[[nodiscard]] WgFixture wait_without_writer();

/// Clean: both cores deposit into each other, rendezvous at a barrier,
/// then read what the peer deposited.
[[nodiscard]] WgFixture barrier_exchange();

/// Clean: a TESTSET-guarded counter in core (0,0)'s scratchpad,
/// incremented by both cores of a 1x2 group (SPMD, one program).
[[nodiscard]] WgFixture mutex_counter();

/// The epi-shmem put_with_signal idiom at ISA level on a 1x2 group: the
/// producer DMAs a payload block into the consumer's symmetric heap, then
/// raises the signal word there with a plain store. With `racy`, the
/// consumer reads the payload without waiting on the signal (the
/// get-before-signal defect); otherwise it waits first and verifies clean.
[[nodiscard]] WgFixture shmem_put_signal(bool racy);

}  // namespace epi::lint::fixtures
