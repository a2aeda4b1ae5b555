#pragma once
// The machine's functional memory: every eCore scratchpad plus the 32 MB
// shared DRAM window, resolved through the flat global address map.
//
// All *functional* data movement in the simulator lands here. Writes notify
// registered watches, which is how flag-spin synchronisation (the idiom in
// the paper's Listings 1 and 2) is modelled without polling storms.

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/address_map.hpp"
#include "arch/coords.hpp"
#include "mem/hook.hpp"
#include "mem/local_memory.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace epi::mem {

class MemorySystem {
public:
  MemorySystem(arch::MeshDims dims, sim::Engine& engine)
      : map_(arch::AddressMap::make(dims)),
        engine_(&engine),
        locals_(dims.core_count()),
        external_(static_cast<std::byte*>(std::calloc(map_.external_bytes, 1))),
        external_bytes_(map_.external_bytes) {
    if (external_bytes_ > 0 && external_ == nullptr) throw std::bad_alloc();
  }

  [[nodiscard]] const arch::AddressMap& map() const noexcept { return map_; }
  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }

  [[nodiscard]] LocalMemory& local(arch::CoreCoord c) {
    return locals_[map_.dims.index_of(c)];
  }
  [[nodiscard]] const LocalMemory& local(arch::CoreCoord c) const {
    return locals_[map_.dims.index_of(c)];
  }

  /// Direct span into external DRAM (host-side/functional use).
  [[nodiscard]] std::span<std::byte> external_span(std::uint32_t offset, std::size_t n) {
    if (offset > external_bytes_ || n > external_bytes_ - offset) {
      throw std::out_of_range("external memory access out of the 32 MB window");
    }
    return std::span<std::byte>(external_.get() + offset, n);
  }

  /// Resolve a global address as seen by core `issuer` (local-alias
  /// addresses below 1 MB map to the issuer's own scratchpad).
  [[nodiscard]] std::span<std::byte> resolve(arch::Addr a, std::size_t n,
                                             arch::CoreCoord issuer) {
    if (arch::AddressMap::is_local_alias(a)) {
      return local(issuer).span(arch::AddressMap::local_offset(a), n);
    }
    if (map_.is_external(a)) {
      return external_span(map_.external_offset(a), n);
    }
    if (auto c = map_.core_of(a)) {
      return local(*c).span(arch::AddressMap::local_offset(a), n);
    }
    throw std::out_of_range("unmapped global address 0x" + hex(a));
  }

  // ---- functional reads/writes (timing is charged by the caller) -------

  void write_bytes(arch::Addr a, std::span<const std::byte> src, arch::CoreCoord issuer) {
    auto dst = resolve(a, src.size(), issuer);
    std::memcpy(dst.data(), src.data(), src.size());
    const arch::Addr ca = canonical(a, issuer);
    for (MemoryHook* h : hooks_) h->on_write(ca, src.size(), issuer, engine_->now());
    notify_watches(ca, static_cast<std::uint32_t>(src.size()));
  }
  void read_bytes(arch::Addr a, std::span<std::byte> dst, arch::CoreCoord issuer) {
    auto src = resolve(a, dst.size(), issuer);
    std::memcpy(dst.data(), src.data(), dst.size());
    const arch::Addr ca = canonical(a, issuer);
    for (MemoryHook* h : hooks_) h->on_read(ca, dst.size(), issuer, engine_->now());
  }

  template <typename T>
  void write_value(arch::Addr a, T v, arch::CoreCoord issuer) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_bytes(a, std::as_bytes(std::span<const T, 1>(&v, 1)), issuer);
  }
  template <typename T>
  [[nodiscard]] T read_value(arch::Addr a, arch::CoreCoord issuer) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read_bytes(a, std::as_writable_bytes(std::span<T, 1>(&v, 1)), issuer);
    return v;
  }

  /// Copy between two global ranges (used by DMA chunk commits).
  void copy(arch::Addr dst, arch::Addr src, std::size_t n, arch::CoreCoord issuer) {
    auto s = resolve(src, n, issuer);
    auto d = resolve(dst, n, issuer);
    std::memmove(d.data(), s.data(), n);
    const arch::Addr cd = canonical(dst, issuer);
    if (!hooks_.empty()) {
      const arch::Addr cs = canonical(src, issuer);
      for (MemoryHook* h : hooks_) {
        h->on_read(cs, n, issuer, engine_->now());
        h->on_write(cd, n, issuer, engine_->now());
      }
    }
    notify_watches(cd, static_cast<std::uint32_t>(n));
  }

  // ---- watches: event-driven flag waits ---------------------------------

  /// Suspend until `pred(current u32 at a)` holds; re-evaluated after every
  /// write overlapping `a`. Models the spin loops of Listings 1/2 with a
  /// small wake-up cost instead of per-cycle polling. The flag reads are
  /// invisible to any hook (they are the synchronisation itself); on
  /// success the hook sees a single on_sync acquire for the issuer.
  template <typename Pred>
  sim::Op<void> wait_u32(arch::Addr a, arch::CoreCoord issuer, Pred pred) {
    while (!pred(read_u32_raw(a, issuer))) {
      co_await WatchAwaiter{*this, canonical(a, issuer)};
    }
    for (MemoryHook* h : hooks_) h->on_sync(issuer, engine_->now());
  }

  /// A synchronising read (e.g. a mutex TESTSET probe): functionally a plain
  /// u32 load, but reported to the hook as an acquire rather than a data
  /// read, so the sanitizer treats subsequent remote data as ordered.
  [[nodiscard]] std::uint32_t read_u32_acquire(arch::Addr a, arch::CoreCoord issuer) {
    const std::uint32_t v = read_u32_raw(a, issuer);
    for (MemoryHook* h : hooks_) h->on_sync(issuer, engine_->now());
    return v;
  }

  [[nodiscard]] std::size_t active_watches() const noexcept { return watches_.size(); }

  /// Attach a traffic observer. Hooks compose: every attached hook sees
  /// every access, in attachment order (sanitizer + tracer can coexist).
  /// Hooks are not owned; adding an already-attached hook is a no-op.
  void add_hook(MemoryHook* hook) {
    if (hook == nullptr) return;
    if (std::find(hooks_.begin(), hooks_.end(), hook) == hooks_.end()) {
      hooks_.push_back(hook);
    }
  }
  void remove_hook(MemoryHook* hook) noexcept {
    hooks_.erase(std::remove(hooks_.begin(), hooks_.end(), hook), hooks_.end());
  }
  [[nodiscard]] const std::vector<MemoryHook*>& hooks() const noexcept {
    return hooks_;
  }

private:
  /// Width of a watched location: watches always guard one u32 flag word.
  static constexpr arch::Addr kWatchBytes = 4;

  struct WatchAwaiter {
    MemorySystem& mem;
    arch::Addr addr;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      mem.watches_.emplace(addr, h);
    }
    void await_resume() const noexcept {}
  };

  /// Hook-invisible u32 load, for reads that *are* synchronisation.
  [[nodiscard]] std::uint32_t read_u32_raw(arch::Addr a, arch::CoreCoord issuer) {
    std::uint32_t v;
    auto src = resolve(a, sizeof v, issuer);
    std::memcpy(&v, src.data(), sizeof v);
    return v;
  }

  /// Canonicalise a local-alias address to its global form so that a remote
  /// writer's store to the global address wakes a local-alias watcher.
  [[nodiscard]] arch::Addr canonical(arch::Addr a, arch::CoreCoord issuer) const noexcept {
    if (arch::AddressMap::is_local_alias(a)) {
      return map_.global(issuer, arch::AddressMap::local_offset(a));
    }
    return a;
  }

  /// Wake every watcher whose word overlaps the written range [lo, lo+n).
  /// The index is ordered by watch address, so a store only visits the
  /// watchers it can affect -- O(log w + hits) instead of a scan of every
  /// watcher in the machine on every store. A watch at `w` overlaps iff
  /// w in (lo - kWatchBytes, lo + n), which is one equal-range walk.
  void notify_watches(arch::Addr lo, std::uint32_t n) {
    if (watches_.empty()) return;
    const arch::Addr hi = lo + n;
    const arch::Addr first = lo >= kWatchBytes - 1 ? lo - (kWatchBytes - 1) : 0;
    auto it = watches_.lower_bound(first);
    while (it != watches_.end() && it->first < hi) {
      engine_->schedule_in(1, it->second);  // wake next cycle; watcher re-checks
      it = watches_.erase(it);
    }
  }

  static std::string hex(arch::Addr a) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08X", a);
    return buf;
  }

  arch::AddressMap map_;
  sim::Engine* engine_;
  std::vector<LocalMemory> locals_;
  // The DRAM window comes from calloc: the allocator maps it as zero pages on
  // demand, so a chip pays RSS only for the DRAM its jobs touch instead of
  // zero-filling all 32 MB up front.
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::byte[], FreeDeleter> external_;
  std::size_t external_bytes_;
  // Active watches keyed by watched word address; equal keys keep insertion
  // order (std::multimap), so wake order within one store is deterministic:
  // ascending address, FIFO per address.
  std::multimap<arch::Addr, std::coroutine_handle<>> watches_;
  std::vector<MemoryHook*> hooks_;
};

}  // namespace epi::mem
