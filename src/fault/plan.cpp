#include "fault/plan.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <set>

#include "sim/random.hpp"
#include "util/fmt.hpp"
#include "util/parse.hpp"

namespace epi::fault {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::KillCore: return "kill";
    case FaultKind::StallCore: return "stall";
    case FaultKind::LinkFail: return "link";
    case FaultKind::ElinkFail: return "elink";
    case FaultKind::ElinkFlip: return "elink-flip";
    case FaultKind::MemFlip: return "mem-flip";
    case FaultKind::ChipCrash: return "chip-crash";
    case FaultKind::ChipStall: return "chip-stall";
    case FaultKind::XMeshFail: return "xmesh";
    case FaultKind::NoticeDrop: return "notice-drop";
    case FaultKind::NoticeFlip: return "notice-flip";
  }
  return "?";
}

namespace {

/// Spread `n` event times over [0, horizon) with a uniform draw each.
sim::Cycles draw_time(sim::Rng& rng, sim::Cycles horizon) {
  return horizon == 0 ? 0 : rng.next_below(horizon);
}

/// Mean-centred duration: uniform in [mean/2, 3*mean/2), never zero (zero
/// means permanent in the plan format).
sim::Cycles draw_duration(sim::Rng& rng, sim::Cycles mean) {
  if (mean == 0) return 1;
  return mean / 2 + rng.next_below(mean) + 1;
}

arch::CoreCoord draw_core(sim::Rng& rng, arch::MeshDims dims) {
  return dims.coord_of(static_cast<unsigned>(rng.next_below(dims.core_count())));
}

}  // namespace

FaultPlan generate(const ChaosConfig& cfg) {
  sim::Rng rng(cfg.seed);
  FaultPlan plan;
  plan.seed = cfg.seed;
  auto add = [&](FaultEvent e) { plan.events.push_back(e); };

  for (unsigned i = 0; i < cfg.core_kills; ++i) {
    FaultEvent e;
    e.kind = FaultKind::KillCore;
    e.core = draw_core(rng, cfg.dims);
    e.at = draw_time(rng, cfg.horizon);
    add(e);
  }
  for (unsigned i = 0; i < cfg.core_stalls; ++i) {
    FaultEvent e;
    e.kind = FaultKind::StallCore;
    e.core = draw_core(rng, cfg.dims);
    e.at = draw_time(rng, cfg.horizon);
    e.duration = draw_duration(rng, cfg.stall_cycles);
    add(e);
  }
  for (unsigned i = 0; i < cfg.link_faults; ++i) {
    FaultEvent e;
    e.kind = FaultKind::LinkFail;
    // Redraw until the direction points at a real neighbour: a boundary
    // link that nothing can ever route over would waste a fault.
    arch::CoreCoord nb;
    do {
      e.core = draw_core(rng, cfg.dims);
      e.dir = static_cast<arch::Dir>(rng.next_below(4));
    } while (!cfg.dims.neighbour(e.core, e.dir, nb));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = rng.next_float() < cfg.transient_link_prob
                     ? draw_duration(rng, cfg.link_outage_cycles)
                     : 0;
    add(e);
  }
  for (unsigned i = 0; i < cfg.elink_outages; ++i) {
    FaultEvent e;
    e.kind = FaultKind::ElinkFail;
    e.elink = static_cast<std::uint8_t>(rng.next_below(2));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = draw_duration(rng, cfg.elink_outage_cycles);
    add(e);
  }
  for (unsigned i = 0; i < cfg.elink_flips; ++i) {
    FaultEvent e;
    e.kind = FaultKind::ElinkFlip;
    e.elink = static_cast<std::uint8_t>(rng.next_below(2));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = 0;  // armed from `at` onward until the budget is spent
    e.count = 1;
    add(e);
  }
  for (unsigned i = 0; i < cfg.mem_flips; ++i) {
    FaultEvent e;
    e.kind = FaultKind::MemFlip;
    e.scratch = false;  // chaos plans corrupt DRAM, where validation can see it
    e.at = draw_time(rng, cfg.horizon);
    e.duration = 0;
    e.count = 1;
    add(e);
  }

  // ---- cluster chaos: chip-scoped events (all drawn after the machine
  // kinds so single-chip configs keep their historical byte-identity) ------
  if (cfg.chip_rows != 0 && cfg.chip_cols != 0) {
    plan.chip_rows = cfg.chip_rows;
    plan.chip_cols = cfg.chip_cols;
    const arch::MeshDims grid{cfg.chip_rows, cfg.chip_cols};
    // A cluster plan requires every machine-level event to name its chip.
    for (FaultEvent& e : plan.events) {
      e.chip = draw_core(rng, grid);
      e.has_chip = true;
    }
    for (unsigned i = 0; i < cfg.chip_crashes; ++i) {
      FaultEvent e;
      e.kind = FaultKind::ChipCrash;
      e.chip = draw_core(rng, grid);
      // A crash in the opening cycles leaves nothing to fail over; land it
      // once traffic is flowing.
      e.at = cfg.horizon / 4 + draw_time(rng, cfg.horizon - cfg.horizon / 4);
      add(e);
    }
    for (unsigned i = 0; i < cfg.chip_stalls; ++i) {
      FaultEvent e;
      e.kind = FaultKind::ChipStall;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = draw_duration(rng, cfg.chip_stall_cycles);
      add(e);
    }
    for (unsigned i = 0; i < cfg.xmesh_faults; ++i) {
      FaultEvent e;
      e.kind = FaultKind::XMeshFail;
      e.chip = draw_core(rng, grid);
      do {
        e.chip2 = draw_core(rng, grid);
      } while (grid.core_count() > 1 && e.chip2 == e.chip);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = draw_duration(rng, cfg.xmesh_outage_cycles);
      if (rng.next_float() < cfg.xmesh_flap_prob) {
        e.flap = 2 + static_cast<std::uint32_t>(rng.next_below(3));
        e.period = e.duration * 2 + draw_duration(rng, cfg.xmesh_outage_cycles);
      }
      add(e);
    }
    for (unsigned i = 0; i < cfg.notice_drops; ++i) {
      FaultEvent e;
      e.kind = FaultKind::NoticeDrop;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = 0;  // armed from `at` onward until the budget is spent
      e.count = 1;
      add(e);
    }
    for (unsigned i = 0; i < cfg.notice_flips; ++i) {
      FaultEvent e;
      e.kind = FaultKind::NoticeFlip;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = 0;
      e.count = 1;
      add(e);
    }
  }
  return plan;
}

std::string save(const FaultPlan& plan) {
  std::string out = "# epi-fault plan (one fault per line)\n";
  out += util::format("seed %llu\n", static_cast<unsigned long long>(plan.seed));
  if (plan.cluster()) {
    out += util::format("chips %ux%u\n", plan.chip_rows, plan.chip_cols);
  }
  for (const FaultEvent& e : plan.events) {
    const auto at = static_cast<unsigned long long>(e.at);
    const auto dur = static_cast<unsigned long long>(e.duration);
    // Machine-level events in a cluster plan lead with their chip scope.
    const std::string scope =
        e.has_chip && !is_chip_scoped(e.kind)
            ? util::format("chip=%u,%u ", e.chip.row, e.chip.col)
            : std::string();
    std::string line;
    switch (e.kind) {
      case FaultKind::KillCore:
        line = util::format("kill %score=%u,%u at=%llu", scope.c_str(),
                            e.core.row, e.core.col, at);
        break;
      case FaultKind::StallCore:
        line = util::format("stall %score=%u,%u at=%llu for=%llu", scope.c_str(),
                            e.core.row, e.core.col, at, dur);
        break;
      case FaultKind::LinkFail:
        line = util::format("link %srouter=%u,%u dir=%s at=%llu for=%llu",
                            scope.c_str(), e.core.row, e.core.col,
                            arch::to_string(e.dir), at, dur);
        break;
      case FaultKind::ElinkFail:
        line = util::format("elink %skind=%s at=%llu for=%llu", scope.c_str(),
                            e.elink == 0 ? "write" : "read", at, dur);
        break;
      case FaultKind::ElinkFlip:
        line = util::format("elink-flip %skind=%s at=%llu for=%llu count=%u",
                            scope.c_str(), e.elink == 0 ? "write" : "read", at,
                            dur, e.count);
        break;
      case FaultKind::MemFlip:
        if (e.scratch && !e.core_any) {
          line = util::format(
              "mem-flip %sregion=scratch core=%u,%u at=%llu for=%llu count=%u",
              scope.c_str(), e.core.row, e.core.col, at, dur, e.count);
        } else {
          line = util::format("mem-flip %sregion=%s at=%llu for=%llu count=%u",
                              scope.c_str(), e.scratch ? "scratch" : "dram", at,
                              dur, e.count);
        }
        break;
      case FaultKind::ChipCrash:
        line = util::format("chip-crash chip=%u,%u at=%llu", e.chip.row,
                            e.chip.col, at);
        break;
      case FaultKind::ChipStall:
        line = util::format("chip-stall chip=%u,%u at=%llu for=%llu", e.chip.row,
                            e.chip.col, at, dur);
        break;
      case FaultKind::XMeshFail:
        line = util::format("xmesh from=%u,%u to=%u,%u at=%llu for=%llu",
                            e.chip.row, e.chip.col, e.chip2.row, e.chip2.col,
                            at, dur);
        if (e.flap > 1) {
          line += util::format(" flap=%u period=%llu", e.flap,
                               static_cast<unsigned long long>(e.period));
        }
        break;
      case FaultKind::NoticeDrop:
      case FaultKind::NoticeFlip:
        line = util::format("%s chip=%u,%u at=%llu for=%llu count=%u",
                            to_string(e.kind), e.chip.row, e.chip.col, at, dur,
                            e.count);
        break;
    }
    if (e.id != 0) line += util::format(" id=%u", e.id);
    out += line + "\n";
  }
  return out;
}

namespace {

// The fields each directive must and may carry, indexed by FaultKind.
// Machine-level directives take `chip=` only in a cluster plan, and must
// there.
struct Grammar {
  std::string_view required, optional;
};
constexpr Grammar kGrammar[] = {
    {"core at", "chip id"},                  // kill
    {"core at for", "chip id"},              // stall
    {"router dir at", "chip for id"},        // link
    {"kind at", "chip for id"},              // elink
    {"kind at", "chip for count id"},        // elink-flip
    {"region at", "chip core for count id"}, // mem-flip
    {"chip at", "id"},                       // chip-crash
    {"chip at for", "id"},                   // chip-stall
    {"from to at", "for flap period id"},    // xmesh
    {"chip at", "for count id"},             // notice-drop
    {"chip at", "for count id"},             // notice-flip
};

FaultEvent parse_event(const util::Line& line, const FaultPlan& plan,
                       std::set<std::uint32_t>& seen_ids) {
  unsigned k = 0;
  while (k < std::size(kGrammar) && line.directive() != to_string(static_cast<FaultKind>(k))) ++k;
  if (k == std::size(kGrammar)) {
    throw line.error("unknown directive '" + std::string(line.directive()) + "'");
  }
  FaultEvent e;
  e.kind = static_cast<FaultKind>(k);
  if (is_chip_scoped(e.kind) && !plan.cluster()) {
    throw line.error(std::string("'") + to_string(e.kind) +
                     "' needs a prior 'chips RxC' declaration");
  }
  line.fields(kGrammar[k].required, kGrammar[k].optional);

  const auto chip_field = [&](const char* key, arch::CoreCoord& c) {
    if (!line.pair(key, ',', c.row, c.col, "row,col")) return false;
    if (!plan.cluster()) {
      throw line.error(std::string("'") + key + "=' needs a prior 'chips RxC' declaration");
    }
    if (c.row >= plan.chip_rows || c.col >= plan.chip_cols) {
      throw line.error(util::format("chip coordinate (%u,%u) outside the %ux%u chip grid",
                                    c.row, c.col, plan.chip_rows, plan.chip_cols));
    }
    return true;
  };
  e.has_chip = chip_field("chip", e.chip) || chip_field("from", e.chip);
  chip_field("to", e.chip2);
  const bool have_core = line.pair("core", ',', e.core.row, e.core.col, "row,col") ||
                         line.pair("router", ',', e.core.row, e.core.col, "row,col");
  // Word lists in enum order (arch::Dir; elink 0 = write network).
  e.dir = static_cast<arch::Dir>(line.choice("dir", {"north", "south", "west", "east"}).value_or(0));
  e.elink = static_cast<std::uint8_t>(line.choice("kind", {"write", "read"}).value_or(0));
  e.scratch = line.choice("region", {"dram", "scratch"}) == 1u;
  line.number("at", e.at);
  line.number("for", e.duration);
  line.number("count", e.count);
  line.number("flap", e.flap);
  line.number("period", e.period);
  if (line.number("id", e.id)) {
    if (e.id == 0) throw line.error("id must be a positive integer");
    if (!seen_ids.insert(e.id).second) {
      throw line.error(util::format("duplicate fault id %u", e.id));
    }
  }

  if (plan.cluster() && !is_chip_scoped(e.kind) && !e.has_chip) {
    throw line.error(std::string("machine-level '") + to_string(e.kind) +
                     "' in a cluster plan needs chip=row,col");
  }
  if ((e.kind == FaultKind::StallCore || e.kind == FaultKind::ChipStall) && e.duration == 0) {
    throw line.error(std::string(to_string(e.kind)) + " needs for=CYCLES > 0");
  }
  if (e.kind == FaultKind::MemFlip && !e.scratch && have_core) {
    throw line.error("mem-flip region=dram takes no core");
  }
  if (e.kind == FaultKind::XMeshFail) {
    if (e.chip == e.chip2) throw line.error("xmesh from= and to= must differ");
    if (e.flap == 0) throw line.error("flap must be at least 1");
    if (e.flap > 1 && e.duration == 0) {
      throw line.error("a permanent (for=0) xmesh outage cannot flap");
    }
    if (e.flap > 1 && e.period == 0) throw line.error("xmesh flap>1 needs period=CYCLES > 0");
  }
  if (e.count == 0) throw line.error("count must be at least 1");
  e.core_any = !(e.kind == FaultKind::MemFlip && e.scratch && have_core);
  return e;
}

}  // namespace

FaultPlan parse(std::istream& in, const std::string& source) {
  FaultPlan plan;
  std::set<std::uint32_t> seen_ids;
  try {
    util::for_each_line(in, source, [&](const util::Line& line) {
      if (line.directive() == "seed") {
        const std::string_view v = line.value();
        if (util::parse_number(v, plan.seed) != std::errc{}) {
          throw line.error("seed value '" + std::string(v) + "' is not an unsigned 64-bit decimal");
        }
      } else if (line.directive() == "chips") {
        if (plan.cluster()) throw line.error("duplicate 'chips' declaration");
        if (!plan.events.empty()) {
          throw line.error("'chips RxC' must precede every fault directive");
        }
        const std::string_view v = line.value();
        if (!util::parse_pair(v, 'x', plan.chip_rows, plan.chip_cols)) {
          throw line.error("chips value '" + std::string(v) + "' is not RxC (e.g. 2x2)");
        }
        if (!plan.cluster()) throw line.error("chips grid must be non-empty");
      } else {
        plan.events.push_back(parse_event(line, plan, seen_ids));
      }
    });
  } catch (const util::ParseError& e) {
    throw FaultError(e.what());
  }
  return plan;
}

FaultPlan load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FaultError("cannot open fault plan: " + path);
  return parse(in, path);
}

}  // namespace epi::fault
