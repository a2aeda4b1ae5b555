// epi-fault: author deterministic fault plans.
//
// A fault plan (src/fault/plan.hpp) is data: a list of scheduled hardware
// faults plus the seed that drives every random choice made while applying
// them. This tool generates seeded chaos plans; `epi_serve --plan=FILE`
// serves a workload under one (add `--log` for the injection and decision
// logs, `--chips=RxC` for a cluster plan).
//
// Usage:
//   epi_fault gen [options]          generate a chaos plan (text to stdout)
//     --chaos-seed=S                 plan seed                    (default 1)
//     --kills=N --stalls=N           core faults                  (default 1/1)
//     --links=N                      directed mesh-link outages   (default 4)
//     --elink-outages=N              transient whole-eLink stalls (default 1)
//     --elink-flips=N --mem-flips=N  bit corruptions              (default 1/1)
//     --horizon=C                    faults land in [0, C)        (default 1000000)
//     --out=FILE                     write the plan to FILE
//     --chips=RxC                    emit a cluster plan (`chips RxC` header;
//                                    machine faults get chip= scopes)
//     --chip-crashes=N --chip-stalls=N   chip-scoped faults       (default 0/0)
//     --xmesh=N                      bridge-link outages (some flapping)
//     --notice-drops=N --notice-flips=N  completion-notice faults (default 0/0)
//
// Exit status: 0 on success, 1 if the plan cannot be written, 2 on a bad
// command line.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "fault/plan.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  bool gen = false;
  std::string out_path;
  fault::ChaosConfig cc;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.core_stalls = 1;
  cc.link_faults = 4;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const util::Flag f(arg);
      if (arg == "gen") { gen = true; continue; }
      if (f.text("--out", out_path) || f.number("--chaos-seed", cc.seed) ||
          f.number("--kills", cc.core_kills) || f.number("--stalls", cc.core_stalls) ||
          f.number("--links", cc.link_faults) ||
          f.number("--elink-outages", cc.elink_outages) ||
          f.number("--elink-flips", cc.elink_flips) || f.number("--mem-flips", cc.mem_flips) ||
          f.shape("--chips", cc.chip_rows, cc.chip_cols) ||
          f.number("--chip-crashes", cc.chip_crashes) ||
          f.number("--chip-stalls", cc.chip_stalls) || f.number("--xmesh", cc.xmesh_faults) ||
          f.number("--notice-drops", cc.notice_drops) ||
          f.number("--notice-flips", cc.notice_flips) || f.number("--horizon", cc.horizon)) {
        continue;
      }
      throw util::ParseError("unknown argument '" + std::string(arg) +
                             "' (see the header of tools/epi_fault.cpp)");
    }
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "epi_fault: %s\n", e.what());
    return 2;
  }
  if (!gen) {
    std::fprintf(stderr, "epi_fault: expected the verb 'gen'\n");
    return 2;
  }

  try {
    const std::string text = fault::save(fault::generate(cc));
    if (out_path.empty()) {
      std::cout << text;
    } else {
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write plan: " + out_path);
      os << text;
      std::cout << "wrote " << out_path << "\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_fault: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
