// epi_lint: command-line front end for the epi::lint static analyzers.
//
// Lints eCore assembly (.s files in the subset syntax of isa/assembler.hpp)
// and/or the built-in reconstructions of the paper's kernels, printing
// compiler-style "file:line: severity: message [pass]" diagnostics. With
// --workgroup=RxC the inputs are verified *as a group*: remote store/load
// targets are resolved through the flat address map, and the cross-core
// race/deadlock passes (wg-race, wg-flag-deadlock, wg-barrier-mismatch,
// ...) run on the whole workgroup, statically.
//
// Exit status: 0 clean or warnings only, 1 errors (or any finding under
// --Werror), 2 usage or assembly error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/kernels.hpp"
#include "lint/lint.hpp"
#include "lint/workgroup.hpp"
#include "util/parse.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: epi_lint [options] [kernel.s ...]\n"
        "\n"
        "Static checks on eCore ISA-subset assembly. With no inputs, lints\n"
        "the built-in paper kernels (same as --kernels).\n"
        "\n"
        "options:\n"
        "  --kernels         lint the built-in stencil and matmul kernels\n"
        "  --workgroup RxC   verify the inputs as an RxC workgroup: one\n"
        "                    program replicates SPMD-style, else give\n"
        "                    exactly R*C programs in row-major order; with\n"
        "                    no inputs, each built-in kernel is verified\n"
        "                    replicated across the group\n"
        "  --origin R,C      mesh anchor of the workgroup's (0,0) core\n"
        "                    (default 0,0; the mesh is 8x8)\n"
        "  --extent N        declared scratchpad data extent in bytes\n"
        "                    (default 32768; accepts 0x-prefixed hex)\n"
        "  --code OFF:SIZE   declare the program's code region, enabling\n"
        "                    store-into-code checks (both 0x-hex or decimal)\n"
        "  --Werror          treat warnings as errors for the exit status\n"
        "  -h, --help        this text\n"
        "\n"
        "exit status:\n"
        "  0  no findings, or warnings only (without --Werror)\n"
        "  1  errors reported, or any finding with --Werror\n"
        "  2  usage error, unreadable input, or assembly error\n";
}

/// A byte count or offset: decimal, or hex with its documented 0x prefix.
bool parse_u32(std::string_view s, std::uint32_t& out) {
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  return epi::util::parse_number(s.substr(hex ? 2 : 0), out, hex ? 16 : 10) ==
         std::errc{};
}

/// AssemblyError::what() begins with its own "line N: "; drop it, since we
/// print the location in file:line form already.
std::string assembly_message(const epi::isa::AssemblyError& e) {
  const std::string what = e.what();
  const std::string prefix = "line " + std::to_string(e.line) + ": ";
  return what.rfind(prefix, 0) == 0 ? what.substr(prefix.size()) : what;
}

struct Totals {
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

/// Lint one assembled program; print findings; tally them.
void lint_one(const std::string& name, const epi::isa::Program& prog,
              const epi::lint::LintOptions& opts, Totals& totals) {
  for (const auto& f : epi::lint::lint_program(prog, opts)) {
    std::cout << f.format(name) << "\n";
    (f.severity >= epi::lint::Severity::Error ? totals.errors : totals.warnings)++;
  }
}

/// Verify one named-source set as an RxC group; print findings; tally them.
void verify_group(
    unsigned rows, unsigned cols, epi::arch::CoreCoord origin,
    const std::vector<std::pair<std::string, std::string>>& sources,
    const epi::lint::LintOptions& per_core, Totals& totals) {
  auto spec = epi::lint::assemble_workgroup(rows, cols, sources, origin);
  spec.per_core = per_core;
  for (const auto& f : epi::lint::verify_workgroup(spec)) {
    std::cout << f.format() << "\n";
    (f.finding.severity >= epi::lint::Severity::Error ? totals.errors
                                                      : totals.warnings)++;
  }
}

}  // namespace

int main(int argc, char** argv) {
  epi::lint::LintOptions opts;
  bool builtins = false;
  bool werror = false;
  bool workgroup = false;
  unsigned wg_rows = 1, wg_cols = 1;
  epi::arch::CoreCoord origin{0, 0};
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--opt value" and "--opt=value".
    std::string inline_val;
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_val = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto value = [&]() -> std::string {
      if (!inline_val.empty()) return inline_val;
      return ++i < argc ? argv[i] : "";
    };
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--kernels") {
      builtins = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (arg == "--workgroup") {
      if (!epi::util::parse_pair(value(), 'x', wg_rows, wg_cols) || wg_rows == 0 ||
          wg_cols == 0 || wg_rows > 64 || wg_cols > 64) {
        std::cerr << "epi_lint: --workgroup needs RxC (e.g. 2x2)\n";
        return 2;
      }
      workgroup = true;
    } else if (arg == "--origin") {
      if (!epi::util::parse_pair(value(), ',', origin.row, origin.col) ||
          origin.row > 63 || origin.col > 63) {
        std::cerr << "epi_lint: --origin needs R,C (e.g. 0,0)\n";
        return 2;
      }
    } else if (arg == "--extent") {
      if (!parse_u32(value(), opts.extent)) {
        std::cerr << "epi_lint: --extent needs a byte count\n";
        return 2;
      }
    } else if (arg == "--code") {
      std::uint32_t off = 0, size = 0;
      const std::string spec = value();
      const auto colon = spec.find(':');
      if (colon == std::string::npos ||
          !parse_u32(std::string_view(spec).substr(0, colon), off) ||
          !parse_u32(std::string_view(spec).substr(colon + 1), size)) {
        std::cerr << "epi_lint: --code needs OFFSET:SIZE\n";
        return 2;
      }
      opts.code_region =
          epi::lint::Region{"code", epi::lint::RegionKind::Code, off, size};
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "epi_lint: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) builtins = true;
  if (workgroup && !files.empty() && files.size() != 1 &&
      files.size() != std::size_t{wg_rows} * wg_cols) {
    std::cerr << "epi_lint: --workgroup=" << wg_rows << "x" << wg_cols
              << " needs 1 (replicated) or " << wg_rows * wg_cols
              << " programs, got " << files.size() << "\n";
    return 2;
  }

  // The paper's kernels at representative sizes: a 4-row-pair stencil
  // stripe (output after the 22-float x 10-row input block) and the full
  // 32-row matmul macro, with its documented A/B/C bank placement.
  epi::lint::LintOptions mm_opts = opts;
  if (!mm_opts.layout) {
    mm_opts.layout = epi::lint::ScratchpadLayout{};
    mm_opts.layout->add("A", epi::lint::RegionKind::Data, 0x0000, 0x1000)
        .add("B", epi::lint::RegionKind::Data, 0x1000, 0x1000)
        .add("C", epi::lint::RegionKind::Data, 0x2000, 0x1000);
  }

  Totals totals;
  if (builtins) {
    const std::string stencil =
        epi::isa::generate_stencil_stripe(4, epi::util::StencilWeights{}, 880);
    const std::string matmul = epi::isa::generate_matmul_rows(32);
    try {
      if (workgroup) {
        // Each built-in verified SPMD-replicated across the group.
        verify_group(wg_rows, wg_cols, origin, {{"<builtin:stencil>", stencil}},
                     opts, totals);
        verify_group(wg_rows, wg_cols, origin, {{"<builtin:matmul>", matmul}},
                     mm_opts, totals);
      } else {
        lint_one("<builtin:stencil>", epi::isa::assemble(stencil), opts, totals);
        lint_one("<builtin:matmul>", epi::isa::assemble(matmul), mm_opts, totals);
      }
    } catch (const epi::isa::AssemblyError& e) {
      std::cerr << "<builtin>:" << e.line << ": error: " << assembly_message(e)
                << "\n";
      return 2;
    } catch (const std::invalid_argument& e) {
      std::cerr << "epi_lint: " << e.what() << "\n";
      return 2;
    }
  }

  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "epi_lint: cannot open '" << file << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    sources.emplace_back(file, text.str());
  }
  // Assemble up front so a syntax error in any input is exit 2 either way.
  std::vector<epi::isa::Program> programs;
  for (const auto& [file, text] : sources) {
    try {
      programs.push_back(epi::isa::assemble(text));
    } catch (const epi::isa::AssemblyError& e) {
      std::cout << file << ":" << e.line << ": error: " << assembly_message(e)
                << "\n";
      return 2;
    }
  }
  if (workgroup && !sources.empty()) {
    try {
      verify_group(wg_rows, wg_cols, origin, sources, opts, totals);
    } catch (const std::invalid_argument& e) {
      std::cerr << "epi_lint: " << e.what() << "\n";
      return 2;
    }
  } else {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      lint_one(sources[i].first, programs[i], opts, totals);
    }
  }

  const std::size_t programs_seen =
      files.size() + (builtins ? 2 : 0);
  if (totals.errors == 0 && totals.warnings == 0) {
    std::cout << "epi_lint: clean (" << programs_seen << " program"
              << (programs_seen == 1 ? "" : "s") << ")\n";
    return 0;
  }
  if (totals.errors > 0 || werror) return 1;
  return 0;  // warnings only
}
