// The static half of epi-lint: every pass is exercised twice -- once by a
// minimal seeded-defect fixture that must trip it (and nothing else), and
// once by the paper's real kernels, which must come out clean.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/kernels.hpp"
#include "lint/cfg.hpp"
#include "lint/lint.hpp"

namespace {

using namespace epi;
using namespace epi::lint;

std::vector<Finding> lint_text(const char* text, const LintOptions& opts = {}) {
  return lint_program(isa::assemble(text), opts);
}

std::size_t count_pass(const std::vector<Finding>& fs, const char* pass) {
  std::size_t n = 0;
  for (const auto& f : fs) {
    if (f.pass == pass) ++n;
  }
  return n;
}

std::string dump(const std::vector<Finding>& fs) {
  std::string s;
  for (const auto& f : fs) s += f.format("<test>") + "\n";
  return s;
}

// ---- the paper's kernels lint clean --------------------------------------

TEST(Lint, BuiltinStencilIsClean) {
  const auto prog =
      isa::assemble(isa::generate_stencil_stripe(4, util::StencilWeights{}, 880));
  const auto fs = lint_program(prog);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Lint, BuiltinMatmulIsCleanWithLayout) {
  LintOptions opts;
  opts.layout = ScratchpadLayout{};
  opts.layout->add("A", RegionKind::Data, 0x0000, 0x1000)
      .add("B", RegionKind::Data, 0x1000, 0x1000)
      .add("C", RegionKind::Data, 0x2000, 0x1000);
  const auto fs = lint_program(isa::assemble(isa::generate_matmul_rows(32)), opts);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---- CFG construction ----------------------------------------------------

TEST(LintCfg, SplitsBlocksAtBranchesAndTargets) {
  const auto prog = isa::assemble(
      "mov r7, #4\n"
      "loop:\n"
      "sub r7, r7, #1\n"
      "bne loop\n"
      "halt\n");
  const Cfg cfg = Cfg::build(prog);
  ASSERT_EQ(cfg.blocks.size(), 3u);  // [mov], [sub,bne], [halt]
  EXPECT_EQ(cfg.blocks[0].succ, (std::vector<std::size_t>{1}));
  EXPECT_EQ(cfg.blocks[1].succ, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(cfg.blocks[2].ends_in_halt);
  EXPECT_TRUE(cfg.reachable[0] && cfg.reachable[1] && cfg.reachable[2]);
  const auto can = cfg.can_terminate();
  EXPECT_TRUE(can[0] && can[1] && can[2]);
}

// ---- seeded-defect fixtures: one finding each ----------------------------

TEST(Lint, UseBeforeDef) {
  const auto fs = lint_text(
      "mov r0, #0\n"
      "ldr r1, [r2, #0]\n"  // r2: nothing ever wrote it
      "str r1, [r0, #0]\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "use-before-def");
  EXPECT_EQ(fs[0].severity, Severity::Error);
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(Lint, OddLdrdPair) {
  // The assembler itself rejects odd pairs, so build the program by hand,
  // the way a buggy code generator would.
  isa::Program p;
  p.code.push_back({isa::Opcode::MovImm, 0, 0, 0, true, false, 0});
  p.code.push_back({isa::Opcode::Ldrd, 3, 0, 0, true, false, 8});
  p.code.push_back({isa::Opcode::Halt, 0, 0, 0, false, false, 0});
  const auto fs = lint_program(p);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "reg-pair");
  EXPECT_EQ(fs[0].severity, Severity::Error);
  EXPECT_EQ(fs[0].instr, 1u);
}

TEST(Lint, RegisterOutOfRange) {
  isa::Program p;
  p.code.push_back({isa::Opcode::MovReg, 2, 80, 0, false, false, 0});  // r80
  p.code.push_back({isa::Opcode::Halt, 0, 0, 0, false, false, 0});
  const auto fs = lint_program(p);
  ASSERT_EQ(count_pass(fs, "reg-range"), 1u) << dump(fs);
  EXPECT_TRUE(any_at_least(fs, Severity::Error));
}

TEST(Lint, MissingHalt) {
  const auto fs = lint_text(
      "mov r0, #0\n"
      "str r0, [r0, #0]\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "termination");
  EXPECT_EQ(fs[0].severity, Severity::Error);
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(Lint, StructurallyInfiniteLoop) {
  const auto fs = lint_text(
      "loop:\n"
      "b loop\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "termination");
  EXPECT_NE(fs[0].message.find("infinite"), std::string::npos);
}

TEST(Lint, CounterStepsPastZero) {
  const auto fs = lint_text(
      "mov r7, #5\n"
      "loop:\n"
      "sub r7, r7, #2\n"  // 5, 3, 1, -1, ... Z is never set
      "bne loop\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "termination");
  EXPECT_NE(fs[0].message.find("never reaches zero"), std::string::npos);
}

TEST(Lint, UnreachableCode) {
  const auto fs = lint_text(
      "b end\n"
      "mov r0, #1\n"
      "end:\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "unreachable");
  EXPECT_EQ(fs[0].severity, Severity::Warning);
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(Lint, FlagUsedBeforeSet) {
  const auto fs = lint_text(
      "mov r0, #0\n"
      "str r0, [r0, #0]\n"
      "bne skip\n"  // no add/sub has set Z yet
      "skip:\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "flag-undef");
  EXPECT_EQ(fs[0].severity, Severity::Warning);
}

TEST(Lint, DeadStore) {
  const auto fs = lint_text(
      "mov r0, #1\n"  // overwritten before any use
      "mov r0, #2\n"
      "mov r1, #0\n"
      "str r0, [r1, #0]\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "dead-store");
  EXPECT_EQ(fs[0].line, 1u);
}

TEST(Lint, ConstantAddressOutsideExtent) {
  const auto fs = lint_text(
      "mov r0, #32768\n"
      "mov r1, #0\n"
      "str r1, [r0, #0]\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "mem-extent");
  EXPECT_EQ(fs[0].line, 3u);
}

TEST(Lint, DeclaredExtentIsRespected) {
  LintOptions opts;
  opts.extent = 1024;
  const auto fs = lint_text(
      "mov r0, #1024\n"
      "mov r1, #0\n"
      "str r1, [r0, #0]\n"
      "halt\n",
      opts);
  ASSERT_EQ(count_pass(fs, "mem-extent"), 1u) << dump(fs);
}

TEST(Lint, PostmodifyStrideWalksOutOfScratchpad) {
  const auto fs = lint_text(
      "mov r0, #0\n"
      "mov r1, #0\n"
      "mov r7, #64\n"
      "loop:\n"
      "str r1, [r0], #1024\n"  // 64 iterations x 1 KB = 64 KB walk
      "sub r7, r7, #1\n"
      "bne loop\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "mem-extent");
  EXPECT_EQ(fs[0].line, 5u);
  EXPECT_NE(fs[0].message.find("stride"), std::string::npos);
}

TEST(Lint, InBoundsStrideIsClean) {
  const auto fs = lint_text(
      "mov r0, #0\n"
      "mov r1, #4096\n"
      "mov r7, #64\n"
      "loop:\n"
      "ldr r2, [r0], #4\n"
      "str r2, [r1], #4\n"
      "sub r7, r7, #1\n"
      "bne loop\n"
      "halt\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// `ldr r1, [r1], #4` leaves the loaded value plus 4 in r1, so r1 is
// data-dependent, not a cursor stepping through the scratchpad: the walk
// cannot be bounded and must not be reported. Loading into another register
// (r2) off the same base is the control case.
TEST(Lint, PostmodifyLoadIntoItsOwnBaseIsNoCursor) {
  for (const char* rd : {"r1", "r2"}) {
    const std::string text = std::string(
                                 "mov r7, #5\n"
                                 "mov r1, #0x7fe0\n"
                                 "loop:\n"
                                 "ldr ") +
                             rd +
                             ", [r1], #4\n"
                             "sub r7, r7, #1\n"
                             "bne loop\n"
                             "halt\n";
    const auto fs = lint_text(text.c_str());
    EXPECT_TRUE(fs.empty()) << rd << ":\n" << dump(fs);
  }
}

TEST(Lint, BankStraddle) {
  const auto fs = lint_text(
      "mov r0, #8190\n"
      "mov r1, #0\n"
      "str r1, [r0, #0]\n"  // bytes 8190..8193 cross the bank-0/bank-1 line
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "bank-straddle");
  EXPECT_EQ(fs[0].severity, Severity::Warning);
}

TEST(Lint, StoreIntoCodeRegion) {
  LintOptions opts;
  opts.code_region = Region{"kernel", RegionKind::Code, 0x0000, 0x0800};
  const auto fs = lint_text(
      "mov r0, #16\n"
      "mov r1, #1\n"
      "str r1, [r0, #0]\n"
      "halt\n",
      opts);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "code-write");
  EXPECT_EQ(fs[0].severity, Severity::Error);
}

TEST(Lint, StridedStoreIntoCodeRegion) {
  LintOptions opts;
  opts.code_region = Region{"kernel", RegionKind::Code, 0x1000, 0x0800};
  const auto fs = lint_text(
      "mov r0, #0\n"
      "mov r1, #0\n"
      "mov r7, #8\n"
      "loop:\n"
      "str r1, [r0], #1024\n"  // iteration 4 lands at 0x1000
      "sub r7, r7, #1\n"
      "bne loop\n"
      "halt\n",
      opts);
  ASSERT_EQ(count_pass(fs, "code-write"), 1u) << dump(fs);
}

TEST(Lint, EmptyProgramIsATerminationError) {
  const auto fs = lint_program(isa::Program{});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "termination");
}

// ---- scratchpad layout checker -------------------------------------------

TEST(LintLayout, OverlapIsAnError) {
  ScratchpadLayout l;
  l.add("code", RegionKind::Code, 0x0000, 0x2000)
      .add("data", RegionKind::Data, 0x1800, 0x1000);
  const auto fs = check_layout(l);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "layout-overlap");
  EXPECT_EQ(fs[0].severity, Severity::Error);
}

TEST(LintLayout, BudgetOverflowIsAnError) {
  ScratchpadLayout l;
  l.add("big", RegionKind::Data, 0x7000, 0x2000);  // ends at 36 KB
  const auto fs = check_layout(l);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "layout-overflow");
}

TEST(LintLayout, CodeSharingABankWithDataIsANote) {
  ScratchpadLayout l;
  l.add("code", RegionKind::Code, 0x0000, 0x1000)
      .add("in", RegionKind::Data, 0x1000, 0x1000);  // same 8 KB bank as code
  const auto fs = check_layout(l);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].pass, "layout-bank-sharing");
  EXPECT_EQ(fs[0].severity, Severity::Note);
}

TEST(LintLayout, SeparateBanksAreClean) {
  ScratchpadLayout l;
  l.add("code", RegionKind::Code, 0x0000, 0x2000)
      .add("in", RegionKind::Data, 0x2000, 0x2000)
      .add("out", RegionKind::Data, 0x4000, 0x2000)
      .add("stack", RegionKind::Stack, 0x6000, 0x2000);
  const auto fs = check_layout(l);
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(LintLayout, EmptyRegionIsAWarning) {
  ScratchpadLayout l;
  l.add("dma", RegionKind::Dma, 0x4000, 0);
  const auto fs = check_layout(l);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "layout-empty");
  EXPECT_EQ(fs[0].severity, Severity::Warning);
}

TEST(LintLayout, LayoutCodeRegionFeedsStoreChecks) {
  LintOptions opts;
  opts.layout = ScratchpadLayout{};
  opts.layout->add("code", RegionKind::Code, 0x0000, 0x2000)
      .add("data", RegionKind::Data, 0x2000, 0x2000);
  const auto fs = lint_text(
      "mov r0, #64\n"
      "mov r1, #7\n"
      "str r1, [r0, #0]\n"  // 0x40 is inside the declared code region
      "halt\n",
      opts);
  EXPECT_EQ(count_pass(fs, "code-write"), 1u) << dump(fs);
}

// ---- diagnostics carry source lines --------------------------------------

TEST(Lint, FindingsCarrySourceLinesThroughCommentsAndLabels) {
  const auto fs = lint_text(
      "; a comment line\n"
      "\n"
      "mov r0, #0\n"
      "ldr r1, [r2, #0]   ; seeded use-before-def\n"
      "str r1, [r0, #0]\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].line, 4u);
  EXPECT_NE(fs[0].format("kernel.s").find("kernel.s:4: error:"), std::string::npos);
}

TEST(Lint, FormatFallsBackToInstructionIndexWithoutALine) {
  // Hand-built Programs carry no source lines; the diagnostic must anchor
  // to the instruction index instead of printing a misleading ":0:".
  lint::Finding f;
  f.pass = "mem-extent";
  f.severity = lint::Severity::Error;
  f.instr = 7;
  f.line = 0;
  f.message = "store past the declared extent";
  EXPECT_EQ(f.format("prog"),
            "prog:<instr#7>: error: store past the declared extent [mem-extent]");
  f.instr = lint::Finding::kNoInstr;
  EXPECT_EQ(f.format("prog"),
            "prog: error: store past the declared extent [mem-extent]");
}

TEST(Lint, FindingsAreOrderedByInstruction) {
  const auto fs = lint_text(
      "mov r0, #1\n"   // dead store (instr 0)
      "mov r0, #2\n"
      "mov r1, #0\n"
      "str r0, [r1, #0]\n"
      "bne done\n"     // flag-undef (instr 4)... Z set? no add/sub: undefined
      "done:\n"
      "halt\n");
  ASSERT_EQ(fs.size(), 2u) << dump(fs);
  EXPECT_LT(fs[0].instr, fs[1].instr);
}

}  // namespace
