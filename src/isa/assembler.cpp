#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/parse.hpp"

namespace epi::isa {

namespace {

struct Token {
  std::string text;
};

std::vector<std::string> tokenize(std::string_view line) {
  // Strip comment.
  if (const auto semi = line.find(';'); semi != std::string_view::npos) {
    line = line.substr(0, semi);
  }
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else if (c == '[' || c == ']') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
      out.push_back(std::string(1, c));
    } else {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

unsigned parse_reg(const std::string& t, unsigned line) {
  if (t.size() < 2 || t[0] != 'r') throw AssemblyError(line, "expected register, got '" + t + "'");
  unsigned v = 0;
  if (util::parse_number(std::string_view(t).substr(1), v) != std::errc{} ||
      v >= RegFile::kCount) {
    throw AssemblyError(line, "bad register '" + t + "'");
  }
  return v;
}

/// A signed number: an optional '-', then decimal or 0x-hex digits whose
/// magnitude fits 32 bits (so full 32-bit hex patterns, e.g. float bit
/// images, are accepted). False when `s` is anything else.
bool parse_signed(std::string_view s, std::int64_t& out) {
  const bool neg = s.starts_with('-');
  if (neg) s.remove_prefix(1);
  const bool hex = s.size() > 2 && s.starts_with("0x");
  std::uint32_t mag = 0;
  if (util::parse_number(s.substr(hex ? 2 : 0), mag, hex ? 16 : 10) != std::errc{}) {
    return false;
  }
  out = neg ? -std::int64_t{mag} : std::int64_t{mag};
  return true;
}

std::int32_t parse_imm(const std::string& t, unsigned line) {
  if (t.empty() || t[0] != '#') throw AssemblyError(line, "expected immediate, got '" + t + "'");
  std::int64_t v = 0;
  if (!parse_signed(std::string_view(t).substr(1), v)) {
    throw AssemblyError(line, "bad immediate '" + t + "'");
  }
  return static_cast<std::int32_t>(v);  // wraps hex bit patterns into the signed immediate
}

/// Parse the "[rn, #imm]" / "[rn], #imm" tail of a memory instruction.
void parse_mem_operand(const std::vector<std::string>& tok, std::size_t i, unsigned line,
                       Instruction& ins) {
  if (i >= tok.size() || tok[i] != "[") throw AssemblyError(line, "expected '['");
  ++i;
  if (i >= tok.size()) throw AssemblyError(line, "expected base register");
  ins.rn = static_cast<std::uint8_t>(parse_reg(tok[i], line));
  ++i;
  if (i < tok.size() && tok[i] == "]") {
    // Postmodify: "[rn], #imm" (or bare "[rn]" meaning offset 0).
    ++i;
    if (i < tok.size()) {
      ins.postmodify = true;
      ins.imm = parse_imm(tok[i], line);
      ++i;
    } else {
      ins.imm = 0;
    }
  } else if (i < tok.size()) {
    // Displacement: "[rn, #imm]".
    ins.imm = parse_imm(tok[i], line);
    ++i;
    if (i >= tok.size() || tok[i] != "]") throw AssemblyError(line, "expected ']'");
    ++i;
  } else {
    throw AssemblyError(line, "unterminated memory operand");
  }
  if (i != tok.size()) throw AssemblyError(line, "trailing tokens after memory operand");
}

const std::map<std::string, Opcode, std::less<>> kMnemonics = {
    {"fmadd", Opcode::Fmadd}, {"fmul", Opcode::Fmul}, {"fadd", Opcode::Fadd},
    {"fsub", Opcode::Fsub},   {"mov", Opcode::MovImm} /* resolved below */,
    {"add", Opcode::Add},     {"sub", Opcode::Sub},   {"ldr", Opcode::Ldr},
    {"ldrd", Opcode::Ldrd},   {"str", Opcode::Str},   {"strd", Opcode::Strd},
    {"b", Opcode::B},         {"bne", Opcode::Bne},   {"beq", Opcode::Beq},
    {"halt", Opcode::Halt},   {"coreid", Opcode::CoreId},
    {"lsl", Opcode::Lsl},     {"wait", Opcode::Wait}, {"bar", Opcode::Bar},
    {"testset", Opcode::Testset},
};

/// Parse a bare number operand of a `.dma` directive (parse_signed: the
/// strides may be negative). No '#' prefix -- directives are data, not
/// instructions.
std::int64_t parse_dma_num(const std::string& t, unsigned line) {
  std::int64_t v = 0;
  if (!parse_signed(t, v)) throw AssemblyError(line, "bad .dma operand '" + t + "'");
  return v;
}

DmaDecl parse_dma(const std::vector<std::string>& tok, unsigned line) {
  if (tok.size() != 10) {
    throw AssemblyError(line,
                        ".dma needs 9 operands: src dst elem inner_count "
                        "src_istride dst_istride outer_count src_ostride dst_ostride");
  }
  DmaDecl d;
  d.src = static_cast<std::uint32_t>(parse_dma_num(tok[1], line));
  d.dst = static_cast<std::uint32_t>(parse_dma_num(tok[2], line));
  d.elem = static_cast<std::uint32_t>(parse_dma_num(tok[3], line));
  d.inner_count = static_cast<std::uint32_t>(parse_dma_num(tok[4], line));
  d.src_inner_stride = static_cast<std::int32_t>(parse_dma_num(tok[5], line));
  d.dst_inner_stride = static_cast<std::int32_t>(parse_dma_num(tok[6], line));
  d.outer_count = static_cast<std::uint32_t>(parse_dma_num(tok[7], line));
  d.src_outer_stride = static_cast<std::int32_t>(parse_dma_num(tok[8], line));
  d.dst_outer_stride = static_cast<std::int32_t>(parse_dma_num(tok[9], line));
  d.line = line;
  return d;
}

}  // namespace

Program assemble(std::string_view text) {
  struct Pending {
    std::size_t instr_index;
    std::string label;
    unsigned line;
  };
  Program prog;
  std::map<std::string, std::int32_t, std::less<>> labels;
  std::vector<Pending> fixups;

  unsigned line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    auto tok = tokenize(line);
    if (tok.empty()) continue;

    // Labels (possibly several, possibly followed by an instruction).
    while (!tok.empty() && tok[0].back() == ':') {
      std::string label = tok[0].substr(0, tok[0].size() - 1);
      if (label.empty()) throw AssemblyError(line_no, "empty label");
      if (!labels.emplace(label, static_cast<std::int32_t>(prog.code.size())).second) {
        throw AssemblyError(line_no, "duplicate label '" + label + "'");
      }
      tok.erase(tok.begin());
    }
    if (tok.empty()) continue;

    if (tok[0] == ".dma") {
      prog.dma.push_back(parse_dma(tok, line_no));
      continue;
    }

    const auto it = kMnemonics.find(tok[0]);
    if (it == kMnemonics.end()) {
      throw AssemblyError(line_no, "unknown mnemonic '" + tok[0] + "'");
    }
    Instruction ins;
    ins.op = it->second;

    switch (ins.op) {
      case Opcode::Fmadd:
      case Opcode::Fmul:
      case Opcode::Fadd:
      case Opcode::Fsub:
        if (tok.size() != 4) throw AssemblyError(line_no, "expected 'op rd, rn, rm'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        ins.rn = static_cast<std::uint8_t>(parse_reg(tok[2], line_no));
        ins.rm = static_cast<std::uint8_t>(parse_reg(tok[3], line_no));
        break;
      case Opcode::MovImm: {  // mov rd, #imm | mov rd, rn
        if (tok.size() != 3) throw AssemblyError(line_no, "expected 'mov rd, src'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        if (tok[2][0] == '#') {
          ins.has_imm = true;
          ins.imm = parse_imm(tok[2], line_no);
        } else {
          ins.op = Opcode::MovReg;
          ins.rn = static_cast<std::uint8_t>(parse_reg(tok[2], line_no));
        }
        break;
      }
      case Opcode::Add:
      case Opcode::Sub:
        if (tok.size() != 4) throw AssemblyError(line_no, "expected 'op rd, rn, src'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        ins.rn = static_cast<std::uint8_t>(parse_reg(tok[2], line_no));
        if (tok[3][0] == '#') {
          ins.has_imm = true;
          ins.imm = parse_imm(tok[3], line_no);
        } else {
          ins.rm = static_cast<std::uint8_t>(parse_reg(tok[3], line_no));
        }
        break;
      case Opcode::Ldr:
      case Opcode::Ldrd:
      case Opcode::Str:
      case Opcode::Strd:
        if (tok.size() < 4) throw AssemblyError(line_no, "expected 'op rd, [rn...]'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        if ((ins.op == Opcode::Ldrd || ins.op == Opcode::Strd) && ins.rd % 2 != 0) {
          throw AssemblyError(line_no, "doubleword ops need an even register pair");
        }
        parse_mem_operand(tok, 2, line_no, ins);
        break;
      case Opcode::B:
      case Opcode::Bne:
      case Opcode::Beq:
        if (tok.size() != 2) throw AssemblyError(line_no, "expected branch target label");
        fixups.push_back({prog.code.size(), tok[1], line_no});
        break;
      case Opcode::Halt:
        if (tok.size() != 1) throw AssemblyError(line_no, "halt takes no operands");
        break;
      case Opcode::CoreId:
        if (tok.size() != 2) throw AssemblyError(line_no, "expected 'coreid rd'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        break;
      case Opcode::Lsl:
        if (tok.size() != 4) throw AssemblyError(line_no, "expected 'lsl rd, rn, #imm'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        ins.rn = static_cast<std::uint8_t>(parse_reg(tok[2], line_no));
        ins.has_imm = true;
        ins.imm = parse_imm(tok[3], line_no);
        if (ins.imm < 0 || ins.imm > 31) {
          throw AssemblyError(line_no, "lsl shift must be 0..31");
        }
        break;
      case Opcode::Wait:
        if (tok.size() != 3) throw AssemblyError(line_no, "expected 'wait rn, #imm'");
        ins.rn = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        ins.has_imm = true;
        ins.imm = parse_imm(tok[2], line_no);
        break;
      case Opcode::Bar:
        if (tok.size() != 1) throw AssemblyError(line_no, "bar takes no operands");
        break;
      case Opcode::Testset:
        if (tok.size() < 4) throw AssemblyError(line_no, "expected 'testset rd, [rn, #imm]'");
        ins.rd = static_cast<std::uint8_t>(parse_reg(tok[1], line_no));
        parse_mem_operand(tok, 2, line_no, ins);
        if (ins.postmodify) {
          throw AssemblyError(line_no, "testset does not support postmodify addressing");
        }
        break;
      case Opcode::MovReg:
        break;  // produced by the MovImm case above, never matched directly
    }
    prog.code.push_back(ins);
    prog.source.emplace_back(line);
    prog.lines.push_back(line_no);
  }

  for (const auto& f : fixups) {
    const auto it = labels.find(f.label);
    if (it == labels.end()) {
      throw AssemblyError(f.line, "undefined label '" + f.label + "'");
    }
    prog.code[f.instr_index].imm = it->second;
  }
  return prog;
}

}  // namespace epi::isa
