#include "lint/dataflow.hpp"

namespace epi::lint::dataflow {

using isa::Instruction;
using isa::Opcode;

ConstProp propagate(const isa::Program& prog, const Cfg& cfg,
                    std::optional<std::int64_t> core_id) {
  const std::size_t nb = cfg.blocks.size();
  ConstProp cp;
  cp.in.resize(nb);
  cp.out.resize(nb);
  if (nb == 0) return cp;
  std::vector<bool> visited(nb, false);
  visited[0] = true;  // entry: all unknown
  const auto transfer = [&](std::size_t bi) {
    State s = cp.in[bi];
    const BasicBlock& b = cfg.blocks[bi];
    for (std::size_t i = b.first; i < b.last; ++i) xfer_const(prog.code[i], s, core_id);
    return s;
  };
  std::vector<std::size_t> work{0};
  while (!work.empty()) {
    const std::size_t bi = work.back();
    work.pop_back();
    cp.out[bi] = transfer(bi);
    for (std::size_t s : cfg.blocks[bi].succ) {
      if (!visited[s]) {
        visited[s] = true;
        cp.in[s] = cp.out[bi];
        work.push_back(s);
      } else {
        const State m = merge_state(cp.in[s], cp.out[bi]);
        if (!(m == cp.in[s])) {
          cp.in[s] = m;
          work.push_back(s);
        }
      }
    }
  }
  return cp;
}

std::int64_t step_of(const Instruction& ins, unsigned r) {
  if ((isa::is_load(ins.op) || isa::is_store(ins.op)) && ins.postmodify &&
      ins.rn == r) {
    return ins.imm;
  }
  if ((ins.op == Opcode::Add || ins.op == Opcode::Sub) && ins.has_imm &&
      ins.rd == r && ins.rn == r) {
    return ins.op == Opcode::Add ? ins.imm : -std::int64_t{ins.imm};
  }
  return 0;
}

CountedLoop analyze_self_loop(const isa::Program& prog, const Cfg& cfg,
                              std::size_t bi, const ConstProp& cp) {
  CountedLoop loop;
  const BasicBlock& b = cfg.blocks[bi];
  const Instruction& tail = prog.code[b.last - 1];
  if (tail.op != Opcode::Bne) return loop;
  if (tail.imm < 0 || static_cast<std::size_t>(tail.imm) >= prog.size() ||
      cfg.block_of[static_cast<std::size_t>(tail.imm)] != bi) {
    return loop;  // not a self-loop
  }

  // Loop-entry state: merge of every reachable non-back-edge predecessor.
  bool have_pre = false;
  for (std::size_t p : b.pred) {
    if (p == bi || !cfg.reachable[p]) continue;
    loop.pre = have_pre ? merge_state(loop.pre, cp.out[p]) : cp.out[p];
    have_pre = true;
  }
  if (!have_pre) return loop;

  // The counter: the *last* Z-setting instruction, which the bne tests.
  std::size_t cnt_i = b.last;
  for (std::size_t i = b.first; i < b.last; ++i) {
    const Opcode op = prog.code[i].op;
    if (op == Opcode::Add || op == Opcode::Sub) cnt_i = i;
  }
  if (cnt_i == b.last) return loop;
  const Instruction& cnt = prog.code[cnt_i];
  if (cnt.op != Opcode::Sub || !cnt.has_imm || cnt.rd != cnt.rn || cnt.imm <= 0) {
    return loop;
  }
  const unsigned counter = cnt.rd;
  for (std::size_t i = b.first; i < b.last; ++i) {
    if (i == cnt_i) continue;
    bool redefined = false;
    for_each_def(prog.code[i], [&](unsigned r) { redefined |= r == counter; });
    if (redefined) return loop;  // counter is not a simple induction variable
  }
  if (!loop.pre[counter].known || loop.pre[counter].v <= 0) return loop;
  loop.counter_instr = cnt_i;
  if (loop.pre[counter].v % cnt.imm != 0) {
    loop.never_exits = true;
    return loop;
  }
  loop.trips = loop.pre[counter].v / cnt.imm;

  // Cursor registers: every in-loop definition is an increment by a
  // constant (postmodify or add/sub #imm on itself). The counter is not one.
  loop.cursor_valid.fill(true);
  loop.cursor_valid[counter] = false;
  for (std::size_t i = b.first; i < b.last; ++i) {
    const Instruction& ins = prog.code[i];
    for_each_def(ins, [&](unsigned r) {
      if (r >= kRegs) return;
      if (step_of(ins, r) != 0) {
        loop.delta[r] += step_of(ins, r);
      } else {
        loop.cursor_valid[r] = false;
      }
    });
  }
  loop.counted = true;
  return loop;
}

}  // namespace epi::lint::dataflow
