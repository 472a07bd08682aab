#include "analysis/dataflow.h"

#include <deque>
#include <map>

namespace lfi {
namespace {

bool Contains(const LocationSet& set, Location loc) { return set.count(loc) != 0; }

Location Reg(int r) { return Location{Location::Kind::kReg, r}; }
Location Slot(int32_t off) { return Location{Location::Kind::kStack, off}; }

// Applies the transfer function of `instr` to the copy set, and records any
// comparison of a copy against a literal. `next_is_*` describe the
// conditional jump(s) that consume the flags this instruction sets.
struct Transfer {
  const CfgNode* node;
  const PartialCfg* cfg;

  // Collects the conditional jumps immediately consuming this node's flags.
  // Flags in this ISA are consumed by the very next instruction(s) in control
  // flow; a chain of conditional jumps (je .a; jl .b) all read the same
  // flags, so we walk successive conditional jumps.
  void CollectFlagConsumers(std::vector<Op>* out) const {
    const CfgNode* cur = node;
    while (true) {
      if (cur->succs.empty()) {
        return;
      }
      // Fall-through successor is the one right after the instruction; for a
      // conditional jump node both successors lead on, but only the textual
      // fall-through can be another flag consumer.
      const CfgNode* next = cfg->node(cur->offset + kInstrSize);
      bool advanced = false;
      for (size_t succ : cur->succs) {
        const CfgNode* s = cfg->node(succ);
        if (s != nullptr && s->instr.IsConditionalJump()) {
          out->push_back(s->instr.op);
        }
      }
      if (next != nullptr && next->instr.IsConditionalJump()) {
        cur = next;
        advanced = true;
      }
      if (!advanced) {
        return;
      }
    }
  }
};

}  // namespace

bool IsCallerSaved(int reg) {
  // r0..r5 are caller-saved (r0 carries the return value); r6..r12 are
  // callee-saved; r13 (sp) and r14 (errno base) are preserved by convention.
  return reg >= 0 && reg <= 5;
}

DataflowResult AnalyzeReturnValueFlow(const PartialCfg& cfg) {
  DataflowResult result;
  if (cfg.empty() || cfg.node(cfg.entry()) == nullptr) {
    return result;
  }

  // IN sets per node offset.
  std::map<size_t, LocationSet> in;
  std::set<size_t> visited;
  in[cfg.entry()].insert(Reg(kRetReg));

  // A node waits in the worklist at most once: it reads its IN set when
  // popped, so a second copy would only redo the same transfer.
  std::deque<size_t> worklist;
  std::set<size_t> queued;
  worklist.push_back(cfg.entry());
  queued.insert(cfg.entry());

  auto record_compare = [&](const CfgNode& node, int64_t literal) {
    Transfer t{&node, &cfg};
    std::vector<Op> consumers;
    t.CollectFlagConsumers(&consumers);
    for (Op op : consumers) {
      switch (op) {
        case Op::kJe:
        case Op::kJne:
          result.chk_eq.insert(literal);
          break;
        case Op::kJl:
        case Op::kJle:
        case Op::kJg:
        case Op::kJge:
          result.chk_ineq.insert(literal);
          result.has_ineq_check = true;
          break;
        case Op::kJs:
        case Op::kJns:
          // Sign test: an inequality check against zero.
          result.chk_ineq.insert(0);
          result.has_ineq_check = true;
          break;
        default:
          break;
      }
    }
  };

  while (!worklist.empty()) {
    ++result.iterations;
    if (result.iterations > 100000) {
      break;  // safety valve; partial CFGs are <= a few hundred nodes
    }
    size_t off = worklist.front();
    worklist.pop_front();
    queued.erase(off);
    const CfgNode* node = cfg.node(off);
    if (node == nullptr) {
      continue;
    }
    LocationSet set = in[off];
    const Instruction& i = node->instr;

    switch (i.op) {
      case Op::kMovRR:
        if (Contains(set, Reg(i.rs))) {
          set.insert(Reg(i.rd));
        } else {
          set.erase(Reg(i.rd));
        }
        break;
      case Op::kMovRI:
      case Op::kPop:
        set.erase(Reg(i.rd));
        break;
      case Op::kLoad:
        if (i.rs == kSpReg && Contains(set, Slot(i.imm))) {
          set.insert(Reg(i.rd));
        } else {
          set.erase(Reg(i.rd));
        }
        break;
      case Op::kStore:
        if (i.rd == kSpReg) {
          if (Contains(set, Reg(i.rs))) {
            set.insert(Slot(i.imm));
          } else {
            set.erase(Slot(i.imm));
          }
        }
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kAddI:
        // Arithmetic destroys the value for error-code comparison purposes.
        set.erase(Reg(i.rd));
        break;
      case Op::kCmpRI:
        if (Contains(set, Reg(i.rd))) {
          record_compare(*node, i.imm);
        }
        break;
      case Op::kTest:
        if (i.rd == i.rs && Contains(set, Reg(i.rd))) {
          // test rX, rX followed by a conditional jump is a zero/sign check.
          Transfer t{node, &cfg};
          std::vector<Op> consumers;
          t.CollectFlagConsumers(&consumers);
          for (Op op : consumers) {
            if (op == Op::kJe || op == Op::kJne) {
              result.chk_eq.insert(0);
            } else if (op == Op::kJs || op == Op::kJns || op == Op::kJl || op == Op::kJle ||
                       op == Op::kJg || op == Op::kJge) {
              result.chk_ineq.insert(0);
              result.has_ineq_check = true;
            }
          }
        }
        break;
      case Op::kCmpRR:
        // Literal comparisons only (per the paper); register-register
        // compares do not contribute checks but also do not kill copies.
        break;
      case Op::kCall:
      case Op::kCallR: {
        // Calls clobber caller-saved registers; copies on the stack survive.
        LocationSet kept;
        for (const Location& loc : set) {
          if (loc.kind == Location::Kind::kStack || !IsCallerSaved(loc.id)) {
            kept.insert(loc);
          }
        }
        set = std::move(kept);
        break;
      }
      default:
        break;
    }

    visited.insert(off);
    for (size_t succ : node->succs) {
      LocationSet& succ_in = in[succ];
      size_t before = succ_in.size();
      succ_in.insert(set.begin(), set.end());
      if ((visited.count(succ) == 0 || succ_in.size() > before) && queued.insert(succ).second) {
        worklist.push_back(succ);
      }
    }
  }
  return result;
}

}  // namespace lfi
