//===- analysis/Lint.cpp - Advisory bytecode lints ------------------------===//

#include "analysis/Lint.h"

#include <sstream>

namespace jtc {
namespace analysis {

const char *lintKindName(LintFinding::Kind K) {
  switch (K) {
  case LintFinding::Kind::UnreachableBlock:
    return "unreachable-block";
  case LintFinding::Kind::DeadBranch:
    return "dead-branch";
  case LintFinding::Kind::DeadStore:
    return "dead-store";
  case LintFinding::Kind::UnusedLocal:
    return "unused-local";
  case LintFinding::Kind::StackNeutralLoop:
    return "stack-neutral-loop";
  }
  return "unknown";
}

namespace {

/// Iterative Tarjan SCC over the CFG; returns the component id per block.
/// Components are numbered in reverse topological order.
std::vector<uint32_t> sccOf(const MethodCfg &Cfg, uint32_t &NumSccs) {
  const uint32_t N = Cfg.numBlocks();
  std::vector<uint32_t> Index(N, UINT32_MAX), Low(N, 0), Comp(N, UINT32_MAX);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  std::vector<std::pair<uint32_t, uint32_t>> Work;
  uint32_t NextIndex = 0;
  NumSccs = 0;

  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != UINT32_MAX)
      continue;
    Work.emplace_back(Root, 0);
    while (!Work.empty()) {
      auto &[B, Next] = Work.back();
      if (Next == 0) {
        Index[B] = Low[B] = NextIndex++;
        Stack.push_back(B);
        OnStack[B] = true;
      }
      std::span<const uint32_t> Succs = Cfg.block(B).Succs;
      if (Next < Succs.size()) {
        uint32_t S = Succs[Next++];
        if (Index[S] == UINT32_MAX) {
          Work.emplace_back(S, 0);
        } else if (OnStack[S]) {
          Low[B] = std::min(Low[B], Index[S]);
        }
      } else {
        if (Low[B] == Index[B]) {
          uint32_t C = NumSccs++;
          uint32_t Popped;
          do {
            Popped = Stack.back();
            Stack.pop_back();
            OnStack[Popped] = false;
            Comp[Popped] = C;
          } while (Popped != B);
        }
        uint32_t Done = B;
        Work.pop_back();
        if (!Work.empty())
          Low[Work.back().first] =
              std::min(Low[Work.back().first], Low[Done]);
      }
    }
  }
  return Comp;
}

/// True when executing \p I could change anything a loop condition might
/// depend on (locals, heap, or control leaving through a call).
bool hasLoopEffect(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Istore:
  case Opcode::Iinc:
  case Opcode::PutField:
  case Opcode::Iastore:
  case Opcode::GetField: // Reads can vary if another iteration wrote; but
  case Opcode::Iaload:   // with no writes in the loop they are constant --
                         // still treated as effects to stay conservative,
                         // since the value feeds the condition.
  case Opcode::ArrayLength:
  case Opcode::New:
  case Opcode::NewArray:
  case Opcode::InvokeStatic:
  case Opcode::InvokeVirtual:
  case Opcode::Iprint:
  case Opcode::Halt:
  case Opcode::Return:
  case Opcode::Ireturn:
    return true;
  default:
    return false;
  }
}

} // namespace

std::vector<LintFinding> lintMethod(const MethodValueFacts &Values,
                                    const LivenessFacts &Liveness) {
  std::vector<LintFinding> Out;
  const MethodCfg &Cfg = Values.cfg();
  const Method &Fn = Cfg.method();
  const uint32_t MethodId = Cfg.methodId();

  auto finding = [&](LintFinding::Kind K, uint32_t Block, uint32_t Pc,
                     std::string Msg) {
    Out.push_back(LintFinding{K, MethodId, Block, Pc, std::move(Msg)});
  };

  // Unreachable blocks: structurally (no raw path) or via constant facts.
  for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
    if (Values.blockReachable(B))
      continue;
    std::ostringstream OS;
    OS << "block " << B << " (pc " << Cfg.block(B).Start << ".."
       << Cfg.block(B).End - 1 << ") is unreachable"
       << (Cfg.rpoIndex(B) == UINT32_MAX ? "" : " (constant condition)");
    finding(LintFinding::Kind::UnreachableBlock, B, Cfg.block(B).Start,
            OS.str());
  }

  // Dead branches and dead stores, per reachable instruction.
  for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
    Values.forEachInstruction(B, [&](uint32_t Pc, const FrameState &) {
      const Instruction &I = Fn.Code[Pc];
      BranchDecision D = Values.decisionAt(Pc);
      if (D != BranchDecision::Unknown) {
        std::ostringstream OS;
        OS << mnemonic(I.Op) << " at pc " << Pc << " is "
           << (D == BranchDecision::AlwaysTaken ? "always" : "never")
           << " taken";
        finding(LintFinding::Kind::DeadBranch, B, Pc, OS.str());
      }
      if (I.Op == Opcode::Istore || I.Op == Opcode::Iinc) {
        uint32_t L = static_cast<uint32_t>(I.A);
        if (!Liveness.isLiveIn(Pc + 1, L)) {
          std::ostringstream OS;
          OS << mnemonic(I.Op) << " to local " << L << " at pc " << Pc
             << " is dead (never read afterwards)";
          finding(LintFinding::Kind::DeadStore, B, Pc, OS.str());
        }
      }
    });
  }

  // Unused locals: non-argument locals never read anywhere.
  {
    std::vector<bool> Read(Fn.NumLocals, false), Written(Fn.NumLocals, false);
    for (const Instruction &I : Fn.Code) {
      if (I.Op == Opcode::Iload || I.Op == Opcode::Iinc)
        Read[static_cast<uint32_t>(I.A)] = true;
      if (I.Op == Opcode::Istore || I.Op == Opcode::Iinc)
        Written[static_cast<uint32_t>(I.A)] = true;
    }
    for (uint32_t L = Fn.NumArgs; L < Fn.NumLocals; ++L) {
      if (Read[L])
        continue;
      std::ostringstream OS;
      if (Written[L])
        OS << "local " << L << " is written but never read";
      else
        OS << "local " << L << " is never referenced";
      finding(LintFinding::Kind::UnusedLocal, 0, 0, OS.str());
    }
  }

  // Stack-neutral loops: a non-trivial SCC none of whose instructions can
  // change locals, the heap, or observable state cannot make progress --
  // its exit condition evaluates identically every iteration.
  {
    uint32_t NumSccs = 0;
    std::vector<uint32_t> Comp = sccOf(Cfg, NumSccs);
    std::vector<uint32_t> SccSize(NumSccs, 0);
    for (uint32_t B = 0; B < Cfg.numBlocks(); ++B)
      if (Comp[B] != UINT32_MAX)
        ++SccSize[Comp[B]];
    // Single-block components only loop if they have a self edge.
    std::vector<bool> SelfLoop(Cfg.numBlocks(), false);
    for (uint32_t B = 0; B < Cfg.numBlocks(); ++B)
      for (uint32_t S : Cfg.block(B).Succs)
        if (S == B)
          SelfLoop[B] = true;

    std::vector<bool> Effectful(NumSccs, false);
    std::vector<uint32_t> Header(NumSccs, UINT32_MAX);
    for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
      uint32_t C = Comp[B];
      if (C == UINT32_MAX)
        continue;
      if (Header[C] == UINT32_MAX ||
          Cfg.block(B).Start < Cfg.block(Header[C]).Start)
        Header[C] = B;
      const CfgBlock &Blk = Cfg.block(B);
      for (uint32_t Pc = Blk.Start; Pc < Blk.End; ++Pc)
        if (hasLoopEffect(Fn.Code[Pc]))
          Effectful[C] = true;
    }
    for (uint32_t C = 0; C < NumSccs; ++C) {
      if (Effectful[C])
        continue;
      uint32_t H = Header[C];
      bool IsLoop = SccSize[C] > 1 || (SccSize[C] == 1 && SelfLoop[H]);
      if (!IsLoop || !Values.blockReachable(H))
        continue;
      std::ostringstream OS;
      OS << "loop headed at block " << H << " (pc " << Cfg.block(H).Start
         << ") has no effects; its exit condition cannot change";
      finding(LintFinding::Kind::StackNeutralLoop, H, Cfg.block(H).Start,
              OS.str());
    }
  }

  return Out;
}

} // namespace analysis
} // namespace jtc
