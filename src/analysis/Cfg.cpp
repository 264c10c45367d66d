//===- analysis/Cfg.cpp - Per-method control-flow graph -------------------===//

#include "analysis/Cfg.h"

#include <algorithm>
#include <cassert>

namespace jtc {
namespace analysis {

namespace {

/// Appends every explicit control-flow target of the instruction at \p Pc
/// (branch targets, switch cases); fallthrough is handled by the caller.
void appendTargets(const Method &M, uint32_t Pc, std::vector<uint32_t> &Out) {
  const Instruction &I = M.Code[Pc];
  switch (opKind(I.Op)) {
  case OpKind::Branch:
  case OpKind::Jump:
    Out.push_back(static_cast<uint32_t>(I.A));
    break;
  case OpKind::Switch: {
    const SwitchTable &T = M.SwitchTables[static_cast<uint32_t>(I.A)];
    Out.push_back(T.DefaultTarget);
    Out.insert(Out.end(), T.Targets.begin(), T.Targets.end());
    break;
  }
  case OpKind::Normal:
  case OpKind::Call:
  case OpKind::Ret:
  case OpKind::End:
    break;
  }
}

/// True when control may continue at Pc+1 after executing \p I.
bool fallsThrough(const Instruction &I) {
  switch (opKind(I.Op)) {
  case OpKind::Normal:
  case OpKind::Branch:
  case OpKind::Call:
    return true;
  case OpKind::Jump:
  case OpKind::Switch:
  case OpKind::Ret:
  case OpKind::End:
    return false;
  }
  return false;
}

} // namespace

MethodCfg::MethodCfg(const Module &M, uint32_t MethodId,
                     std::pmr::memory_resource *Mem)
    : Mod(&M), MethodIdx(MethodId), Blocks(Mem), Edges(Mem), BlockOfPc(Mem),
      Rpo(Mem), RpoIndex(Mem) {
  const Method &Fn = M.Methods[MethodId];
  uint32_t N = static_cast<uint32_t>(Fn.Code.size());
  assert(N > 0 && "cannot build a CFG for an empty method");

  // Mark leaders: entry, every explicit target, and the instruction after
  // any block-ending opcode.
  std::vector<bool> Leader(N, false);
  Leader[0] = true;
  std::vector<uint32_t> Targets;
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    Targets.clear();
    appendTargets(Fn, Pc, Targets);
    for (uint32_t T : Targets) {
      assert(T < N && "branch target out of range; verify first");
      Leader[T] = true;
    }
    if (endsBlock(Fn.Code[Pc].Op) && Pc + 1 < N)
      Leader[Pc + 1] = true;
  }

  // Materialize blocks and the pc -> block map. Tables are sized before
  // they are filled: in an arena a regrown table strands its old copy.
  Blocks.reserve(std::count(Leader.begin(), Leader.end(), true));
  BlockOfPc.assign(N, 0);
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    if (Leader[Pc]) {
      if (!Blocks.empty())
        Blocks.back().End = Pc;
      Blocks.push_back(CfgBlock{Pc, N, {}, {}});
    }
    BlockOfPc[Pc] = static_cast<uint32_t>(Blocks.size() - 1);
  }

  // Edges. A block's last instruction decides its successors; blocks that
  // end merely because the next pc is a leader fall through. Successor
  // lists are gathered first, then laid out in Edges with the predecessor
  // lists after them.
  const auto NumBlocks = static_cast<uint32_t>(Blocks.size());
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> SuccBegin(NumBlocks + 1, 0);
  std::vector<uint32_t> NumPreds(NumBlocks, 0);
  for (uint32_t B = 0; B < NumBlocks; ++B) {
    const CfgBlock &Blk = Blocks[B];
    uint32_t LastPc = Blk.End - 1;
    Targets.clear();
    appendTargets(Fn, LastPc, Targets);
    if (fallsThrough(Fn.Code[LastPc]) && Blk.End < N)
      Targets.push_back(Blk.End);
    // Dedup (a switch may list the same target many times) while keeping
    // first-occurrence order so the fallthrough/default stay predictable.
    SuccBegin[B] = static_cast<uint32_t>(Succs.size());
    for (uint32_t T : Targets) {
      uint32_t S = BlockOfPc[T];
      assert(Blocks[S].Start == T && "edge into the middle of a block");
      if (std::find(Succs.begin() + SuccBegin[B], Succs.end(), S) ==
          Succs.end()) {
        Succs.push_back(S);
        ++NumPreds[S];
      }
    }
  }
  const auto NumEdges = static_cast<uint32_t>(Succs.size());
  SuccBegin[NumBlocks] = NumEdges;
  Edges.resize(2 * size_t{NumEdges});
  std::copy(Succs.begin(), Succs.end(), Edges.begin());
  // Predecessor lists follow, each in ascending block order.
  std::vector<uint32_t> PredBegin(NumBlocks + 1, NumEdges);
  for (uint32_t B = 0; B < NumBlocks; ++B)
    PredBegin[B + 1] = PredBegin[B] + NumPreds[B];
  std::vector<uint32_t> Cursor(PredBegin.begin(), PredBegin.end() - 1);
  for (uint32_t B = 0; B < NumBlocks; ++B)
    for (uint32_t I = SuccBegin[B]; I < SuccBegin[B + 1]; ++I)
      Edges[Cursor[Succs[I]]++] = B;
  const uint32_t *E = Edges.data();
  for (uint32_t B = 0; B < NumBlocks; ++B) {
    Blocks[B].Succs = {E + SuccBegin[B], E + SuccBegin[B + 1]};
    Blocks[B].Preds = {E + PredBegin[B], E + PredBegin[B + 1]};
  }

  // Reverse post-order via iterative DFS from the entry block.
  RpoIndex.assign(Blocks.size(), UINT32_MAX);
  std::vector<uint8_t> State(Blocks.size(), 0); // 0=unseen 1=open 2=done
  std::vector<std::pair<uint32_t, uint32_t>> Stack; // (block, next-succ)
  std::vector<uint32_t> PostOrder;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Blocks[B].Succs.size()) {
      uint32_t S = Blocks[B].Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
    } else {
      State[B] = 2;
      PostOrder.push_back(B);
      Stack.pop_back();
    }
  }
  Rpo.assign(PostOrder.rbegin(), PostOrder.rend());
  for (uint32_t I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;
}

} // namespace analysis
} // namespace jtc
