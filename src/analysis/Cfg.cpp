//===- analysis/Cfg.cpp - Per-method control-flow graph -------------------===//

#include "analysis/Cfg.h"

#include "bytecode/ControlFlow.h"

#include <algorithm>
#include <cassert>

namespace jtc {
namespace analysis {

MethodCfg::MethodCfg(const Module &M, uint32_t MethodId,
                     std::pmr::memory_resource *Mem)
    : Mod(&M), MethodIdx(MethodId), Blocks(Mem), Edges(Mem), BlockOfPc(Mem),
      Rpo(Mem), RpoIndex(Mem) {
  const Method &Fn = M.Methods[MethodId];
  uint32_t N = static_cast<uint32_t>(Fn.Code.size());
  assert(N > 0 && "cannot build a CFG for an empty method");

  // Leaders by the rule of bytecode/ControlFlow.h.
  std::vector<bool> Leader(N, false);
  forEachLeader(Fn, [&](uint32_t Pc) {
    assert(Pc < N && "branch target out of range; verify first");
    Leader[Pc] = true;
  });

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
    const Instruction &Last = Fn.Code[Blk.End - 1];
    // Dedup (a switch may list the same target many times) while keeping
    // first-occurrence order so the fallthrough/default stay predictable.
    SuccBegin[B] = static_cast<uint32_t>(Succs.size());
    auto AddEdge = [&](uint32_t T) {
      uint32_t S = BlockOfPc[T];
      assert(Blocks[S].Start == T && "edge into the middle of a block");
      if (std::find(Succs.begin() + SuccBegin[B], Succs.end(), S) ==
          Succs.end()) {
        Succs.push_back(S);
        ++NumPreds[S];
      }
    };
    forEachTarget(Fn, Last, AddEdge);
    if (fallsThrough(Last.Op) && Blk.End < N)
      AddEdge(Blk.End);
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
