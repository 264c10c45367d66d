//===- analysis/Liveness.cpp - Backward liveness of locals ----------------===//

#include "analysis/Liveness.h"
#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>

namespace jtc {
namespace analysis {

namespace {

/// Applies one instruction's backward effect: live = (live \ defs) u uses.
void stepBackward(const Instruction &I, LocalSet &Live) {
  switch (I.Op) {
  case Opcode::Iload:
    Live.set(static_cast<uint32_t>(I.A));
    break;
  case Opcode::Istore:
    Live.clear(static_cast<uint32_t>(I.A));
    break;
  case Opcode::Iinc:
    // Reads and writes the local; the read keeps it live.
    Live.set(static_cast<uint32_t>(I.A));
    break;
  default:
    break; // Everything else only touches the operand stack / heap.
  }
}

class LivenessProblem {
public:
  using State = LocalSet;
  static constexpr bool Forward = false;

  explicit LivenessProblem(const MethodCfg &Cfg) : Cfg(Cfg) {}

  State boundary() const { return LocalSet(Cfg.method().NumLocals); }
  State initial() const { return LocalSet(Cfg.method().NumLocals); }

  void transfer(uint32_t Block, State &S) {
    const CfgBlock &B = Cfg.block(Block);
    const Method &Fn = Cfg.method();
    for (uint32_t Pc = B.End; Pc > B.Start; --Pc)
      stepBackward(Fn.Code[Pc - 1], S);
  }

  bool join(State &Into, const State &From, bool /*Widen*/) {
    return Into.unionWith(From);
  }

private:
  const MethodCfg &Cfg;
};

} // namespace

LivenessFacts LivenessFacts::compute(const MethodCfg &Cfg,
                                     std::pmr::memory_resource *Mem) {
  LivenessProblem P(Cfg);
  // For a backward problem the solver returns the live-out set of every
  // block; replay each block backward to recover per-pc live-in sets.
  std::vector<LocalSet> Out = solve(Cfg, P);

  const Method &Fn = Cfg.method();
  LivenessFacts Facts(static_cast<uint32_t>(Fn.Code.size()), Fn.NumLocals,
                      Mem);
  for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
    const CfgBlock &Blk = Cfg.block(B);
    LocalSet Live = Out[B];
    assert(Live.High.size() + 1 == Facts.WordsPerPc);
    for (uint32_t Pc = Blk.End; Pc > Blk.Start; --Pc) {
      stepBackward(Fn.Code[Pc - 1], Live);
      uint64_t *W = Facts.Words.data() + size_t{Pc - 1} * Facts.WordsPerPc;
      W[0] = Live.Low;
      std::copy(Live.High.begin(), Live.High.end(), W + 1);
    }
  }
  return Facts;
}

LocalSet LivenessFacts::liveIn(uint32_t Pc) const {
  LocalSet S(NumLocals);
  size_t First = size_t{Pc} * WordsPerPc;
  if (First >= Words.size())
    return S;
  S.Low = Words[First];
  std::copy(Words.begin() + First + 1, Words.begin() + First + WordsPerPc,
            S.High.begin());
  return S;
}

} // namespace analysis
} // namespace jtc
