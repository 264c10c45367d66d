//===- backend/TraceIR.cpp - Lowering traces for backend execution --------===//

#include "backend/TraceIR.h"

#include "analysis/Analysis.h"
#include "bytecode/OpSemantics.h"
#include "interp/PreparedModule.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace jtc {
namespace backend {

static LowerResult bail(CompileFallback Why) {
  LowerResult R;
  R.Why = Why;
  return R;
}

LowerResult lowerTrace(const PreparedModule &PM, const Trace &T,
                       const analysis::ModuleAnalysis *Facts) {
  assert(!T.Blocks.empty() && "trace has no blocks");

  const Module &M = PM.module();
  const size_t N = T.Blocks.size();

  LowerResult R;
  TraceIR &IR = R.IR;
  IR.Id = T.Id;
  IR.EntryMethod = PM.block(T.Blocks.front()).MethodId;
  IR.Blocks = T.Blocks;

  // Per-block instruction prefix sums: the basis for interpreter-exact
  // instruction accounting at every exit. Jumps and fallthroughs drop out
  // of the op stream below but still count here, exactly as the stepper
  // counts them.
  IR.InstrPrefix.resize(N + 1, 0);
  for (size_t I = 0; I < N; ++I)
    IR.InstrPrefix[I + 1] = IR.InstrPrefix[I] + PM.blockSize(T.Blocks[I]);
  IR.InstrCount = IR.InstrPrefix.back();
  assert(IR.InstrCount == T.InstrCount &&
         "trace instruction count disagrees with block sizes");

  // Operand-stack growth tracking, per frame run (frame ops re-establish
  // the arena slack, so the counter restarts at each call/return).
  int32_t Depth = 0;
  int32_t MaxDepth = 0;

  // Lower block by block, straight off the recorded stream. Every
  // non-final block's recorded successor is verified against what its
  // terminator can actually produce; a mismatch is a corrupted trace
  // (possible only under fault injection), and falling back to the
  // interpreter tier reproduces the divergence behaviour by construction
  // -- compiling through it would run the wrong block's code after a
  // passing guard.
  for (size_t Bi = 0; Bi < N; ++Bi) {
    const BasicBlock &BB = PM.block(T.Blocks[Bi]);
    const Method &Meth = M.method(BB.MethodId);
    const bool FinalB = Bi + 1 == N;
    const BlockId Next = FinalB ? InvalidBlockId : T.Blocks[Bi + 1];

    // Body: everything before the terminator is straight-line (block
    // discovery cuts at the first block-ending opcode).
    assert(BB.StartPc < BB.EndPc && "empty basic block");
    for (uint32_t Pc = BB.StartPc; Pc + 1 < BB.EndPc; ++Pc) {
      const Instruction &I = Meth.Code[Pc];
      assert(opKind(I.Op) == OpKind::Normal && "terminator inside a block");
      IrOp Op;
      Op.K = IrOp::Kind::Instr;
      Op.I = I;
      Op.SrcBlockIndex = static_cast<uint32_t>(Bi);
      Op.SrcPc = Pc;
      assert(opPops(I.Op) >= 0 && opPushes(I.Op) >= 0 &&
             "variable-arity opcode classified Normal");
      Depth -= opPops(I.Op);
      Depth += opPushes(I.Op);
      MaxDepth = std::max(MaxDepth, Depth);
      IR.Ops.push_back(std::move(Op));
    }

    const uint32_t TermPc = BB.EndPc - 1;
    const Instruction &Term = Meth.Code[TermPc];
    IrOp Op;
    Op.I = Term;
    Op.SrcBlockIndex = static_cast<uint32_t>(Bi);
    Op.SrcPc = TermPc;

    switch (opKind(Term.Op)) {
    case OpKind::Normal: {
      // Fallthrough into the next leader: the terminator is an ordinary
      // instruction; the successor is static.
      Op.K = IrOp::Kind::Instr;
      Depth -= opPops(Term.Op);
      Depth += opPushes(Term.Op);
      MaxDepth = std::max(MaxDepth, Depth);
      IR.Ops.push_back(std::move(Op));
      BlockId Succ = BB.Fall;
      if (FinalB) {
        IR.Complete = TraceIR::CompleteKind::Static;
        IR.NextFall = Succ;
      } else if (Next != Succ) {
        return bail(CompileFallback::TraceShape);
      }
      break;
    }

    case OpKind::Jump: {
      // The jump drops out of the op stream (the block sequence encodes
      // it); it is still in the instruction counts via InstrPrefix.
      BlockId Succ = BB.Taken;
      if (FinalB) {
        IR.Complete = TraceIR::CompleteKind::Static;
        IR.NextFall = Succ;
      } else if (Next != Succ) {
        return bail(CompileFallback::TraceShape);
      }
      break;
    }

    case OpKind::Branch: {
      BlockId TakenB = BB.Taken;
      BlockId FallB = BB.Fall;
      Depth -= opPops(Term.Op); // asserts a direction: pops, pushes nothing
      if (FinalB) {
        IR.Complete = TraceIR::CompleteKind::Branch;
        IR.FinalTerm = Term;
        IR.NextTaken = TakenB;
        IR.NextFall = FallB;
        break;
      }
      if (TakenB == FallB)
        return bail(CompileFallback::TraceShape); // degenerate: both edges
                                                  // land on Next; a guard
                                                  // cannot discriminate
      Op.K = IrOp::Kind::Guard;
      uint32_t ExitPc;
      if (Next == TakenB) {
        Op.GuardTaken = true;
        Op.Resume = FallB;
        ExitPc = BB.EndPc;
      } else if (Next == FallB) {
        Op.GuardTaken = false;
        Op.Resume = TakenB;
        ExitPc = static_cast<uint32_t>(Term.A);
      } else {
        return bail(CompileFallback::TraceShape);
      }
      // Annotate the exit with validation-grade liveness. Unlike the
      // optimizer's inlined segments, every guard here executes in its
      // block's own real frame, so the method's facts always apply.
      if (Facts) {
        if (const analysis::MethodAnalysis *MA = Facts->method(BB.MethodId)) {
          Op.HasLiveAtExit = true;
          Op.LiveAtExit = MA->Liveness.liveIn(ExitPc);
        }
      }
      IR.Ops.push_back(std::move(Op));
      break;
    }

    case OpKind::Call: {
      Op.ReturnPc = TermPc + 1;
      Op.ReturnBlock = BB.Fall;
      if (Term.Op == Opcode::InvokeStatic) {
        Op.K = IrOp::Kind::CallStatic;
        Op.Callee = static_cast<uint32_t>(Term.A);
        BlockId Entry = BB.Taken;
        if (FinalB) {
          IR.Complete = TraceIR::CompleteKind::Static;
          IR.NextFall = Entry;
        } else if (Next != Entry) {
          return bail(CompileFallback::TraceShape);
        }
      } else {
        Op.K = IrOp::Kind::CallVirtual;
        if (FinalB) {
          Op.Callee = InvalidMethod; // any resolution completes
          IR.Complete = TraceIR::CompleteKind::Callee;
        } else {
          const BasicBlock &NB = PM.block(Next);
          if (Next != PM.methodEntryBlock(NB.MethodId))
            return bail(CompileFallback::TraceShape);
          Op.Callee = NB.MethodId;
        }
      }
      IR.Ops.push_back(std::move(Op));
      Depth = 0; // new frame run: the helper re-establishes the slack
      break;
    }

    case OpKind::Ret: {
      Op.K = IrOp::Kind::Ret;
      Op.HasValue = Term.Op == Opcode::Ireturn;
      if (FinalB) {
        Op.ExpectBlock = InvalidBlockId; // any return site completes
        IR.Complete = TraceIR::CompleteKind::At;
      } else {
        Op.ExpectBlock = Next;
      }
      IR.Ops.push_back(std::move(Op));
      Depth = 0; // caller frame run restarts
      break;
    }

    case OpKind::Switch: {
      // The selector picks a block through the switch's resolved table;
      // mid-trace, the recorded successor must be one it can pick.
      Op.K = IrOp::Kind::Switch;
      Op.SwitchIdx = static_cast<uint32_t>(
          PM.code()[BB.FirstSlot + (TermPc - BB.StartPc)].A);
      const SwitchCode &SC = PM.switchCode(Op.SwitchIdx);
      const BlockId *Targets = PM.switchTargets() + SC.FirstTarget;
      if (FinalB)
        IR.Complete = TraceIR::CompleteKind::At;
      else if (Next == SC.Default ||
               std::count(Targets, Targets + SC.NumTargets, Next))
        Op.ExpectBlock = Next;
      else
        return bail(CompileFallback::TraceShape);
      Depth -= opPops(Term.Op);
      IR.Ops.push_back(std::move(Op));
      break;
    }

    case OpKind::End:
      return bail(CompileFallback::HaltInTrace);
    }
  }

  IR.MaxPush = static_cast<uint32_t>(std::max<int32_t>(MaxDepth, 0));
  return R;
}

std::vector<analysis::TraceMemFact>
traceMemFacts(const PreparedModule &PM, const std::vector<BlockId> &Blocks) {
  const analysis::ModuleAnalysis &A = PM.facts();
  std::vector<analysis::TraceBlockSpan> Spans;
  Spans.reserve(Blocks.size());
  for (BlockId B : Blocks) {
    const BasicBlock &BB = PM.block(B);
    Spans.push_back({BB.MethodId, BB.StartPc, BB.EndPc});
  }
  return analysis::analyzeTraceMemory(
      PM.module(),
      [&A](uint32_t MethodId) -> const analysis::MethodValueFacts * {
        const analysis::MethodAnalysis *MA = A.method(MethodId);
        return MA ? &MA->Values : nullptr;
      },
      Spans);
}

void applyMemFacts(TraceIR &IR,
                   const std::vector<analysis::TraceMemFact> &Facts) {
  // Facts and ops are both ordered by (block index, pc); a fact at a
  // position whose op is not a heap access is ignored.
  auto F = Facts.begin();
  for (IrOp &Op : IR.Ops) {
    while (F != Facts.end() && std::pair(F->BlockIndex, F->Pc) <
                                   std::pair(Op.SrcBlockIndex, Op.SrcPc))
      ++F;
    if (F == Facts.end())
      return;
    if (F->BlockIndex == Op.SrcBlockIndex && F->Pc == Op.SrcPc &&
        heapChecks(Op.I.Op) != 0)
      Op.Elide = F->Elide;
  }
}

} // namespace backend
} // namespace jtc
