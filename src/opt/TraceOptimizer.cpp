//===- opt/TraceOptimizer.cpp ---------------------------------------------===//

#include "opt/TraceOptimizer.h"

#include "analysis/Analysis.h"
#include "bytecode/OpSemantics.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

using namespace jtc;

size_t LinearSegment::numInstructions() const {
  size_t N = 0;
  for (const LinearOp &Op : Ops)
    N += Op.K == LinearOp::Kind::Instr;
  return N;
}

//===----------------------------------------------------------------------===//
// Linearization
//===----------------------------------------------------------------------===//

namespace {

/// True when \p V can be re-emitted as an Iconst immediate.
bool fitsImm(int64_t V) {
  return V >= std::numeric_limits<int32_t>::min() &&
         V <= std::numeric_limits<int32_t>::max();
}

} // namespace

std::vector<LinearSegment>
jtc::linearizeTrace(const PreparedModule &PM, const Trace &T,
                    bool InlineStaticCalls,
                    const analysis::ModuleAnalysis *Facts) {
  std::vector<LinearSegment> Segments;
  const Module &M = PM.module();
  constexpr unsigned MaxInlineDepth = 8;
  constexpr uint32_t MaxFlatLocals = 512;

  LinearSegment Cur;
  bool Open = false;
  // The inline frame stack: local-index base per flattened frame. The
  // caller (root) frame has base 0; inlined callees rename their locals
  // above the frames below them.
  struct FrameCtx {
    uint32_t MethodId = 0;
    uint32_t LocalBase = 0;
  };
  std::vector<FrameCtx> Inline;

  auto Begin = [&](uint32_t MethodId, uint32_t StartPc) {
    Cur = LinearSegment();
    Cur.MethodId = MethodId;
    Cur.NumLocals = M.Methods[MethodId].NumLocals;
    Cur.ScratchBase = Cur.NumLocals;
    Inline.assign(1, {MethodId, 0});
    Open = true;
    // Seed the optimizer with locals proved constant at the entry pc.
    if (const analysis::MethodAnalysis *MA =
            Facts ? Facts->method(MethodId) : nullptr) {
      analysis::FrameState S = MA->Values.stateBefore(StartPc);
      if (S.Reachable)
        for (uint32_t L = 0; L < S.Locals.size(); ++L)
          if (S.Locals[L].isConst() && fitsImm(S.Locals[L].Lo))
            Cur.EntryConsts.emplace_back(L, S.Locals[L].Lo);
    }
  };
  auto End = [&] {
    if (Open && !Cur.Ops.empty())
      Segments.push_back(std::move(Cur));
    Open = false;
    Inline.clear();
  };

  for (size_t Bi = 0; Bi < T.Blocks.size(); ++Bi) {
    const BasicBlock &BB = PM.block(T.Blocks[Bi]);
    const Method &Mth = M.Methods[BB.MethodId];
    // Stamps the source position onto an op before appending it.
    auto Push = [&](LinearOp Op, uint32_t Pc) {
      Op.SrcBlockIndex = static_cast<uint32_t>(Bi);
      Op.SrcPc = Pc;
      Cur.Ops.push_back(std::move(Op));
    };
    // A block in a different method than the current inline frame means
    // the previous segment ended (call break, return past the root, or
    // trace start).
    if (!Open || Inline.back().MethodId != BB.MethodId) {
      End();
      Begin(BB.MethodId, BB.StartPc);
    }
    uint32_t Base = Inline.back().LocalBase;

    for (uint32_t Pc = BB.StartPc; Pc < BB.EndPc; ++Pc) {
      const Instruction &I = Mth.Code[Pc];
      bool Last = Pc + 1 == BB.EndPc;
      switch (opKind(I.Op)) {
      case OpKind::Normal: {
        Instruction Remapped = I;
        if (Base > 0 && (I.Op == Opcode::Iload || I.Op == Opcode::Istore ||
                         I.Op == Opcode::Iinc))
          Remapped.A += static_cast<int32_t>(Base);
        Push(LinearOp::instr(Remapped), Pc);
        break;
      }
      case OpKind::Jump:
        // The trace sequence already encodes the transfer.
        assert(Last && "goto mid-block");
        break;
      case OpKind::Branch: {
        assert(Last && "branch mid-block");
        if (Bi + 1 == T.Blocks.size()) {
          // The trace's final terminator has no recorded direction.
          End();
          break;
        }
        const BasicBlock &NextBB = PM.block(T.Blocks[Bi + 1]);
        bool Taken = NextBB.MethodId == BB.MethodId &&
                     NextBB.StartPc == static_cast<uint32_t>(I.A);
        LinearOp G = LinearOp::guard(I.Op, Taken);
        // The side exit resumes at the direction the trace did not take.
        G.ExitPc = Taken ? Pc + 1 : static_cast<uint32_t>(I.A);
        // Liveness at the exit is only meaningful for root-frame guards:
        // inside an inlined frame the caller's locals escape through the
        // (unmodeled) frame reconstruction, so stay conservative there.
        if (Facts && Inline.size() == 1) {
          if (const analysis::MethodAnalysis *MA = Facts->method(BB.MethodId)) {
            G.HasLiveAtExit = true;
            G.LiveAtExit = MA->Liveness.liveIn(G.ExitPc);
          }
        }
        Push(std::move(G), Pc);
        break;
      }
      case OpKind::Switch:
        assert(Last && "switch mid-block");
        if (Bi + 1 == T.Blocks.size()) {
          End();
          break;
        }
        // The selected case is not tracked through the guard, only that
        // the selector must reproduce the recorded direction; switch
        // guards are therefore never eliminated.
        Push(LinearOp::guard(I.Op, /*Taken=*/true), Pc);
        break;
      case OpKind::Call: {
        assert(Last && "call mid-block");
        uint32_t Callee =
            I.Op == Opcode::InvokeStatic ? static_cast<uint32_t>(I.A)
                                         : InvalidMethod;
        bool CanInline =
            InlineStaticCalls && Open && Callee != InvalidMethod &&
            Bi + 1 < T.Blocks.size() &&
            T.Blocks[Bi + 1] == PM.methodEntryBlock(Callee) &&
            Inline.size() < MaxInlineDepth;
        if (CanInline) {
          const Method &CM = M.Methods[Callee];
          uint32_t NewBase = Cur.NumLocals;
          if (NewBase + CM.NumLocals > MaxFlatLocals)
            CanInline = false;
          if (CanInline) {
            // Argument passing becomes explicit stores (deepest argument
            // lands in the lowest renamed local), and non-argument
            // locals are zeroed as pushFrame would.
            for (uint32_t K = CM.NumArgs; K-- > 0;)
              Push(LinearOp::instr(Instruction(
                       Opcode::Istore, static_cast<int32_t>(NewBase + K))),
                   Pc);
            for (uint32_t K = CM.NumArgs; K < CM.NumLocals; ++K) {
              Push(LinearOp::instr(Instruction(Opcode::Iconst, 0)), Pc);
              Push(LinearOp::instr(Instruction(
                       Opcode::Istore, static_cast<int32_t>(NewBase + K))),
                   Pc);
            }
            Cur.NumLocals = NewBase + CM.NumLocals;
            Inline.push_back({Callee, NewBase});
            break;
          }
        }
        // Not inlinable: the call stays outside the segments.
        End();
        break;
      }
      case OpKind::Ret:
        assert(Last && "return mid-block");
        if (Open && Inline.size() > 1) {
          // Returning from an inlined callee: the return value (if any)
          // is already on the stack; just drop the frame.
          Inline.pop_back();
          break;
        }
        // Returning past the segment's root frame.
        End();
        break;
      case OpKind::End:
        End();
        break;
      }
      (void)Last;
    }
  }
  End();
  return Segments;
}

//===----------------------------------------------------------------------===//
// Folding helpers
//===----------------------------------------------------------------------===//

namespace {

/// Folds A op B with the opcode table's semantics. Returns false when
/// the operation cannot be folded safely (division that would trap) or
/// the result cannot be re-emitted as an immediate.
bool foldBinaryImm(Opcode Op, int64_t A, int64_t B, int64_t &Out) {
  return evalBinary(Op, A, B, Out) && fitsImm(Out);
}

//===----------------------------------------------------------------------===//
// The stack-caching optimizer
//===----------------------------------------------------------------------===//

/// Abstract operand-stack entry. Materialized entries live on the real
/// stack; deferred entries (always a contiguous suffix on top) exist only
/// in the optimizer's head and are emitted on demand.
struct Entry {
  enum class Kind : uint8_t { Materialized, Const, Load } K;
  int64_t C = 0;      ///< Kind::Const: the value.
  uint32_t Local = 0; ///< Kind::Load: the local index.
};

/// What the optimizer knows about one local's current value.
struct LocalVal {
  enum class Kind : uint8_t { Unknown, Const, Copy } K = Kind::Unknown;
  int64_t C = 0;    ///< Kind::Const.
  uint32_t Src = 0; ///< Kind::Copy: the (non-dirty) source local.
};

/// Identity of one heap cell the optimizer can reason about: the local
/// currently holding the base reference plus a constant index. Valid only
/// while the base local is not redefined (redefinition drops the facts).
struct CellKey {
  enum class Group : uint8_t { Field, Elem, Len };
  Group G = Group::Field;
  uint32_t Base = 0;
  int32_t Index = 0;
  bool operator==(const CellKey &O) const = default;
};

/// What the optimizer knows about one cell's current content.
struct CellVal {
  CellKey Key;
  Entry Val; ///< Kind::Const or Kind::Load only.
};

/// A heap store held back (not yet emitted). It may be overwritten (dead
/// store), sunk past side exits that cannot reach the allocation, or
/// flushed before the next emitted effect.
struct PendingHeapStore {
  CellKey Key;
  Entry Val;     ///< Kind::Const or Kind::Load only.
  Instruction I; ///< The PutField/Iastore to re-emit.
  /// Provably cannot trap (fresh allocation, index in bounds). Required
  /// for any elimination or reordering that skips the store's checks.
  bool NoTrap = false;
  bool Sunk = false; ///< Already counted as sunk past an exit.
};

/// Tracks a local holding a freshly allocated, not-yet-escaped object:
/// such a reference aliases nothing else in the segment.
struct FreshAlloc {
  bool Fresh = false;
  bool Escaped = false;
  bool IsArray = false;
  int32_t ClassId = -1;
  int64_t ConstLen = -1;
};

class SegmentOptimizer {
public:
  SegmentOptimizer(const LinearSegment &In, OptStats &Stats,
                   const OptConfig &Cfg, const Module *Mod)
      : In(In), Stats(Stats), Cfg(Cfg), Mod(Mod) {
    Out.MethodId = In.MethodId;
    Out.NumLocals = In.NumLocals;
    Out.ScratchBase = In.ScratchBase;
    Out.EntryConsts = In.EntryConsts;
    Vals.assign(In.NumLocals, LocalVal());
    Dirty.assign(In.NumLocals, false);
    Fresh.assign(In.NumLocals, FreshAlloc());
    // Statically proved entry constants: known but clean (the real local
    // already holds the value, so nothing is owed at exits).
    for (const auto &[L, C] : In.EntryConsts)
      Vals[L] = {LocalVal::Kind::Const, C, 0};
    // Local access positions, for the liveness queries that decide
    // whether a displaced copy must be pinned or is simply dead.
    Reads.assign(In.NumLocals, {});
    Writes.assign(In.NumLocals, {});
    for (size_t I = 0; I < In.Ops.size(); ++I) {
      const LinearOp &Op = In.Ops[I];
      if (Op.K != LinearOp::Kind::Instr) {
        Guards.push_back(I);
        continue;
      }
      auto X = static_cast<uint32_t>(Op.I.A);
      switch (Op.I.Op) {
      case Opcode::Iload:
        Reads[X].push_back(I);
        break;
      case Opcode::Istore:
        Writes[X].push_back(I);
        break;
      case Opcode::Iinc:
        Reads[X].push_back(I);
        Writes[X].push_back(I);
        break;
      default:
        break;
      }
    }
  }

  LinearSegment run();

private:
  void emit(Instruction I) { Out.Ops.push_back(LinearOp::instr(I)); }

  /// Emits the pushes for every deferred entry, bottom-up, turning them
  /// into materialized entries.
  void materializeAll() {
    for (Entry &E : AbstractStack) {
      switch (E.K) {
      case Entry::Kind::Materialized:
        break;
      case Entry::Kind::Const:
        emit(Instruction(Opcode::Iconst, static_cast<int32_t>(E.C)));
        break;
      case Entry::Kind::Load:
        assert(!Dirty[E.Local] && "deferred load of a dirty local");
        emit(Instruction(Opcode::Iload, static_cast<int32_t>(E.Local)));
        markExposed(E.Local); // a persistent stack copy of the reference
        break;
      }
      E.K = Entry::Kind::Materialized;
    }
  }

  /// Materializes every deferred load of local \p X (and, to preserve
  /// stack order, everything beneath the highest such load).
  void materializeLoadsOf(uint32_t X) {
    size_t Highest = AbstractStack.size();
    for (size_t I = AbstractStack.size(); I-- > 0;) {
      if (AbstractStack[I].K == Entry::Kind::Load &&
          AbstractStack[I].Local == X) {
        Highest = I;
        break;
      }
    }
    if (Highest == AbstractStack.size())
      return;
    for (size_t I = 0; I <= Highest; ++I) {
      Entry &E = AbstractStack[I];
      switch (E.K) {
      case Entry::Kind::Materialized:
        break;
      case Entry::Kind::Const:
        emit(Instruction(Opcode::Iconst, static_cast<int32_t>(E.C)));
        break;
      case Entry::Kind::Load:
        emit(Instruction(Opcode::Iload, static_cast<int32_t>(E.Local)));
        markExposed(E.Local);
        break;
      }
      E.K = Entry::Kind::Materialized;
    }
  }

  /// Emits the deferred store of one local.
  void flushDirtyLocal(uint32_t X) {
    if (!Dirty[X])
      return;
    switch (Vals[X].K) {
    case LocalVal::Kind::Const:
      emit(Instruction(Opcode::Iconst, static_cast<int32_t>(Vals[X].C)));
      break;
    case LocalVal::Kind::Copy:
      emit(Instruction(Opcode::Iload, static_cast<int32_t>(Vals[X].Src)));
      markExposed(Vals[X].Src); // the copy lands in another local
      break;
    case LocalVal::Kind::Unknown:
      assert(false && "dirty local with unknown value");
      break;
    }
    emit(Instruction(Opcode::Istore, static_cast<int32_t>(X)));
    Dirty[X] = false;
  }

  /// Emits deferred stores so the real locals match the abstract state
  /// (required before any potential exit). Scratch locals (inlined-callee
  /// frames) are dead outside the segment and stay deferred.
  void flushDirtyLocals() {
    for (uint32_t X = 0; X < Dirty.size(); ++X) {
      if (X >= In.ScratchBase)
        continue;
      if (Dirty[X] && Cfg.Mutate == UnsoundPass::KillLiveOnExit && !Mutated) {
        // Deliberate miscompile: the deferred store is simply discarded.
        Mutated = true;
        Dirty[X] = false;
        continue;
      }
      flushDirtyLocal(X);
    }
  }

  /// Guard-point flush: like flushDirtyLocals, but when the guard knows
  /// which locals are live at its exit pc, locals that are dead there may
  /// keep their deferred (stale) value -- no path from the exit reads
  /// them before writing them.
  void flushDirtyLocalsAtGuard(const LinearOp &G) {
    for (uint32_t X = 0; X < Dirty.size(); ++X) {
      if (X >= In.ScratchBase || !Dirty[X])
        continue;
      if (Cfg.LivenessAtExits && G.HasLiveAtExit && !G.LiveAtExit.test(X)) {
        ++Stats.GuardExitLocalsSkipped;
        continue;
      }
      if (Cfg.Mutate == UnsoundPass::ReorderStorePastExit && !Mutated) {
        // Deliberate miscompile: the store slides past this side exit
        // (it still lands at a later exit point).
        Mutated = true;
        continue;
      }
      if (Cfg.Mutate == UnsoundPass::KillLiveOnExit && !Mutated) {
        Mutated = true;
        Dirty[X] = false;
        continue;
      }
      flushDirtyLocal(X);
      ++Stats.GuardExitLocalsFlushed;
    }
  }

  /// True when local \p X's current value can still be observed after
  /// operation index \p I: it is read before its next write, a side exit
  /// between here and that write can observe it, or it survives to the
  /// segment end as a non-scratch local.
  bool liveAfter(uint32_t X, size_t I) const {
    auto NextAbove = [I](const std::vector<size_t> &V) {
      auto It = std::upper_bound(V.begin(), V.end(), I);
      return It == V.end() ? ~size_t{0} : *It;
    };
    size_t NextRead = NextAbove(Reads[X]);
    size_t NextWrite = NextAbove(Writes[X]);
    if (NextRead < NextWrite)
      return true;
    // Even when the trace path overwrites X before reading it, a guard
    // in between is an exit whose off-trace continuation may read X --
    // unless liveness facts prove it dead at that exit.
    if (X < In.ScratchBase) {
      for (auto It = std::upper_bound(Guards.begin(), Guards.end(), I);
           It != Guards.end() && *It < NextWrite; ++It) {
        const LinearOp &G = In.Ops[*It];
        if (!(Cfg.LivenessAtExits && G.HasLiveAtExit && !G.LiveAtExit.test(X)))
          return true;
      }
    }
    return NextWrite == ~size_t{0} && X < In.ScratchBase;
  }

  /// Before local \p Y is modified: pin down every deferred store whose
  /// value is a copy of \p Y (unless that store is dead anyway), and
  /// drop copy knowledge derived from it.
  void invalidateCopiesOf(uint32_t Y) {
    for (uint32_t X = 0; X < Vals.size(); ++X) {
      if (Vals[X].K != LocalVal::Kind::Copy || Vals[X].Src != Y)
        continue;
      if (Dirty[X]) {
        if (liveAfter(X, CurIndex))
          flushDirtyLocal(X);
        else
          ++Stats.DeadStores;
        Dirty[X] = false;
      }
      Vals[X] = LocalVal();
    }
  }

  void push(Entry E) { AbstractStack.push_back(E); }

  /// Pops the abstract top. An empty abstract stack means the operand
  /// came in from before the segment started; incoming values are on the
  /// real stack, i.e. materialized.
  Entry pop() {
    if (AbstractStack.empty())
      return {Entry::Kind::Materialized, 0, 0};
    Entry E = AbstractStack.back();
    AbstractStack.pop_back();
    return E;
  }

  /// The constant value of \p E, if statically known.
  std::optional<int64_t> constOf(const Entry &E) const {
    if (E.K == Entry::Kind::Const)
      return E.C;
    if (E.K == Entry::Kind::Load &&
        Vals[E.Local].K == LocalVal::Kind::Const)
      return Vals[E.Local].C;
    return std::nullopt;
  }

  //===--------------------------------------------------------------------===//
  // Heap memory: redundant-load elimination, dead-store elimination and
  // store sinking over field/element cells named by (base local, index).
  //===--------------------------------------------------------------------===//

  /// The entry \p DepthFromTop below the abstract top (1 = top). Depths
  /// below the abstract stack are incoming operands, i.e. materialized.
  Entry peek(int DepthFromTop) const {
    if (static_cast<size_t>(DepthFromTop) > AbstractStack.size())
      return {Entry::Kind::Materialized, 0, 0};
    return AbstractStack[AbstractStack.size() -
                         static_cast<size_t>(DepthFromTop)];
  }

  /// A reference held in local \p L gained a second name (a stack copy, a
  /// local copy, or a heap cell): stop treating it as unaliased.
  void markExposed(uint32_t L) {
    if (L < Fresh.size())
      Fresh[L].Escaped = true;
  }

  /// True when cells \p A and \p B can never name the same storage:
  /// different groups (a length is not a field), same base with different
  /// indices, or one base holding a freshly allocated reference that has
  /// no other name. Freshness is judged at the moment both names exist,
  /// which is exactly when the question is asked: a later escape cannot
  /// retroactively alias values captured now.
  bool distinctCells(const CellKey &A, const CellKey &B) const {
    if (A.G != B.G)
      return true;
    if (A.Base == B.Base)
      return A.Index != B.Index;
    auto Unaliased = [&](uint32_t L) {
      return L < Fresh.size() && Fresh[L].Fresh && !Fresh[L].Escaped;
    };
    return Unaliased(A.Base) || Unaliased(B.Base);
  }

  const Entry *lookupCell(const CellKey &K) const {
    for (const CellVal &C : Cells)
      if (C.Key == K)
        return &C.Val;
    return nullptr;
  }

  void recordCell(const CellKey &K, Entry V) {
    for (CellVal &C : Cells) {
      if (C.Key == K) {
        C.Val = V;
        return;
      }
    }
    if (Cells.size() < 64) // bound the per-segment working set
      Cells.push_back({K, V});
  }

  /// A store to \p K kills knowledge of every cell it may alias.
  void dropCellsForStore(const CellKey &K) {
    std::erase_if(Cells,
                  [&](const CellVal &C) { return !distinctCells(K, C.Key); });
  }

  /// A store through an unidentified base kills every same-group cell
  /// except those on provably unaliased fresh allocations.
  void dropCellsUnknownStore(CellKey::Group G) {
    std::erase_if(Cells, [&](const CellVal &C) {
      return C.Key.G == G &&
             !(C.Key.Base < Fresh.size() && Fresh[C.Key.Base].Fresh &&
               !Fresh[C.Key.Base].Escaped);
    });
  }

  /// Local \p X is redefined: cells based on it name a different object
  /// now, and cells whose remembered value was "whatever X holds" are
  /// stale.
  void dropCellsOfLocal(uint32_t X) {
    std::erase_if(Cells, [&](const CellVal &C) {
      return C.Key.Base == X ||
             (C.Val.K == Entry::Kind::Load && C.Val.Local == X);
    });
  }

  bool stackHoldsLoadOf(uint32_t X) const {
    for (const Entry &E : AbstractStack)
      if (E.K == Entry::Kind::Load && E.Local == X)
        return true;
    return false;
  }

  /// Re-emits one held-back heap store. Stack-neutral, so it is safe at
  /// any emission point; base and value locals are non-dirty by the
  /// pending invariant (redefining either flushes first).
  void flushPendingStore(const PendingHeapStore &P) {
    emit(Instruction(Opcode::Iload, static_cast<int32_t>(P.Key.Base)));
    if (P.Key.G == CellKey::Group::Elem)
      emit(Instruction(Opcode::Iconst, P.Key.Index));
    if (P.Val.K == Entry::Kind::Const)
      emit(Instruction(Opcode::Iconst, static_cast<int32_t>(P.Val.C)));
    else
      emit(Instruction(Opcode::Iload, static_cast<int32_t>(P.Val.Local)));
    emit(P.I);
  }

  /// Pending stores never cross an emitted effect (print, allocation,
  /// kept heap access): they land, in program order, just before it.
  void flushPendingAll() {
    for (const PendingHeapStore &P : Pending)
      flushPendingStore(P);
    Pending.clear();
  }

  /// Local \p X is about to be redefined: pending stores based on it or
  /// valued from it must land first -- except a store into a fresh
  /// allocation whose last name dies here, which can never be observed.
  void pendingRedefine(uint32_t X) {
    enum class Act : uint8_t { Keep, Flush, Drop };
    std::vector<Act> Plan(Pending.size(), Act::Keep);
    for (size_t P = 0; P < Pending.size(); ++P) {
      PendingHeapStore &PS = Pending[P];
      bool Affected = PS.Key.Base == X ||
                      (PS.Val.K == Entry::Kind::Load && PS.Val.Local == X);
      if (!Affected)
        continue;
      if (PS.Key.Base == X && Cfg.ElimDeadStores && PS.NoTrap &&
          X < Fresh.size() && Fresh[X].Fresh && !Fresh[X].Escaped &&
          !stackHoldsLoadOf(X)) {
        ++Stats.MemDeadStores;
        Plan[P] = Act::Drop;
      } else {
        Plan[P] = Act::Flush;
      }
    }
    // Trap order: nothing flushes past a retained possibly-trapping
    // entry (its later flush would move the trap across this write).
    bool FlushAfter = false;
    for (size_t P = Pending.size(); P-- > 0;) {
      if (Plan[P] == Act::Flush)
        FlushAfter = true;
      else if (Plan[P] == Act::Keep && FlushAfter && !Pending[P].NoTrap)
        Plan[P] = Act::Flush;
    }
    std::vector<PendingHeapStore> Remaining;
    for (size_t P = 0; P < Pending.size(); ++P) {
      if (Plan[P] == Act::Flush)
        flushPendingStore(Pending[P]);
      else if (Plan[P] == Act::Keep)
        Remaining.push_back(Pending[P]);
    }
    Pending = std::move(Remaining);
  }

  /// At a surviving guard: a pending store may sink past the exit only if
  /// the exit path provably cannot reach the allocation -- the base local
  /// is dead there (or scratch), the reference never escaped, and the
  /// store itself cannot trap. Everything else lands before the guard.
  void processPendingAtGuard(const LinearOp &G) {
    for (size_t P = 0; P < Pending.size();) {
      PendingHeapStore &PS = Pending[P];
      uint32_t B = PS.Key.Base;
      bool DeadAtExit =
          B >= In.ScratchBase ||
          (Cfg.LivenessAtExits && G.HasLiveAtExit && !G.LiveAtExit.test(B));
      if (Cfg.SinkStores && PS.NoTrap && B < Fresh.size() && Fresh[B].Fresh &&
          !Fresh[B].Escaped && DeadAtExit) {
        if (!PS.Sunk) {
          PS.Sunk = true;
          ++Stats.MemStoresSunk;
        }
        ++P;
        continue;
      }
      flushPendingStore(PS);
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(P));
    }
  }

  /// A store into \p K cannot trap when the base is a fresh allocation
  /// (live, non-null, known shape) and the index is provably in bounds.
  bool noTrapStore(Opcode Op, const CellKey &K) const {
    if (K.Base >= Fresh.size())
      return false;
    const FreshAlloc &F = Fresh[K.Base];
    if (!F.Fresh)
      return false;
    if (Op == Opcode::PutField)
      return !F.IsArray && Mod && F.ClassId >= 0 &&
             static_cast<size_t>(F.ClassId) < Mod->Classes.size() &&
             K.Index >= 0 &&
             static_cast<uint32_t>(K.Index) <
                 Mod->Classes[static_cast<size_t>(F.ClassId)].NumFields;
    return F.IsArray && F.ConstLen >= 0 && K.Index >= 0 &&
           K.Index < F.ConstLen;
  }

  /// Emits a kept heap operation. Deferred operand entries are pushed in
  /// place (no materializeAll): the base of an identified access is
  /// consumed by the access itself and does not escape through it, so
  /// only entries *below* the operand window -- which persist on the real
  /// stack -- count as exposure.
  void emitKeptHeapOp(const Instruction &I) {
    int NOps = opPops(I.Op);
    size_t N = AbstractStack.size();
    size_t First = N >= static_cast<size_t>(NOps)
                       ? N - static_cast<size_t>(NOps)
                       : 0;
    bool IsStore = I.Op == Opcode::PutField || I.Op == Opcode::Iastore;
    for (size_t J = 0; J < N; ++J) {
      Entry &E = AbstractStack[J];
      switch (E.K) {
      case Entry::Kind::Materialized:
        break;
      case Entry::Kind::Const:
        emit(Instruction(Opcode::Iconst, static_cast<int32_t>(E.C)));
        break;
      case Entry::Kind::Load:
        emit(Instruction(Opcode::Iload, static_cast<int32_t>(E.Local)));
        // Below the window: a persistent stack copy. Top of a store's
        // window: the reference is written into the heap.
        if (J < First || (IsStore && J + 1 == N))
          markExposed(E.Local);
        break;
      }
      E.K = Entry::Kind::Materialized;
    }
    emit(I);
    for (int P = 0; P < NOps; ++P)
      pop();
    for (int P = 0; P < opPushes(I.Op); ++P)
      push({Entry::Kind::Materialized, 0, 0});
  }

  void handleHeapLoad(const Instruction &I);
  void handleHeapStore(const Instruction &I);

  /// Fresh/cell bookkeeping when a materialized store lands a just-pushed
  /// value into local \p X (TA: the value was an allocation result; LK:
  /// it was an identified heap load's result).
  struct TopAllocInfo {
    bool Valid = false;
    bool IsArray = false;
    int32_t ClassId = -1;
    int64_t ConstLen = -1;
  };
  void recordMaterializedStore(uint32_t X, const TopAllocInfo &TA,
                               const std::optional<CellKey> &LK) {
    if (TA.Valid) {
      Fresh[X] = {true, false, TA.IsArray, TA.ClassId, TA.ConstLen};
      if (TA.IsArray && TA.ConstLen >= 0)
        recordCell({CellKey::Group::Len, X, 0},
                   {Entry::Kind::Const, TA.ConstLen, 0});
      return;
    }
    if (LK && LK->Base != X)
      recordCell(*LK, {Entry::Kind::Load, 0, X});
  }

  void handleInstr(const Instruction &I);
  void handleGuard(const LinearOp &Op);

  const LinearSegment &In;
  OptStats &Stats;
  const OptConfig Cfg;
  const Module *Mod; ///< For trap-freedom proofs; may be null.
  LinearSegment Out;
  std::vector<Entry> AbstractStack;
  std::vector<LocalVal> Vals; ///< Known local values.
  std::vector<bool> Dirty;    ///< Deferred (unemitted) stores.
  std::vector<std::vector<size_t>> Reads;  ///< Load positions per local.
  std::vector<std::vector<size_t>> Writes; ///< Store positions per local.
  std::vector<size_t> Guards; ///< Guard positions (side exits).
  std::vector<CellVal> Cells; ///< Known heap-cell contents.
  std::vector<PendingHeapStore> Pending; ///< Held-back heap stores.
  std::vector<FreshAlloc> Fresh;         ///< Per-local freshness.
  TopAllocInfo TopAlloc; ///< Set by New/NewArray for the next Istore.
  std::optional<CellKey> LastLoadKey; ///< Set by a kept identified load.
  size_t CurIndex = 0;  ///< Index of the op being processed.
  bool Mutated = false; ///< The UnsoundPass hook fired (at most once).
};

void SegmentOptimizer::handleInstr(const Instruction &I) {
  // Allocation-result / load-result association holds only across the
  // immediately following instruction (an Istore naming the value).
  const TopAllocInfo TA = TopAlloc;
  TopAlloc = TopAllocInfo();
  const std::optional<CellKey> LK = LastLoadKey;
  LastLoadKey.reset();

  switch (I.Op) {
  case Opcode::Nop:
    return; // dropped

  case Opcode::Iconst:
    push({Entry::Kind::Const, I.A, 0});
    return;

  case Opcode::Iload: {
    auto X = static_cast<uint32_t>(I.A);
    if (!Cfg.ForwardLoads) {
      // The deferred-load substrate still applies, but the value must
      // come from the real slot: pin any deferred store to X first.
      flushDirtyLocal(X);
      push({Entry::Kind::Load, 0, X});
      return;
    }
    switch (Vals[X].K) {
    case LocalVal::Kind::Const:
      ++Stats.LoadsForwarded;
      push({Entry::Kind::Const, Vals[X].C, 0});
      return;
    case LocalVal::Kind::Copy:
      ++Stats.LoadsForwarded;
      push({Entry::Kind::Load, 0, Vals[X].Src});
      return;
    case LocalVal::Kind::Unknown:
      push({Entry::Kind::Load, 0, X});
      return;
    }
    return;
  }

  case Opcode::Istore: {
    auto X = static_cast<uint32_t>(I.A);
    Entry E = pop();
    // `iload x; istore x` cancels outright (x is unchanged, so heap
    // facts keyed on it survive).
    if (E.K == Entry::Kind::Load && E.Local == X) {
      ++Stats.DeadStores;
      return;
    }
    // x is redefined: heap facts keyed on it die, and pending heap
    // stores based on or valued from it land (or are proven dead) while
    // the old value is still in its slot.
    pendingRedefine(X);
    dropCellsOfLocal(X);
    Fresh[X] = FreshAlloc();
    if (E.K == Entry::Kind::Load)
      markExposed(E.Local); // the reference gains a second name
    // Any deferred load of x still on the stack must observe the old
    // value, and any deferred copy *of* x must be pinned before x
    // changes.
    materializeLoadsOf(X);
    invalidateCopiesOf(X);
    if (!Cfg.DeferStores) {
      // Emit the store eagerly; constant knowledge survives (the real
      // slot holds the value, so nothing is owed at exits).
      switch (E.K) {
      case Entry::Kind::Const:
        emit(Instruction(Opcode::Iconst, static_cast<int32_t>(E.C)));
        break;
      case Entry::Kind::Load:
        emit(Instruction(Opcode::Iload, static_cast<int32_t>(E.Local)));
        break;
      case Entry::Kind::Materialized:
        break;
      }
      emit(Instruction(Opcode::Istore, static_cast<int32_t>(X)));
      Vals[X] = LocalVal();
      Dirty[X] = false;
      if (auto C = constOf(E); C && fitsImm(*C))
        Vals[X] = {LocalVal::Kind::Const, *C, 0};
      if (E.K == Entry::Kind::Materialized)
        recordMaterializedStore(X, TA, LK);
      return;
    }
    if (Dirty[X])
      ++Stats.DeadStores; // the previous deferred store is overwritten
    if (auto C = constOf(E); C && fitsImm(*C)) {
      // Defer the store itself; it becomes real at the next exit point.
      Vals[X] = {LocalVal::Kind::Const, *C, 0};
      Dirty[X] = true;
      return;
    }
    if (E.K == Entry::Kind::Load) {
      // Defer as a copy of the (non-dirty) source local.
      assert(!Dirty[E.Local] && "deferred loads never target dirty locals");
      Vals[X] = {LocalVal::Kind::Copy, 0, E.Local};
      Dirty[X] = true;
      return;
    }
    assert(E.K == Entry::Kind::Materialized &&
           "const entries are always known");
    emit(Instruction(Opcode::Istore, static_cast<int32_t>(X)));
    Vals[X] = LocalVal();
    Dirty[X] = false;
    recordMaterializedStore(X, TA, LK);
    return;
  }

  case Opcode::Iinc: {
    auto X = static_cast<uint32_t>(I.A);
    pendingRedefine(X);
    dropCellsOfLocal(X);
    Fresh[X] = FreshAlloc();
    materializeLoadsOf(X);
    invalidateCopiesOf(X);
    if (Cfg.FoldConstants && Cfg.DeferStores &&
        Vals[X].K == LocalVal::Kind::Const) {
      auto V = static_cast<int64_t>(static_cast<uint64_t>(Vals[X].C) +
                                    static_cast<uint64_t>(I.B));
      if (fitsImm(V)) {
        Vals[X].C = V;
        Dirty[X] = true;
        ++Stats.ConstantsFolded;
        return;
      }
    }
    // Pin any deferred value down, then increment for real.
    flushDirtyLocal(X);
    Vals[X] = LocalVal();
    emit(I);
    return;
  }

  case Opcode::Pop: {
    Entry E = pop();
    if (E.K == Entry::Kind::Materialized)
      emit(I);
    return; // a deferred value popped costs nothing
  }

  case Opcode::Dup: {
    if (AbstractStack.empty()) {
      // Duplicating an incoming (materialized) value.
      emit(I);
      push({Entry::Kind::Materialized, 0, 0});
      return;
    }
    Entry Top = AbstractStack.back();
    if (Top.K == Entry::Kind::Materialized)
      emit(I);
    push(Top);
    return;
  }

  case Opcode::Swap: {
    Entry B = pop(), A = pop();
    if (A.K == Entry::Kind::Materialized ||
        B.K == Entry::Kind::Materialized) {
      // Mixed forms would break the deferred-suffix invariant; pin both.
      push(A);
      push(B);
      materializeAll();
      emit(I);
      Entry &NewB = AbstractStack[AbstractStack.size() - 2];
      Entry &NewA = AbstractStack[AbstractStack.size() - 1];
      std::swap(NewA, NewB);
      return;
    }
    push(B);
    push(A);
    return;
  }

  case Opcode::Ineg: {
    Entry E = pop();
    if (auto C = Cfg.FoldConstants ? constOf(E) : std::optional<int64_t>()) {
      auto V = static_cast<int64_t>(0 - static_cast<uint64_t>(*C));
      if (fitsImm(V)) {
        ++Stats.ConstantsFolded;
        push({Entry::Kind::Const, V, 0});
        return;
      }
    }
    push(E);
    materializeAll();
    emit(I);
    return;
  }

  case Opcode::Iprint: {
    flushPendingAll(); // print is an effect: held-back stores land first
    Entry E = pop();
    // The net stack effect of push+print is zero, so a deferred operand
    // can be emitted directly without disturbing entries beneath it.
    if (auto C = constOf(E)) {
      emit(Instruction(Opcode::Iconst, static_cast<int32_t>(*C)));
    } else if (E.K == Entry::Kind::Load) {
      emit(Instruction(Opcode::Iload, static_cast<int32_t>(E.Local)));
    }
    emit(Instruction(Opcode::Iprint));
    return;
  }

  case Opcode::New:
  case Opcode::NewArray: {
    // Allocation is an effect (it can trap on exhaustion): held-back
    // stores land first so the effect order is preserved. The constant
    // length (if any) is read before materialization erases it.
    flushPendingAll();
    std::optional<int64_t> Len;
    if (I.Op == Opcode::NewArray)
      Len = constOf(peek(1));
    materializeAll();
    emit(I);
    for (int P = 0; P < opPops(I.Op); ++P)
      pop();
    push({Entry::Kind::Materialized, 0, 0});
    TopAlloc.Valid = true;
    TopAlloc.IsArray = I.Op == Opcode::NewArray;
    TopAlloc.ClassId = I.Op == Opcode::New ? I.A : -1;
    TopAlloc.ConstLen = (Len && *Len >= 0 && fitsImm(*Len)) ? *Len : -1;
    return;
  }

  case Opcode::GetField:
  case Opcode::Iaload:
  case Opcode::ArrayLength:
    handleHeapLoad(I);
    return;

  case Opcode::PutField:
  case Opcode::Iastore:
    handleHeapStore(I);
    return;

  default:
    break;
  }

  if (isBinary(I.Op)) {
    Entry B = pop(), A = pop();
    auto CA = constOf(A), CB = constOf(B);
    int64_t Folded = 0;
    if (Cfg.FoldConstants && CA && CB &&
        foldBinaryImm(I.Op, *CA, *CB, Folded)) {
      if (Cfg.Mutate == UnsoundPass::WrongConstant && !Mutated) {
        // Deliberate miscompile: off-by-one fold result.
        Mutated = true;
        ++Folded;
      }
      ++Stats.ConstantsFolded;
      push({Entry::Kind::Const, Folded, 0});
      return;
    }
    push(A);
    push(B);
    materializeAll();
    emit(I);
    pop();
    pop();
    push({Entry::Kind::Materialized, 0, 0});
    return;
  }

  // Everything else (heap operations, New, arrays): operands must be on
  // the real stack; results are opaque.
  materializeAll();
  emit(I);
  for (int P = 0; P < opPops(I.Op); ++P)
    pop();
  for (int P = 0; P < opPushes(I.Op); ++P)
    push({Entry::Kind::Materialized, 0, 0});
}

void SegmentOptimizer::handleHeapLoad(const Instruction &I) {
  int NOps = opPops(I.Op); // GetField/ArrayLength: 1, Iaload: 2
  // Eliminable only when every operand is still deferred: popping them
  // then costs nothing on the real stack.
  bool Deferrable = AbstractStack.size() >= static_cast<size_t>(NOps);
  for (int P = 1; P <= NOps && Deferrable; ++P)
    Deferrable = peek(P).K != Entry::Kind::Materialized;
  std::optional<CellKey> K;
  if (Deferrable) {
    Entry Base = peek(NOps);
    if (Base.K == Entry::Kind::Load) {
      if (I.Op == Opcode::GetField)
        K = CellKey{CellKey::Group::Field, Base.Local, I.A};
      else if (I.Op == Opcode::ArrayLength)
        K = CellKey{CellKey::Group::Len, Base.Local, 0};
      else if (auto C = constOf(peek(1)); C && *C >= 0 && fitsImm(*C))
        K = CellKey{CellKey::Group::Elem, Base.Local, static_cast<int32_t>(*C)};
    }
  }
  if (Cfg.ElimRedundantLoads && K) {
    if (const Entry *V = lookupCell(*K)) {
      // The cell's content is known from a dominating access through the
      // same (unchanged) base local and index; that access also already
      // performed -- or, for a held-back store, will perform at the same
      // effect position -- this load's exact null/bounds checks.
      for (int P = 0; P < NOps; ++P)
        pop();
      push(*V);
      ++Stats.MemLoadsEliminated;
      return;
    }
  }
  if (Cfg.Mutate == UnsoundPass::AliasConfusedLoad && !Mutated && Deferrable) {
    // Deliberate miscompile: the cell is NOT known, but the load is
    // eliminated anyway with a fabricated value.
    Mutated = true;
    for (int P = 0; P < NOps; ++P)
      pop();
    push({Entry::Kind::Const, 0, 0});
    return;
  }
  flushPendingAll();
  emitKeptHeapOp(I);
  // If the very next instruction stores the result to a local, that
  // local becomes the cell's remembered value.
  LastLoadKey = K;
}

void SegmentOptimizer::handleHeapStore(const Instruction &I) {
  int NOps = opPops(I.Op); // PutField: 2, Iastore: 3
  bool Deferrable = AbstractStack.size() >= static_cast<size_t>(NOps);
  for (int P = 1; P <= NOps && Deferrable; ++P)
    Deferrable = peek(P).K != Entry::Kind::Materialized;
  std::optional<CellKey> K;
  if (Deferrable) {
    Entry Base = peek(NOps);
    if (Base.K == Entry::Kind::Load) {
      if (I.Op == Opcode::PutField)
        K = CellKey{CellKey::Group::Field, Base.Local, I.A};
      else if (auto C = constOf(peek(2)); C && *C >= 0 && fitsImm(*C))
        K = CellKey{CellKey::Group::Elem, Base.Local, static_cast<int32_t>(*C)};
    }
  }
  // The stored value must be re-creatable at the flush point: a constant
  // or a local that is pinned (flushed) before any redefinition.
  std::optional<Entry> RecVal;
  if (Deferrable) {
    Entry V = peek(1);
    if (auto C = constOf(V); C && fitsImm(*C))
      RecVal = Entry{Entry::Kind::Const, *C, 0};
    else if (V.K == Entry::Kind::Load)
      RecVal = V;
  }
  if (K && RecVal && (Cfg.ElimDeadStores || Cfg.SinkStores)) {
    // Storing a reference into the heap publishes it.
    if (RecVal->K == Entry::Kind::Load)
      markExposed(RecVal->Local);
    // An exact overwrite makes the held-back store dead; a may-alias
    // store pins it in program order first. Two ordering rules keep trap
    // positions sound: a possibly-trapping pending may be overwrite-
    // killed only while it is the most recent pending (its twin's
    // identical trap condition then replaces it with no observable
    // window), and nothing may be flushed past a *retained* possibly-
    // trapping entry (its trap would move across the flushed write).
    std::optional<PendingHeapStore> Resurrect;
    enum class Act : uint8_t { Keep, Flush, Drop };
    std::vector<Act> Plan(Pending.size(), Act::Keep);
    for (size_t P = 0; P < Pending.size(); ++P) {
      PendingHeapStore &PS = Pending[P];
      if (PS.Key == *K) {
        bool Killable = PS.NoTrap || P + 1 == Pending.size();
        if (Cfg.Mutate == UnsoundPass::ResurrectDeadStore && !Mutated &&
            Killable) {
          // Deliberate miscompile: the dead store is re-emitted *after*
          // its overwrite, resurrecting the stale value.
          Mutated = true;
          Resurrect = PS;
          Plan[P] = Act::Drop;
        } else if (Cfg.ElimDeadStores && Killable) {
          ++Stats.MemDeadStores;
          Plan[P] = Act::Drop;
        } else {
          Plan[P] = Act::Flush; // sink-only config or unkillable: it lands
        }
      } else if (!distinctCells(PS.Key, *K)) {
        Plan[P] = Act::Flush;
      }
    }
    bool FlushAfter = false;
    for (size_t P = Pending.size(); P-- > 0;) {
      if (Plan[P] == Act::Flush)
        FlushAfter = true;
      else if (Plan[P] == Act::Keep && FlushAfter && !Pending[P].NoTrap)
        Plan[P] = Act::Flush;
    }
    std::vector<PendingHeapStore> Remaining;
    for (size_t P = 0; P < Pending.size(); ++P) {
      if (Plan[P] == Act::Flush)
        flushPendingStore(Pending[P]);
      else if (Plan[P] == Act::Keep)
        Remaining.push_back(Pending[P]);
    }
    Pending = std::move(Remaining);
    for (int P = 0; P < NOps; ++P)
      pop();
    PendingHeapStore NewP;
    NewP.Key = *K;
    NewP.Val = *RecVal;
    NewP.I = I;
    NewP.NoTrap = noTrapStore(I.Op, *K);
    Pending.push_back(NewP);
    if (Resurrect)
      Pending.push_back(*Resurrect);
    dropCellsForStore(*K);
    recordCell(*K, *RecVal);
    return;
  }
  // Kept store: held-back stores land first (effect order), then the
  // store itself updates / kills cell knowledge.
  flushPendingAll();
  emitKeptHeapOp(I);
  if (K) {
    dropCellsForStore(*K);
    if (RecVal)
      recordCell(*K, *RecVal);
  } else {
    dropCellsUnknownStore(I.Op == Opcode::PutField ? CellKey::Group::Field
                                                   : CellKey::Group::Elem);
  }
}

void SegmentOptimizer::handleGuard(const LinearOp &Op) {
  TopAlloc = TopAllocInfo();
  LastLoadKey.reset();
  int Pops = opPops(Op.I.Op);
  assert(Pops >= 1 && Pops <= 2);

  if (Cfg.Mutate == UnsoundPass::DropGuard && !Mutated) {
    // Deliberate miscompile: the guard vanishes without justification.
    // Operands are disposed of properly (deferred ones cost nothing,
    // materialized ones are popped), so only the side exit is lost.
    Mutated = true;
    for (int P = 0; P < Pops; ++P) {
      Entry E = pop();
      if (E.K == Entry::Kind::Materialized)
        emit(Instruction(Opcode::Pop));
    }
    return;
  }

  // A guard whose operands are statically known and agree with the
  // recorded direction can never fire; drop it with its operands.
  if (Cfg.EliminateGuards && Op.I.Op != Opcode::Tableswitch &&
      AbstractStack.size() >= static_cast<size_t>(Pops)) {
    Entry Top = AbstractStack.back();
    Entry Below =
        Pops == 2 ? AbstractStack[AbstractStack.size() - 2] : Entry{};
    auto CT = constOf(Top);
    auto CB = Pops == 2 ? constOf(Below) : std::optional<int64_t>(0);
    if (CT && CB) {
      int64_t A = Pops == 2 ? *CB : *CT;
      int64_t B = Pops == 2 ? *CT : 0;
      if (evalBranch(Op.I.Op, A, B) == Op.GuardTaken &&
          Top.K != Entry::Kind::Materialized &&
          (Pops == 1 || Below.K != Entry::Kind::Materialized)) {
        pop();
        if (Pops == 2)
          pop();
        ++Stats.GuardsEliminated;
        return;
      }
    }
  }

  // A live guard is a potential exit: the real machine state must be
  // complete before it runs -- restricted to the exit's live locals when
  // the guard carries liveness facts.
  materializeAll();
  flushDirtyLocalsAtGuard(Op);
  // After materialization and local flushes (both of which can expose a
  // reference), decide which held-back heap stores may sink past this
  // exit and which must land before it.
  processPendingAtGuard(Op);
  Out.Ops.push_back(Op);
  for (int P = 0; P < Pops; ++P)
    pop();
  ++Stats.GuardsAfter;
}

LinearSegment SegmentOptimizer::run() {
  for (size_t I = 0; I < In.Ops.size(); ++I) {
    CurIndex = I;
    const LinearOp &Op = In.Ops[I];
    if (Op.K == LinearOp::Kind::Guard) {
      ++Stats.GuardsBefore;
      handleGuard(Op);
    } else {
      handleInstr(Op.I);
    }
  }
  // Segment end: the next thing executed is unoptimized code.
  materializeAll();
  flushDirtyLocals();
  // Held-back heap stores: a store into a fresh, never-escaped scratch
  // allocation dies with its frame; everything else lands now.
  for (const PendingHeapStore &PS : Pending) {
    uint32_t B = PS.Key.Base;
    if (Cfg.ElimDeadStores && PS.NoTrap && B >= In.ScratchBase &&
        B < Fresh.size() && Fresh[B].Fresh && !Fresh[B].Escaped) {
      ++Stats.MemDeadStores;
      continue;
    }
    flushPendingStore(PS);
  }
  Pending.clear();

  Stats.InstructionsBefore += In.numInstructions();
  Stats.InstructionsAfter += Out.numInstructions();
  return std::move(Out);
}

} // namespace

LinearSegment jtc::optimizeSegment(const LinearSegment &In, OptStats &Stats,
                                   const OptConfig &Config, const Module *M) {
  return SegmentOptimizer(In, Stats, Config, M).run();
}

LinearSegment jtc::optimizeSegment(const LinearSegment &In, OptStats &Stats) {
  return optimizeSegment(In, Stats, OptConfig(), nullptr);
}

std::vector<LinearSegment>
jtc::optimizeTrace(const PreparedModule &PM, const Trace &T, OptStats &Stats,
                   bool InlineStaticCalls,
                   const analysis::ModuleAnalysis *Facts,
                   const OptConfig &Config) {
  std::vector<LinearSegment> Out;
  for (const LinearSegment &Seg :
       linearizeTrace(PM, T, InlineStaticCalls, Facts))
    Out.push_back(optimizeSegment(Seg, Stats, Config, &PM.module()));
  return Out;
}
