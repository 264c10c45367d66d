//===- analysis/Alias.cpp - Field-sensitive alias & escape facts ----------===//

#include "analysis/Alias.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace jtc {
namespace analysis {

const char *escapeClassName(EscapeClass E) {
  switch (E) {
  case EscapeClass::NoEscape:
    return "no-escape";
  case EscapeClass::ArgEscape:
    return "arg-escape";
  case EscapeClass::GlobalEscape:
    return "global-escape";
  }
  return "?";
}

namespace {

/// Classification of one heap access given the abstract base value.
/// \p TraceNonNullObject is the trace-local receiver fact: the base is a
/// live non-array object of unknown class (virtual dispatch succeeded).
struct AccessClass {
  enum class Kind : uint8_t { ElideNull, ElideFull, MayNull, Unknown } K;
};

AccessClass classifyAccess(const Module &M, const Instruction &I,
                           const AbstractValue &V, bool TraceNonNullObject) {
  using K = AccessClass::Kind;
  // Provably a non-null array: allocation-typed, never joined with an
  // object class or null.
  bool DefArray = V.isNonNullRef() && V.Classes.empty() && V.MayBeArray;
  // Provably a non-null object (non-array).
  bool DefObject =
      (V.isNonNullRef() && !V.MayBeArray && !V.Classes.empty()) ||
      TraceNonNullObject;
  switch (I.Op) {
  case Opcode::Iaload:
  case Opcode::Iastore:
    // The bounds check stays: indexes are dynamic.
    if (DefArray)
      return {K::ElideNull};
    break;
  case Opcode::ArrayLength:
    // Length reads have no bounds check, so the proof removes everything.
    if (DefArray)
      return {K::ElideFull};
    break;
  case Opcode::GetField:
  case Opcode::PutField:
    if (DefObject) {
      // The slot check folds away too when every class the base may be
      // declares the field.
      bool SlotOk = !TraceNonNullObject && !V.Classes.any();
      if (SlotOk) {
        V.Classes.forEach([&](uint32_t C) {
          if (C >= M.Classes.size() ||
              static_cast<uint32_t>(I.A) >= M.Classes[C].NumFields)
            SlotOk = false;
        });
      }
      return {SlotOk ? K::ElideFull : K::ElideNull};
    }
    break;
  default:
    assert(false && "not a heap access");
    break;
  }
  if (V.isRef() && V.MayBeNull)
    return {K::MayNull};
  return {K::Unknown};
}

/// Stack depth of the base reference below the top, before the access.
int baseDepth(Opcode Op) {
  switch (Op) {
  case Opcode::GetField:
  case Opcode::ArrayLength:
    return 1;
  case Opcode::PutField:
  case Opcode::Iaload:
    return 2;
  case Opcode::Iastore:
    return 3;
  default:
    return 0;
  }
}

bool isHeapAccess(Opcode Op) { return baseDepth(Op) != 0; }

} // namespace

//===----------------------------------------------------------------------===//
// Per-method allocation-site points-to & escape
//===----------------------------------------------------------------------===//

namespace {

/// Points-to state: one may-point-to bitset (over tracked allocation
/// sites) per local and stack slot.
struct PtState {
  bool Init = false;
  std::vector<uint64_t> Locals;
  std::vector<uint64_t> Stack;
};

bool joinInto(PtState &Dst, const PtState &Src) {
  if (!Src.Init)
    return false;
  if (!Dst.Init) {
    Dst = Src;
    return true;
  }
  bool Changed = false;
  // Verified code has consistent heights; clamp defensively anyway.
  size_t NL = std::min(Dst.Locals.size(), Src.Locals.size());
  size_t NS = std::min(Dst.Stack.size(), Src.Stack.size());
  for (size_t I = 0; I < NL; ++I)
    if ((Dst.Locals[I] | Src.Locals[I]) != Dst.Locals[I]) {
      Dst.Locals[I] |= Src.Locals[I];
      Changed = true;
    }
  for (size_t I = 0; I < NS; ++I)
    if ((Dst.Stack[I] | Src.Stack[I]) != Dst.Stack[I]) {
      Dst.Stack[I] |= Src.Stack[I];
      Changed = true;
    }
  return Changed;
}

} // namespace

MethodEscapeFacts analyzeMethodEscapes(const MethodCfg &Cfg,
                                       const MethodValueFacts &Values,
                                       const ModuleSummaries &Summaries) {
  (void)Values;
  const Module &M = Cfg.module();
  const Method &Fn = Cfg.method();
  MethodEscapeFacts R;

  std::vector<int> SiteOf(Fn.Code.size(), -1);
  for (uint32_t Pc = 0; Pc < Fn.Code.size(); ++Pc) {
    Opcode Op = Fn.Code[Pc].Op;
    if (Op != Opcode::New && Op != Opcode::NewArray)
      continue;
    AllocSite S;
    S.Pc = Pc;
    S.IsArray = Op == Opcode::NewArray;
    if (R.Sites.size() < 64) {
      SiteOf[Pc] = static_cast<int>(R.Sites.size());
    } else {
      // Untracked overflow sites: assume the worst.
      S.Escape = EscapeClass::GlobalEscape;
      R.Overflowed = true;
    }
    R.Sites.push_back(S);
  }
  if (R.Sites.empty())
    return R;

  auto Escape = [&R](uint64_t Mask, EscapeClass E) {
    for (uint32_t B = 0; Mask != 0 && B < 64; ++B)
      if (Mask & (uint64_t{1} << B))
        if (R.Sites[B].Escape < E)
          R.Sites[B].Escape = E;
  };

  std::vector<PtState> In(Cfg.numBlocks());
  if (!Cfg.rpo().empty()) {
    PtState &E = In[Cfg.rpo().front()];
    E.Init = true;
    E.Locals.assign(Fn.NumLocals, 0);
  }

  bool Changed = true;
  for (int Round = 0; Changed && Round < 200; ++Round) {
    Changed = false;
    for (uint32_t B : Cfg.rpo()) {
      if (!In[B].Init)
        continue;
      PtState S = In[B];
      const CfgBlock &CB = Cfg.block(B);
      auto Pop = [&S]() -> uint64_t {
        if (S.Stack.empty())
          return 0;
        uint64_t V = S.Stack.back();
        S.Stack.pop_back();
        return V;
      };
      auto Push = [&S](uint64_t V) { S.Stack.push_back(V); };
      for (uint32_t Pc = CB.Start; Pc < CB.End; ++Pc) {
        const Instruction &I = Fn.Code[Pc];
        switch (I.Op) {
        case Opcode::New:
          Push(SiteOf[Pc] >= 0 ? uint64_t{1} << SiteOf[Pc] : 0);
          break;
        case Opcode::NewArray:
          Pop();
          Push(SiteOf[Pc] >= 0 ? uint64_t{1} << SiteOf[Pc] : 0);
          break;
        case Opcode::Iload:
          Push(S.Locals[I.A]);
          break;
        case Opcode::Istore:
          S.Locals[I.A] = Pop();
          break;
        case Opcode::Iinc:
          S.Locals[I.A] = 0; // Arithmetic result, no longer the reference.
          break;
        case Opcode::Dup:
          Push(S.Stack.empty() ? 0 : S.Stack.back());
          break;
        case Opcode::Swap:
          if (S.Stack.size() >= 2)
            std::swap(S.Stack[S.Stack.size() - 1], S.Stack[S.Stack.size() - 2]);
          break;
        case Opcode::PutField: {
          uint64_t V = Pop();
          Pop();
          Escape(V, EscapeClass::GlobalEscape);
          break;
        }
        case Opcode::Iastore: {
          uint64_t V = Pop();
          Pop();
          Pop();
          Escape(V, EscapeClass::GlobalEscape);
          break;
        }
        case Opcode::InvokeStatic:
        case Opcode::InvokeVirtual: {
          uint32_t Args, Rets;
          if (I.Op == Opcode::InvokeStatic) {
            const Method &Callee = M.Methods[I.A];
            Args = Callee.NumArgs;
            Rets = Callee.ReturnsValue ? 1 : 0;
          } else {
            const SlotInfo &Slot = M.Slots[I.A];
            Args = Slot.ArgCount;
            Rets = Slot.ReturnsValue ? 1 : 0;
          }
          auto CS = Summaries.callSite(M, I);
          EscapeClass E = (!CS || CS->WritesHeap) ? EscapeClass::GlobalEscape
                                                  : EscapeClass::ArgEscape;
          uint64_t ArgMask = 0;
          for (uint32_t K = 0; K < Args; ++K)
            ArgMask |= Pop();
          Escape(ArgMask, E);
          // The return value may alias any argument (identity-shaped
          // callees), so the argument sites flow through it.
          for (uint32_t K = 0; K < Rets; ++K)
            Push(ArgMask);
          break;
        }
        case Opcode::Ireturn:
          Escape(Pop(), EscapeClass::ArgEscape);
          break;
        default: {
          int P = opPops(I.Op), Q = opPushes(I.Op);
          for (int K = 0; K < P; ++K)
            Pop();
          for (int K = 0; K < Q; ++K)
            Push(0);
          break;
        }
        }
      }
      for (uint32_t Succ : CB.Succs)
        Changed |= joinInto(In[Succ], S);
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Trace-level memory facts
//===----------------------------------------------------------------------===//

namespace {

/// One frame of the trace's call stack during the walk.
struct WalkFrame {
  uint32_t MethodId = 0;
  /// Trace-local non-null facts per local (receiver rule).
  std::vector<uint8_t> NonNull;
  /// Which local each stack slot was loaded from (-1 unknown).
  std::vector<int32_t> Tags;
};

} // namespace

std::vector<TraceMemFact>
analyzeTraceMemory(const Module &M, const ValueFactsFn &Facts,
                   const std::vector<TraceBlockSpan> &Blocks,
                   AliasStats *Stats) {
  std::vector<TraceMemFact> Out;
  if (Blocks.empty())
    return Out;

  std::vector<WalkFrame> Saved;
  WalkFrame F;
  auto Reset = [&](uint32_t MethodId) {
    F = WalkFrame();
    F.MethodId = MethodId;
    F.NonNull.assign(M.Methods[MethodId].NumLocals, 0);
  };
  Reset(Blocks[0].MethodId);

  for (size_t Bi = 0; Bi < Blocks.size(); ++Bi) {
    const TraceBlockSpan &BB = Blocks[Bi];
    if (Bi > 0) {
      // Frame bookkeeping across the block transition.
      const TraceBlockSpan &Prev = Blocks[Bi - 1];
      const Instruction &Last = M.Methods[Prev.MethodId].Code[Prev.EndPc - 1];
      switch (opKind(Last.Op)) {
      case OpKind::Call:
        Saved.push_back(std::move(F));
        Reset(BB.MethodId);
        if (Last.Op == Opcode::InvokeVirtual && !F.NonNull.empty())
          F.NonNull[0] = 1; // Dispatch traps on null/non-object receivers.
        break;
      case OpKind::Ret:
        if (!Saved.empty()) {
          F = std::move(Saved.back());
          Saved.pop_back();
          if (Last.Op == Opcode::Ireturn)
            F.Tags.push_back(-1);
        } else {
          Reset(BB.MethodId); // Returned past the trace's root frame.
        }
        break;
      default:
        if (F.MethodId != BB.MethodId)
          Reset(BB.MethodId); // Defensive; should not happen.
        break;
      }
    }

    const MethodValueFacts *MVF = Facts ? Facts(BB.MethodId) : nullptr;
    const Method &Fn = M.Methods[BB.MethodId];
    if (!MVF) {
      F.Tags.clear();
      continue;
    }
    FrameState S = MVF->stateBefore(BB.StartPc);
    if (!S.Reachable) {
      F.Tags.clear();
      continue;
    }
    if (F.Tags.size() != S.Stack.size())
      F.Tags.assign(S.Stack.size(), -1);

    for (uint32_t Pc = BB.StartPc; Pc < BB.EndPc && S.Reachable; ++Pc) {
      const Instruction &I = Fn.Code[Pc];
      if (isHeapAccess(I.Op) &&
          S.Stack.size() >= static_cast<size_t>(baseDepth(I.Op))) {
        size_t Pos = S.Stack.size() - static_cast<size_t>(baseDepth(I.Op));
        const AbstractValue &V = S.Stack[Pos];
        int32_t Tag = Pos < F.Tags.size() ? F.Tags[Pos] : -1;
        bool TraceNN = Tag >= 0 &&
                       static_cast<size_t>(Tag) < F.NonNull.size() &&
                       F.NonNull[Tag];
        AccessClass C = classifyAccess(M, I, V, TraceNN);
        if (Stats)
          ++Stats->MemOps;
        switch (C.K) {
        case AccessClass::Kind::ElideNull:
          Out.push_back({static_cast<uint32_t>(Bi), Pc, ElideLevel::NullOnly});
          if (Stats)
            ++Stats->ElidedNull;
          break;
        case AccessClass::Kind::ElideFull:
          Out.push_back({static_cast<uint32_t>(Bi), Pc, ElideLevel::Full});
          if (Stats)
            ++Stats->ElidedFull;
          break;
        case AccessClass::Kind::MayNull:
          if (Stats)
            ++Stats->MayNullBase;
          break;
        case AccessClass::Kind::Unknown:
          if (Stats)
            ++Stats->UnknownBase;
          break;
        }
      }
      // Maintain the load-provenance tags in lockstep with the stack.
      switch (I.Op) {
      case Opcode::Iload:
        F.Tags.push_back(I.A);
        break;
      case Opcode::Istore:
        if (!F.Tags.empty())
          F.Tags.pop_back();
        if (static_cast<size_t>(I.A) < F.NonNull.size())
          F.NonNull[I.A] = 0;
        break;
      case Opcode::Iinc:
        if (static_cast<size_t>(I.A) < F.NonNull.size())
          F.NonNull[I.A] = 0;
        break;
      case Opcode::Dup:
        F.Tags.push_back(F.Tags.empty() ? -1 : F.Tags.back());
        break;
      case Opcode::Swap:
        if (F.Tags.size() >= 2)
          std::swap(F.Tags[F.Tags.size() - 1], F.Tags[F.Tags.size() - 2]);
        break;
      default: {
        if (opKind(I.Op) == OpKind::Normal || opKind(I.Op) == OpKind::Branch ||
            opKind(I.Op) == OpKind::Switch) {
          for (int K = 0; K < opPops(I.Op) && !F.Tags.empty(); ++K)
            F.Tags.pop_back();
          for (int K = 0; K < opPushes(I.Op); ++K)
            F.Tags.push_back(-1);
        }
        break;
      }
      }
      MethodValueFacts::stepInstruction(M, Fn, Pc, S);
    }
    if (!S.Reachable)
      F.Tags.clear();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Module-wide report
//===----------------------------------------------------------------------===//

ModuleAliasReport analyzeModuleAliasing(const Module &M,
                                        const ValueFactsFn &Facts,
                                        const ModuleSummaries &Summaries) {
  ModuleAliasReport R;
  R.Escapes.resize(M.Methods.size());
  constexpr size_t MaxDiags = 64;

  for (uint32_t F = 0; F < M.Methods.size(); ++F) {
    const MethodValueFacts *MVF = Facts ? Facts(F) : nullptr;
    if (!MVF)
      continue;
    const MethodCfg &Cfg = MVF->cfg();
    R.Escapes[F] = analyzeMethodEscapes(Cfg, *MVF, Summaries);
    for (const AllocSite &S : R.Escapes[F].Sites) {
      ++R.Stats.AllocSites;
      switch (S.Escape) {
      case EscapeClass::NoEscape:
        ++R.Stats.NoEscape;
        break;
      case EscapeClass::ArgEscape:
        ++R.Stats.ArgEscape;
        break;
      case EscapeClass::GlobalEscape:
        ++R.Stats.GlobalEscape;
        break;
      }
    }
    const Method &Fn = M.Methods[F];
    for (uint32_t B : Cfg.rpo()) {
      MVF->forEachInstruction(B, [&](uint32_t Pc, const FrameState &S) {
        const Instruction &I = Fn.Code[Pc];
        if (!isHeapAccess(I.Op) ||
            S.Stack.size() < static_cast<size_t>(baseDepth(I.Op)))
          return;
        const AbstractValue &V =
            S.Stack[S.Stack.size() - static_cast<size_t>(baseDepth(I.Op))];
        AccessClass C = classifyAccess(M, I, V, /*TraceNonNullObject=*/false);
        ++R.Stats.MemOps;
        switch (C.K) {
        case AccessClass::Kind::ElideNull:
          ++R.Stats.ElidedNull;
          return;
        case AccessClass::Kind::ElideFull:
          ++R.Stats.ElidedFull;
          return;
        case AccessClass::Kind::MayNull:
          ++R.Stats.MayNullBase;
          break;
        case AccessClass::Kind::Unknown:
          ++R.Stats.UnknownBase;
          break;
        }
        if (R.Diagnostics.size() < MaxDiags) {
          std::ostringstream OS;
          OS << Fn.Name << " pc " << Pc << ": " << mnemonic(I.Op)
             << (C.K == AccessClass::Kind::MayNull
                     ? ": base may be null"
                     : ": base shape unknown");
          R.Diagnostics.push_back(OS.str());
        }
      });
    }
  }
  return R;
}

} // namespace analysis
} // namespace jtc
