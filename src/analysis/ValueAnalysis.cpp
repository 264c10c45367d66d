//===- analysis/ValueAnalysis.cpp - Typed/constant abstract interp --------===//

#include "analysis/ValueAnalysis.h"
#include "analysis/Dataflow.h"
#include "bytecode/OpSemantics.h"

#include <cassert>

namespace jtc {
namespace analysis {

namespace {

// --- integer range arithmetic -------------------------------------------
//
// Constant operands fold through the opcode semantics table
// (bytecode/OpSemantics.h), the rules every engine executes; range
// results fall back to the full range whenever the interval arithmetic
// could overflow, which keeps the facts sound without an exact wrapped-
// interval domain.

bool bothInt(const AbstractValue &A, const AbstractValue &B) {
  return A.isInt() && B.isInt();
}

AbstractValue rangeAdd(const AbstractValue &A, const AbstractValue &B) {
  if (!bothInt(A, B))
    return AbstractValue::intAny();
  int64_t Lo, Hi;
  if (__builtin_add_overflow(A.Lo, B.Lo, &Lo) ||
      __builtin_add_overflow(A.Hi, B.Hi, &Hi))
    return AbstractValue::intAny();
  return AbstractValue::intRange(Lo, Hi);
}

AbstractValue rangeSub(const AbstractValue &A, const AbstractValue &B) {
  if (!bothInt(A, B))
    return AbstractValue::intAny();
  int64_t Lo, Hi;
  if (__builtin_sub_overflow(A.Lo, B.Hi, &Lo) ||
      __builtin_sub_overflow(A.Hi, B.Lo, &Hi))
    return AbstractValue::intAny();
  return AbstractValue::intRange(Lo, Hi);
}

AbstractValue rangeMul(const AbstractValue &A, const AbstractValue &B) {
  if (!bothInt(A, B))
    return AbstractValue::intAny();
  // Interval multiply over the four corner products, bailing on overflow.
  int64_t Corners[4];
  const int64_t As[2] = {A.Lo, A.Hi}, Bs[2] = {B.Lo, B.Hi};
  int Idx = 0;
  for (int64_t X : As)
    for (int64_t Y : Bs)
      if (__builtin_mul_overflow(X, Y, &Corners[Idx++]))
        return AbstractValue::intAny();
  int64_t Lo = Corners[0], Hi = Corners[0];
  for (int64_t C : Corners) {
    Lo = std::min(Lo, C);
    Hi = std::max(Hi, C);
  }
  return AbstractValue::intRange(Lo, Hi);
}

/// Range of A op B for binary opcode \p Op, when the operands are not
/// both constants (or a constant division would trap).
AbstractValue rangeBinary(Opcode Op, const AbstractValue &A,
                          const AbstractValue &B) {
  switch (Op) {
  case Opcode::Iadd:
    return rangeAdd(A, B);
  case Opcode::Isub:
    return rangeSub(A, B);
  case Opcode::Imul:
    return rangeMul(A, B);
  case Opcode::Iand:
    if (A.isInt() && B.isInt() && A.Lo >= 0 && B.Lo >= 0)
      return AbstractValue::intRange(0, std::min(A.Hi, B.Hi));
    return AbstractValue::intAny();
  default:
    return AbstractValue::intAny();
  }
}

/// Condition range of a value used as a branch operand: references are
/// positive opaque handles (null is 0), so a non-null reference compares
/// like [1, max] and a nullable one like [0, max].
struct CondRange {
  int64_t Lo = AbstractValue::MinInt;
  int64_t Hi = AbstractValue::MaxInt;
};

CondRange condRange(const AbstractValue &V) {
  if (V.isInt())
    return {V.Lo, V.Hi};
  if (V.isRef())
    return {V.MayBeNull ? 0 : 1, AbstractValue::MaxInt};
  return {};
}

BranchDecision fromBools(bool Always, bool Never) {
  if (Always)
    return BranchDecision::AlwaysTaken;
  if (Never)
    return BranchDecision::NeverTaken;
  return BranchDecision::Unknown;
}

} // namespace

BranchDecision MethodValueFacts::decideBranch(const Instruction &I,
                                              const FrameState &Before) {
  if (!Before.Reachable || Before.Stack.empty())
    return BranchDecision::Unknown;
  switch (I.Op) {
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe: {
    CondRange V = condRange(Before.Stack.back());
    switch (I.Op) {
    case Opcode::IfEq:
      return fromBools(V.Lo == 0 && V.Hi == 0, V.Lo > 0 || V.Hi < 0);
    case Opcode::IfNe:
      return fromBools(V.Lo > 0 || V.Hi < 0, V.Lo == 0 && V.Hi == 0);
    case Opcode::IfLt:
      return fromBools(V.Hi < 0, V.Lo >= 0);
    case Opcode::IfGe:
      return fromBools(V.Lo >= 0, V.Hi < 0);
    case Opcode::IfGt:
      return fromBools(V.Lo > 0, V.Hi <= 0);
    case Opcode::IfLe:
      return fromBools(V.Hi <= 0, V.Lo > 0);
    default:
      return BranchDecision::Unknown;
    }
  }
  case Opcode::IfIcmpEq:
  case Opcode::IfIcmpNe:
  case Opcode::IfIcmpLt:
  case Opcode::IfIcmpGe:
  case Opcode::IfIcmpGt:
  case Opcode::IfIcmpLe: {
    if (Before.Stack.size() < 2)
      return BranchDecision::Unknown;
    // Stack is [... A B]; the comparison is A <op> B.
    CondRange A = condRange(Before.Stack[Before.Stack.size() - 2]);
    CondRange B = condRange(Before.Stack.back());
    bool Disjoint = A.Hi < B.Lo || B.Hi < A.Lo;
    bool BothSameConst = A.Lo == A.Hi && B.Lo == B.Hi && A.Lo == B.Lo;
    switch (I.Op) {
    case Opcode::IfIcmpEq:
      return fromBools(BothSameConst, Disjoint);
    case Opcode::IfIcmpNe:
      return fromBools(Disjoint, BothSameConst);
    case Opcode::IfIcmpLt:
      return fromBools(A.Hi < B.Lo, A.Lo >= B.Hi);
    case Opcode::IfIcmpGe:
      return fromBools(A.Lo >= B.Hi, A.Hi < B.Lo);
    case Opcode::IfIcmpGt:
      return fromBools(A.Lo > B.Hi, A.Hi <= B.Lo);
    case Opcode::IfIcmpLe:
      return fromBools(A.Hi <= B.Lo, A.Lo > B.Hi);
    default:
      return BranchDecision::Unknown;
    }
  }
  default:
    return BranchDecision::Unknown;
  }
}

std::optional<std::vector<uint32_t>>
MethodValueFacts::feasibleSwitchTargets(const Method &Fn, uint32_t Pc,
                                        const FrameState &Before) {
  if (!Before.Reachable || Before.Stack.empty())
    return std::nullopt;
  const Instruction &I = Fn.Code[Pc];
  assert(I.Op == Opcode::Tableswitch);
  const AbstractValue &Sel = Before.Stack.back();
  if (!Sel.isInt())
    return std::nullopt;
  const SwitchTable &T = Fn.SwitchTables[static_cast<uint32_t>(I.A)];
  const int64_t TableLen = static_cast<int64_t>(T.Targets.size());
  // Only enumerate usefully small selector ranges. Width is computed in
  // unsigned arithmetic: Hi - Lo overflows int64 for wide intervals.
  constexpr uint64_t MaxEnum = 1024;
  if (Sel.Hi < Sel.Lo ||
      static_cast<uint64_t>(Sel.Hi) - static_cast<uint64_t>(Sel.Lo) > MaxEnum)
    return std::nullopt;
  std::vector<uint32_t> Out;
  auto add = [&](uint32_t Target) {
    for (uint32_t O : Out)
      if (O == Target)
        return;
    Out.push_back(Target);
  };
  for (int64_t S = Sel.Lo; S <= Sel.Hi; ++S) {
    int64_t Off = S - T.Low;
    if (Off >= 0 && Off < TableLen)
      add(T.Targets[static_cast<uint32_t>(Off)]);
    else
      add(T.DefaultTarget);
  }
  return Out;
}

void MethodValueFacts::stepInstruction(const Module &M, const Method &Fn,
                                       uint32_t Pc, FrameState &S) {
  if (!S.Reachable)
    return;
  const Instruction &I = Fn.Code[Pc];
  auto pop = [&]() {
    assert(!S.Stack.empty() && "stack underflow; height-verify first");
    AbstractValue V = S.Stack.back();
    S.Stack.pop_back();
    return V;
  };
  auto push = [&](const AbstractValue &V) { S.Stack.push_back(V); };
  // A provable trap abandons the frame: no state flows onward.
  auto traps = [&]() {
    S.Reachable = false;
    S.Stack.clear();
  };

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::Iconst:
    push(AbstractValue::intConst(I.A));
    break;
  case Opcode::Iload:
    push(S.Locals[static_cast<uint32_t>(I.A)]);
    break;
  case Opcode::Istore:
    S.Locals[static_cast<uint32_t>(I.A)] = pop();
    break;
  case Opcode::Iinc: {
    AbstractValue &L = S.Locals[static_cast<uint32_t>(I.A)];
    int64_t V = 0;
    if (L.isConst() && evalBinary(Opcode::Iadd, L.Lo, I.B, V))
      L = AbstractValue::intConst(V);
    else if (L.isInt())
      L = rangeAdd(L, AbstractValue::intConst(I.B));
    else
      L = AbstractValue::top();
    break;
  }
  case Opcode::Pop:
    pop();
    break;
  case Opcode::Dup: {
    AbstractValue V = pop();
    push(V);
    push(V);
    break;
  }
  case Opcode::Swap: {
    AbstractValue B = pop(), A = pop();
    push(B);
    push(A);
    break;
  }
  case Opcode::Iadd:
  case Opcode::Isub:
  case Opcode::Imul:
  case Opcode::Idiv:
  case Opcode::Irem:
  case Opcode::Ishl:
  case Opcode::Ishr:
  case Opcode::Iushr:
  case Opcode::Iand:
  case Opcode::Ior:
  case Opcode::Ixor: {
    AbstractValue B = pop(), A = pop();
    if (opClass(I.Op) == OpClass::DivRem && B.isZero()) {
      traps();
      break;
    }
    int64_t V = 0;
    if (A.isConst() && B.isConst() && evalBinary(I.Op, A.Lo, B.Lo, V))
      push(AbstractValue::intConst(V));
    else
      push(rangeBinary(I.Op, A, B));
    break;
  }
  case Opcode::Ineg: {
    AbstractValue A = pop();
    if (A.isConst())
      push(AbstractValue::intConst(evalNeg(A.Lo)));
    else if (A.isInt() && A.Lo != AbstractValue::MinInt)
      push(AbstractValue::intRange(-A.Hi, -A.Lo));
    else
      push(AbstractValue::intAny());
    break;
  }
  case Opcode::Goto:
    break;
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
    pop();
    break;
  case Opcode::IfIcmpEq:
  case Opcode::IfIcmpNe:
  case Opcode::IfIcmpLt:
  case Opcode::IfIcmpGe:
  case Opcode::IfIcmpGt:
  case Opcode::IfIcmpLe:
    pop();
    pop();
    break;
  case Opcode::Tableswitch:
    pop();
    break;
  case Opcode::InvokeStatic: {
    const Method &Callee = M.Methods[static_cast<uint32_t>(I.A)];
    for (uint32_t K = 0; K < Callee.NumArgs; ++K)
      pop();
    if (Callee.ReturnsValue)
      push(Callee.RetType == TypeTag::Ref ? AbstractValue::anyRef()
                                          : AbstractValue::intAny());
    break;
  }
  case Opcode::InvokeVirtual: {
    const SlotInfo &Slot = M.Slots[static_cast<uint32_t>(I.A)];
    AbstractValue Recv =
        S.Stack.size() >= Slot.ArgCount
            ? S.Stack[S.Stack.size() - Slot.ArgCount]
            : AbstractValue::top();
    for (uint32_t K = 0; K < Slot.ArgCount; ++K)
      pop();
    if (Recv.isZero()) {
      traps(); // Provable null receiver.
      break;
    }
    if (Slot.ReturnsValue)
      push(Slot.RetType == TypeTag::Ref ? AbstractValue::anyRef()
                                        : AbstractValue::intAny());
    break;
  }
  case Opcode::Return:
    break;
  case Opcode::Ireturn:
    pop();
    break;
  case Opcode::New:
    push(AbstractValue::objectRef(static_cast<uint32_t>(I.A)));
    break;
  case Opcode::GetField: {
    AbstractValue Recv = pop();
    if (Recv.isZero()) {
      traps();
      break;
    }
    push(AbstractValue::top());
    break;
  }
  case Opcode::PutField: {
    pop(); // value
    AbstractValue Recv = pop();
    if (Recv.isZero())
      traps();
    break;
  }
  case Opcode::NewArray: {
    AbstractValue Len = pop();
    if (Len.isInt() && Len.Hi < 0) {
      traps(); // Provably negative length.
      break;
    }
    push(AbstractValue::arrayRef());
    break;
  }
  case Opcode::Iaload: {
    pop(); // index
    AbstractValue Recv = pop();
    if (Recv.isZero()) {
      traps();
      break;
    }
    push(AbstractValue::top());
    break;
  }
  case Opcode::Iastore: {
    pop(); // value
    pop(); // index
    AbstractValue Recv = pop();
    if (Recv.isZero())
      traps();
    break;
  }
  case Opcode::ArrayLength: {
    AbstractValue Recv = pop();
    if (Recv.isZero()) {
      traps();
      break;
    }
    push(AbstractValue::intRange(0, AbstractValue::MaxInt));
    break;
  }
  case Opcode::Iprint:
    pop();
    break;
  case Opcode::Halt:
    break;
  }
}

namespace {

/// Solver adapter: forward problem over FrameState with constant-aware
/// edge pruning at branches and switches.
class ValueProblem {
public:
  using State = FrameState;
  static constexpr bool Forward = true;

  explicit ValueProblem(const MethodCfg &Cfg) : Cfg(Cfg) {
    LastDecision.assign(Cfg.numBlocks(), BranchDecision::Unknown);
    LastFeasible.assign(Cfg.numBlocks(), std::nullopt);
  }

  State boundary() const {
    const Method &Fn = Cfg.method();
    State S;
    S.Reachable = true;
    S.Locals.resize(Fn.NumLocals);
    for (uint32_t L = 0; L < Fn.NumLocals; ++L)
      S.Locals[L] = L < Fn.NumArgs ? AbstractValue::top()
                                   : AbstractValue::intConst(0);
    return S;
  }

  State initial() const { return State{}; }

  void transfer(uint32_t Block, State &S) {
    const CfgBlock &B = Cfg.block(Block);
    const Method &Fn = Cfg.method();
    LastDecision[Block] = BranchDecision::Unknown;
    LastFeasible[Block] = std::nullopt;
    for (uint32_t Pc = B.Start; Pc < B.End && S.Reachable; ++Pc) {
      const Instruction &I = Fn.Code[Pc];
      if (Pc + 1 == B.End) {
        if (opKind(I.Op) == OpKind::Branch)
          LastDecision[Block] = MethodValueFacts::decideBranch(I, S);
        else if (opKind(I.Op) == OpKind::Switch)
          LastFeasible[Block] =
              MethodValueFacts::feasibleSwitchTargets(Fn, Pc, S);
      }
      MethodValueFacts::stepInstruction(Cfg.module(), Fn, Pc, S);
    }
  }

  bool join(State &Into, const State &From, bool Widen) {
    if (!From.Reachable)
      return false;
    if (!Into.Reachable) {
      Into = From;
      return true;
    }
    bool Changed = false;
    assert(Into.Locals.size() == From.Locals.size());
    for (uint32_t L = 0; L < Into.Locals.size(); ++L)
      Changed |= Into.Locals[L].join(From.Locals[L], Widen);
    // Stack heights agree at merge points for height-verified methods.
    assert(Into.Stack.size() == From.Stack.size());
    uint32_t H = static_cast<uint32_t>(
        std::min(Into.Stack.size(), From.Stack.size()));
    for (uint32_t D = 0; D < H; ++D)
      Changed |= Into.Stack[D].join(From.Stack[D], Widen);
    return Changed;
  }

  std::optional<State> edgeState(uint32_t From, uint32_t To, const State &S) {
    if (!S.Reachable)
      return std::nullopt;
    const CfgBlock &FromBlk = Cfg.block(From);
    const Method &Fn = Cfg.method();
    const Instruction &Last = Fn.Code[FromBlk.End - 1];
    uint32_t ToPc = Cfg.block(To).Start;
    if (opKind(Last.Op) == OpKind::Branch) {
      uint32_t TakenPc = static_cast<uint32_t>(Last.A);
      uint32_t FallPc = FromBlk.End;
      if (TakenPc != FallPc) {
        if (LastDecision[From] == BranchDecision::AlwaysTaken && ToPc == FallPc)
          return std::nullopt;
        if (LastDecision[From] == BranchDecision::NeverTaken && ToPc == TakenPc)
          return std::nullopt;
      }
    } else if (opKind(Last.Op) == OpKind::Switch && LastFeasible[From]) {
      const std::vector<uint32_t> &Feasible = *LastFeasible[From];
      bool Found = false;
      for (uint32_t Pc : Feasible)
        Found |= (Pc == ToPc);
      if (!Found)
        return std::nullopt;
    }
    return S;
  }

private:
  const MethodCfg &Cfg;
  std::vector<BranchDecision> LastDecision;
  std::vector<std::optional<std::vector<uint32_t>>> LastFeasible;
};

} // namespace

MethodValueFacts MethodValueFacts::compute(const MethodCfg &Cfg,
                                           std::pmr::memory_resource *Mem) {
  MethodValueFacts Facts(Cfg, Mem);
  ValueProblem P(Cfg);
  std::vector<FrameState> In = solve(Cfg, P);
  size_t NumValues = 0;
  for (const FrameState &S : In)
    NumValues += S.Locals.size() + S.Stack.size();
  Facts.Entry.reserve(In.size());
  Facts.EntryValues.reserve(NumValues);
  for (const FrameState &S : In) {
    assert((!S.Reachable && S.Locals.empty() && S.Stack.empty()) ||
           S.Locals.size() == Cfg.method().NumLocals);
    Facts.Entry.push_back({static_cast<uint32_t>(Facts.EntryValues.size()),
                           static_cast<uint32_t>(S.Stack.size()),
                           S.Reachable});
    Facts.EntryValues.insert(Facts.EntryValues.end(), S.Locals.begin(),
                             S.Locals.end());
    Facts.EntryValues.insert(Facts.EntryValues.end(), S.Stack.begin(),
                             S.Stack.end());
  }
  Facts.Decisions.assign(Cfg.method().Code.size(), BranchDecision::Unknown);

  // Record per-branch decisions from the fixpoint states.
  const Method &Fn = Cfg.method();
  for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
    Facts.forEachInstruction(B, [&](uint32_t Pc, const FrameState &Before) {
      const Instruction &I = Fn.Code[Pc];
      if (opKind(I.Op) == OpKind::Branch) {
        Facts.Decisions[Pc] = decideBranch(I, Before);
      } else if (opKind(I.Op) == OpKind::Switch) {
        std::optional<std::vector<uint32_t>> Feasible =
            feasibleSwitchTargets(Fn, Pc, Before);
        if (Feasible && Feasible->size() == 1)
          Facts.Decisions[Pc] = BranchDecision::AlwaysTaken;
      }
    });
  }
  return Facts;
}

FrameState MethodValueFacts::blockEntry(uint32_t Block) const {
  const PackedState &P = Entry[Block];
  FrameState S;
  S.Reachable = P.Reachable;
  if (!P.Reachable)
    return S;
  const AbstractValue *Locals = EntryValues.data() + P.First;
  const AbstractValue *Stack = Locals + Cfg->method().NumLocals;
  S.Locals.assign(Locals, Stack);
  S.Stack.assign(Stack, Stack + P.StackHeight);
  return S;
}

FrameState MethodValueFacts::stateBefore(uint32_t Pc) const {
  uint32_t B = Cfg->blockAt(Pc);
  FrameState S = blockEntry(B);
  if (!S.Reachable)
    return S;
  for (uint32_t P = Cfg->block(B).Start; P < Pc && S.Reachable; ++P)
    stepInstruction(Cfg->module(), Cfg->method(), P, S);
  return S;
}

} // namespace analysis
} // namespace jtc
