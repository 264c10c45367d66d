//===- fuzz/ProgramGen.cpp ------------------------------------------------===//

#include "fuzz/ProgramGen.h"

#include <algorithm>
#include <string>

using namespace jtc;
using namespace jtc::fuzz;

const char *jtc::fuzz::stmtKindName(StmtKind K) {
  switch (K) {
  case StmtKind::Arith:
    return "arith";
  case StmtKind::Print:
    return "print";
  case StmtKind::Shuffle:
    return "shuffle";
  case StmtKind::If:
    return "if";
  case StmtKind::Call:
    return "call";
  case StmtKind::Loop:
    return "loop";
  case StmtKind::Switch:
    return "switch";
  case StmtKind::VirtualCall:
    return "virtual-call";
  case StmtKind::FieldOp:
    return "field-op";
  case StmtKind::ArrayOp:
    return "array-op";
  case StmtKind::TrapOp:
    return "trap-op";
  }
  return "unknown";
}

Module RandomProgramBuilder::build() {
  Assembler Asm;
  const GenFeatures &F = Config.Features;

  // Shared virtual-dispatch scaffolding: one slot, two classes with one
  // field each, and a leaf implementation per class. Declared before the
  // static methods so their ids never enter the acyclic-call method list.
  HaveClasses = F.VirtualCalls || F.Fields;
  if (HaveClasses) {
    Slot = Asm.declareSlot("val", /*ArgCount=*/1, /*ReturnsValue=*/true);
    ClassA = Asm.declareClass("A", /*NumFields=*/1);
    ClassB = Asm.declareClass("B", /*NumFields=*/1);
    uint32_t MA = Asm.declareMethod("A.val", 1, 1, /*ReturnsValue=*/true);
    {
      MethodBuilder B = Asm.beginMethod(MA);
      B.iload(0);
      B.getfield(0);
      B.iconst(static_cast<int32_t>(Rng.nextInRange(1, 16)));
      B.emit(Opcode::Iadd);
      B.iret();
      B.finish();
    }
    uint32_t MB = Asm.declareMethod("B.val", 1, 1, /*ReturnsValue=*/true);
    {
      MethodBuilder B = Asm.beginMethod(MB);
      B.iload(0);
      B.getfield(0);
      B.iconst(static_cast<int32_t>(Rng.nextInRange(2, 5)));
      B.emit(Opcode::Imul);
      B.iret();
      B.finish();
    }
    Asm.setVtableEntry(ClassA, Slot, MA);
    Asm.setVtableEntry(ClassB, Slot, MB);
  }

  unsigned NumMethods =
      Config.MinMethods +
      static_cast<unsigned>(
          Rng.nextBelow(Config.MaxMethods - Config.MinMethods + 1));
  std::vector<uint32_t> Methods;
  // Declare all statically callable methods first: method I may only call
  // methods > I, so the call graph is acyclic and every run terminates.
  for (unsigned I = 0; I < NumMethods; ++I) {
    uint32_t NumArgs =
        I == 0 ? 0 : 1 + static_cast<uint32_t>(Rng.nextBelow(2));
    // Reserved tail locals: the loop counter always, plus an object and
    // an array local when those features are on.
    uint32_t Reserved = 1 + (HaveClasses ? 1 : 0) + (F.Arrays ? 1 : 0);
    uint32_t NumLocals =
        NumArgs + 2 + Reserved + static_cast<uint32_t>(Rng.nextBelow(3));
    Args.push_back(NumArgs);
    Locals.push_back(NumLocals);
    ObjLocal.push_back(HaveClasses ? NumLocals - 2 : NoLocal);
    ArrLocal.push_back(F.Arrays ? NumLocals - 2 - (HaveClasses ? 1 : 0)
                                : NoLocal);
    ArrLen.push_back(1 + static_cast<int32_t>(Rng.nextBelow(8)));
    Methods.push_back(Asm.declareMethod("m" + std::to_string(I), NumArgs,
                                        NumLocals, /*ReturnsValue=*/I != 0));
  }
  // The recursion's method, declared after the acyclic ones. A deep one
  // keeps few locals: its 2000-odd frames are there for the frame
  // budget, and many locals each would make every run allocate
  // megabytes.
  uint32_t Rec = InvalidMethod, RecLocals = 0;
  bool RecDeep = false;
  if (F.Loops && F.Calls && RecRng.chancePercent(25)) {
    RecDeep = F.Traps && RecRng.chancePercent(33);
    RecLocals = RecDeep ? 3 + static_cast<uint32_t>(RecRng.nextBelow(4))
                        : 8 + static_cast<uint32_t>(RecRng.nextBelow(57));
    Rec = Asm.declareMethod("rec", /*NumArgs=*/1, RecLocals,
                            /*ReturnsValue=*/true);
  }

  for (unsigned I = 0; I < NumMethods; ++I) {
    MethodBuilder B = Asm.beginMethod(Methods[I]);
    // Prologue: initialize the reserved object and array locals so every
    // later FieldOp/VirtualCall/ArrayOp statement has a live receiver.
    if (ObjLocal[I] != NoLocal) {
      B.newobj(Rng.chancePercent(50) ? ClassA : ClassB);
      B.emit(Opcode::Dup);
      B.iconst(static_cast<int32_t>(Rng.nextInRange(-8, 8)));
      B.putfield(0);
      B.istore(ObjLocal[I]);
    }
    if (ArrLocal[I] != NoLocal) {
      B.iconst(ArrLen[I]);
      B.emit(Opcode::NewArray);
      B.istore(ArrLocal[I]);
    }
    unsigned Statements =
        Config.MinStatements +
        static_cast<unsigned>(
            Rng.nextBelow(Config.MaxStatements - Config.MinStatements + 1));
    for (unsigned S = 0; S < Statements; ++S)
      emitStatement(B, Methods, I, /*Depth=*/0, /*InLoop=*/false);
    if (I == 0) {
      if (Rec != InvalidMethod)
        emitRecursionLoop(B, Rec, RecDeep);
      if (F.Loops && F.Switches && ShapeRng.chancePercent(50))
        emitPhaseLoop(B, I);
      B.iload(0);
      B.emit(Opcode::Iprint);
      B.halt();
    } else {
      B.iload(0);
      B.iret();
    }
    B.finish();
  }
  if (Rec != InvalidMethod) {
    MethodBuilder B = Asm.beginMethod(Rec);
    emitRecursiveMethod(B, Rec, RecLocals);
    B.finish();
  }
  Asm.setEntry(Methods[0]);
  return Asm.build();
}

void RandomProgramBuilder::emitExpr(MethodBuilder &B, unsigned Self) {
  // Push one integer value: a constant or an integer-typed local. The
  // reserved object/array locals hold references and never feed
  // arithmetic -- the typed verifier rejects reference/integer confusion,
  // so generated programs stay verified-by-construction.
  if (Rng.chancePercent(40)) {
    B.iconst(static_cast<int32_t>(Rng.nextInRange(-100, 100)));
    return;
  }
  // Integer locals are [0, RefBase) plus the loop counter (the last
  // local); the reference band sits between them.
  uint32_t RefBase = Locals[Self] - 1;
  if (ObjLocal[Self] != NoLocal)
    RefBase = std::min(RefBase, ObjLocal[Self]);
  if (ArrLocal[Self] != NoLocal)
    RefBase = std::min(RefBase, ArrLocal[Self]);
  uint32_t Pick = static_cast<uint32_t>(Rng.nextBelow(RefBase + 1));
  B.iload(Pick == RefBase ? Locals[Self] - 1 : Pick);
}

uint32_t RandomProgramBuilder::storeTarget(unsigned Self) {
  // Reserved tail locals (loop counter, object, array) are never stored
  // to; the counter's immutability is what guarantees loop termination.
  uint32_t Reserved =
      1 + (ObjLocal[Self] != NoLocal ? 1 : 0) + (ArrLocal[Self] != NoLocal ? 1 : 0);
  return static_cast<uint32_t>(Rng.nextBelow(Locals[Self] - Reserved));
}

StmtKind RandomProgramBuilder::chooseKind(
    const std::vector<StmtKind> &Eligible) {
  // Coverage direction: weight each eligible kind by the inverse of how
  // often it has been emitted (campaign-wide when a shared histogram is
  // attached), so rarely exercised constructs are drawn more often.
  double Total = 0;
  std::array<double, NumStmtKinds> W{};
  for (StmtKind K : Eligible) {
    uint64_t Seen = Local.count(K) + (Shared ? Shared->count(K) : 0);
    double Weight = 1.0 / (1.0 + static_cast<double>(Seen));
    W[static_cast<unsigned>(K)] = Weight;
    Total += Weight;
  }
  double Draw = Rng.nextUnit() * Total;
  for (StmtKind K : Eligible) {
    Draw -= W[static_cast<unsigned>(K)];
    if (Draw <= 0)
      return K;
  }
  return Eligible.back();
}

void RandomProgramBuilder::emitStatement(MethodBuilder &B,
                                         const std::vector<uint32_t> &Methods,
                                         unsigned Self, unsigned Depth,
                                         bool InLoop) {
  const GenFeatures &F = Config.Features;

  // Calls and loops are only emitted outside loop bodies, which bounds
  // every run: per-method work is constant and the call graph is acyclic
  // with a statically bounded number of call sites. Nesting of control
  // statements is capped at depth 2.
  std::vector<StmtKind> Eligible = {StmtKind::Arith, StmtKind::Print,
                                    StmtKind::Shuffle};
  if (Depth < 2) {
    Eligible.push_back(StmtKind::If);
    if (F.Switches)
      Eligible.push_back(StmtKind::Switch);
  }
  if (!InLoop) {
    if (F.Calls && Self + 1 < Methods.size())
      Eligible.push_back(StmtKind::Call);
    if (F.Loops && Depth < 2)
      Eligible.push_back(StmtKind::Loop);
  }
  if (F.VirtualCalls && ObjLocal[Self] != NoLocal)
    Eligible.push_back(StmtKind::VirtualCall);
  if (F.Fields && ObjLocal[Self] != NoLocal)
    Eligible.push_back(StmtKind::FieldOp);
  if (F.Arrays && ArrLocal[Self] != NoLocal)
    Eligible.push_back(StmtKind::ArrayOp);
  if (F.Traps)
    Eligible.push_back(StmtKind::TrapOp);

  StmtKind Kind = chooseKind(Eligible);
  ++Local.Counts[static_cast<unsigned>(Kind)];
  if (Shared)
    ++Shared->Counts[static_cast<unsigned>(Kind)];

  switch (Kind) {
  case StmtKind::Arith: {
    emitExpr(B, Self);
    emitExpr(B, Self);
    static const Opcode Ops[] = {Opcode::Iadd, Opcode::Isub, Opcode::Imul,
                                 Opcode::Iand, Opcode::Ior,  Opcode::Ixor};
    B.emit(Ops[Rng.nextBelow(6)]);
    B.istore(storeTarget(Self));
    break;
  }
  case StmtKind::Print:
    emitExpr(B, Self);
    B.emit(Opcode::Iprint);
    break;
  case StmtKind::Shuffle: {
    emitExpr(B, Self);
    emitExpr(B, Self);
    B.emit(Opcode::Swap);
    B.emit(Opcode::Dup);
    B.emit(Opcode::Pop);
    B.emit(Opcode::Isub);
    B.istore(storeTarget(Self));
    break;
  }
  case StmtKind::If: {
    Label Else = B.newLabel(), Join = B.newLabel();
    emitExpr(B, Self);
    static const Opcode Branches[] = {Opcode::IfEq, Opcode::IfNe,
                                      Opcode::IfLt, Opcode::IfGe};
    B.branch(Branches[Rng.nextBelow(4)], Else);
    emitStatement(B, Methods, Self, Depth + 1, InLoop);
    B.branch(Opcode::Goto, Join);
    B.bind(Else);
    emitStatement(B, Methods, Self, Depth + 1, InLoop);
    B.bind(Join);
    break;
  }
  case StmtKind::Call: {
    auto Callee = Self + 1 + static_cast<unsigned>(
                                 Rng.nextBelow(Methods.size() - Self - 1));
    for (uint32_t A = 0; A < Args[Callee]; ++A)
      emitExpr(B, Self);
    B.invokestatic(Methods[Callee]);
    B.istore(storeTarget(Self));
    break;
  }
  case StmtKind::Loop: {
    uint32_t Counter = Locals[Self] - 1;
    auto Bound = static_cast<int32_t>(
        2 + Rng.nextBelow(static_cast<uint64_t>(Config.MaxLoopBound) - 1));
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(0);
    B.istore(Counter);
    B.bind(Loop);
    B.iload(Counter);
    B.iconst(Bound);
    B.branch(Opcode::IfIcmpGe, Done);
    emitStatement(B, Methods, Self, Depth + 1, /*InLoop=*/true);
    B.iinc(Counter, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    break;
  }
  case StmtKind::Switch: {
    // Mask the selector into [0, 3] so cases are actually reachable;
    // Iand with a non-negative constant is total on negative inputs too.
    unsigned NumCases = 2 + static_cast<unsigned>(Rng.nextBelow(3));
    std::vector<Label> Cases;
    for (unsigned C = 0; C < NumCases; ++C)
      Cases.push_back(B.newLabel());
    Label Def = B.newLabel(), Join = B.newLabel();
    emitExpr(B, Self);
    B.iconst(3);
    B.emit(Opcode::Iand);
    B.tableswitch(0, Cases, Def);
    for (unsigned C = 0; C < NumCases; ++C) {
      B.bind(Cases[C]);
      emitStatement(B, Methods, Self, Depth + 1, InLoop);
      B.branch(Opcode::Goto, Join);
    }
    B.bind(Def);
    emitStatement(B, Methods, Self, Depth + 1, InLoop);
    B.bind(Join);
    break;
  }
  case StmtKind::VirtualCall:
    B.iload(ObjLocal[Self]);
    B.invokevirtual(Slot);
    B.istore(storeTarget(Self));
    break;
  case StmtKind::FieldOp:
    if (Rng.chancePercent(50)) {
      B.iload(ObjLocal[Self]);
      emitExpr(B, Self);
      B.putfield(0);
    } else {
      B.iload(ObjLocal[Self]);
      B.getfield(0);
      B.istore(storeTarget(Self));
    }
    break;
  case StmtKind::ArrayOp: {
    auto Idx = static_cast<int32_t>(Rng.nextBelow(ArrLen[Self]));
    if (Rng.chancePercent(50)) {
      B.iload(ArrLocal[Self]);
      B.iconst(Idx);
      emitExpr(B, Self);
      B.emit(Opcode::Iastore);
    } else {
      B.iload(ArrLocal[Self]);
      B.iconst(Idx);
      B.emit(Opcode::Iaload);
      B.istore(storeTarget(Self));
    }
    break;
  }
  case StmtKind::TrapOp: {
    // Deliberately partial operations; whether a trap actually fires
    // depends on the values that flow here.
    unsigned Variants = 1 + (ArrLocal[Self] != NoLocal ? 1 : 0) +
                        (HaveClasses ? 1 : 0);
    uint64_t Pick = Rng.nextBelow(Variants);
    if (Pick == 0) {
      emitExpr(B, Self);
      emitExpr(B, Self);
      B.emit(Rng.chancePercent(50) ? Opcode::Idiv : Opcode::Irem);
      B.istore(storeTarget(Self));
    } else if (Pick == 1 && ArrLocal[Self] != NoLocal) {
      B.iload(ArrLocal[Self]);
      emitExpr(B, Self);
      B.emit(Opcode::Iaload);
      B.istore(storeTarget(Self));
    } else {
      // Nullable receiver: a runtime condition picks between null and the
      // live object local, so the typed verifier sees a *nullable*
      // reference (accepted) while the trap still fires whenever the
      // condition selects the null arm. The condition must not be
      // constant-foldable or branch pruning would leave an always-null
      // receiver (rejected); the object's field value is opaque to the
      // analysis.
      Label NonNull = B.newLabel(), Merge = B.newLabel();
      B.iload(ObjLocal[Self]);
      B.getfield(0);
      B.branch(Opcode::IfNe, NonNull);
      B.iconst(0); // the null reference
      B.branch(Opcode::Goto, Merge);
      B.bind(NonNull);
      B.iload(ObjLocal[Self]);
      B.bind(Merge);
      B.getfield(0);
      B.istore(storeTarget(Self));
    }
    break;
  }
  }
}

void RandomProgramBuilder::emitPhaseLoop(MethodBuilder &B, unsigned Self) {
  // The switch selector is the loop's phase, (i >> Shift) & 3, so the case
  // a trace recorded stops being taken every 2^Shift iterations; each case
  // prints its own constant, so native code that misses the switch's side
  // exit prints the wrong one.
  uint32_t Counter = Locals[Self] - 1;
  auto Trip = static_cast<int32_t>(96 + ShapeRng.nextBelow(161));
  auto Shift = static_cast<int32_t>(3 + ShapeRng.nextBelow(3));
  auto Mark = static_cast<int32_t>(ShapeRng.nextInRange(1, 99)) * 10;
  unsigned NumCases = 2 + static_cast<unsigned>(ShapeRng.nextBelow(3));
  std::vector<Label> Cases;
  for (unsigned C = 0; C < NumCases; ++C)
    Cases.push_back(B.newLabel());
  Label Loop = B.newLabel(), Done = B.newLabel(), Def = B.newLabel(),
        Join = B.newLabel();
  B.iconst(0);
  B.istore(Counter);
  B.bind(Loop);
  B.iload(Counter);
  B.iconst(Trip);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(Counter);
  B.iconst(Shift);
  B.emit(Opcode::Ishr);
  B.iconst(3);
  B.emit(Opcode::Iand);
  B.tableswitch(0, Cases, Def);
  for (unsigned C = 0; C < NumCases; ++C) {
    B.bind(Cases[C]);
    B.iconst(Mark + static_cast<int32_t>(C));
    B.emit(Opcode::Iprint);
    B.branch(Opcode::Goto, Join);
  }
  B.bind(Def);
  B.iconst(Mark + 9);
  B.emit(Opcode::Iprint);
  B.bind(Join);
  if (ArrLocal[Self] != NoLocal) {
    // The array index is i >> IdxShift. Without traps IdxShift keeps it in
    // bounds for the whole loop. With traps, every other loop takes the
    // IdxShift at which the index reaches the length in the loop's second
    // half, so the bounds check that fires there has passed on every
    // iteration before.
    const int32_t Len = ArrLen[Self];
    int32_t IdxShift = 0;
    if (Config.Features.Traps && ShapeRng.chancePercent(50)) {
      while ((Len << (IdxShift + 1)) <= Trip - 1)
        ++IdxShift;
    } else {
      while (((Trip - 1) >> IdxShift) >= Len)
        ++IdxShift;
    }
    B.iload(ArrLocal[Self]);
    B.iload(Counter);
    B.iconst(IdxShift);
    B.emit(Opcode::Ishr);
    if (ShapeRng.chancePercent(50)) {
      B.iload(Counter);
      B.emit(Opcode::Iastore);
    } else {
      B.emit(Opcode::Iaload);
      B.emit(Opcode::Iprint);
    }
  }
  B.iinc(Counter, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
}

void RandomProgramBuilder::emitRecursiveMethod(MethodBuilder &B, uint32_t Rec,
                                               uint32_t NumLocals) {
  // rec(n) = n <= 0 ? Z : (K := n) + rec(n - 1) + Z, where Z is a local
  // nothing writes: it reads 0 only if every push zeroed the callee's
  // locals, and K reads n back only if no deeper frame overwrote it. The
  // value of K stays on the operand stack across the call, so the stack
  // grows with the depth as the locals do.
  auto Zero = static_cast<uint32_t>(1 + RecRng.nextBelow(NumLocals - 1));
  auto Kept = static_cast<uint32_t>(1 + RecRng.nextBelow(NumLocals - 2));
  if (Kept >= Zero)
    ++Kept;
  Label Deeper = B.newLabel();
  B.iload(0);
  B.branch(Opcode::IfGt, Deeper);
  B.iload(Zero);
  B.iret();
  B.bind(Deeper);
  B.iload(0);
  B.istore(Kept);
  B.iload(Kept);
  B.iload(0);
  B.iconst(1);
  B.emit(Opcode::Isub);
  B.invokestatic(Rec);
  B.emit(Opcode::Iadd);
  B.iload(Zero);
  B.emit(Opcode::Iadd);
  B.iret();
}

void RandomProgramBuilder::emitRecursionLoop(MethodBuilder &B, uint32_t Rec,
                                             bool Deep) {
  // Iteration i recurses Start + i * Step deep and prints the sum. A run
  // holds the entry frame plus depth + 1 frames of rec, so past depth
  // 2046 the budget of 2048 frames is spent: a deep loop starts so that
  // happens in its third iteration, after two descents of some 2000
  // calls have promoted its traces.
  uint32_t Counter = Locals[0] - 1;
  auto Trip = static_cast<int32_t>(8 + RecRng.nextBelow(17));
  auto Step = static_cast<int32_t>(1 + RecRng.nextBelow(8));
  auto Start = static_cast<int32_t>(RecRng.nextBelow(33));
  if (Deep)
    Start = 2047 - 2 * Step +
            static_cast<int32_t>(RecRng.nextBelow(static_cast<uint64_t>(Step)));
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(0);
  B.istore(Counter);
  B.bind(Loop);
  B.iload(Counter);
  B.iconst(Trip);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(Counter);
  B.iconst(Step);
  B.emit(Opcode::Imul);
  B.iconst(Start);
  B.emit(Opcode::Iadd);
  B.invokestatic(Rec);
  B.emit(Opcode::Iprint);
  B.iinc(Counter, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
}
