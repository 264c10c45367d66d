//===- interp/BlockStepper.cpp - The block executor -----------------------===//
//
// The one fast execution core: step() runs a whole block of the module's
// pre-decoded code (PreparedModule::code) through direct-threaded
// handlers, one per SlotOp, each ending in its own dispatch. The operand
// stack top and the locals base live in registers for the whole block;
// the Machine's arenas are the only execution state, published back at
// every block exit. Opcode semantics here mirror Machine::execOne, the
// reference definition the differential tests compare against.
//
//===----------------------------------------------------------------------===//

#include "interp/BlockStepper.h"

#include <limits>

using namespace jtc;

static_assert(static_cast<unsigned>(SlotOp::FallThrough) == numOpcodes(),
              "SlotOp must extend Opcode value for value");

BlockStepper::BlockStepper(const PreparedModule &PM, Machine &Mach)
    : PM(&PM), Mach(&Mach) {}

void BlockStepper::start() {
  Mach->start(PM->module().EntryMethod);
  Cur = PM->entryBlock();
  Instructions = 0;
}

/// Dynamic checks an elided heap access skips: the liveness/class check
/// always, plus the bounds check when Kind is Full (ArrayLength has no
/// bounds check to begin with).
static uint64_t elisionWeight(SlotOp Op, uint8_t Kind) {
  return Kind == MemElision::Full && Op != SlotOp::ArrayLength ? 2 : 1;
}

/// The elision armed for heap access \p Op at \p Pc -- the next fact of
/// the span [\p EF, \p EEnd) when it names \p Pc -- or null. Consumes the
/// fact and counts the checks it skips, before the access can trap on a
/// kept bounds check.
static const MemElision *takeElision(const MemElision *&EF,
                                     const MemElision *EEnd, uint32_t Pc,
                                     SlotOp Op, uint64_t &ChecksElided) {
  if (EF == EEnd || EF->Pc != Pc)
    return nullptr;
  ChecksElided += elisionWeight(Op, EF->Kind);
  return EF++;
}

BlockStepper::StepStatus BlockStepper::step() {
  assert(Cur != InvalidBlockId && "step() before start() or after finish");
  const BasicBlock &BB = PM->block(Cur);
  Machine &Mc = *Mach;
  Heap &H = Mc.heap();

  // Every instruction pushes at most one value net, so a block can never
  // outgrow this reservation: the pointers below stay valid to the end of
  // the block (calls and returns only ever end one).
  Mc.reserveOperands(BB.numInstructions());
  int64_t *Sp = Mc.stackTop();
  int64_t *const Lp = Mc.localsBase();
  const CodeSlot *const First = PM->code() + BB.FirstSlot;
  const CodeSlot *S = First;
  // Counted up front; a trap gives back the instructions it skipped.
  Instructions += BB.numInstructions();

  // Consume the one-shot elision span armed for this block. EF == EEnd on
  // the vast majority of steps: one compare per heap access.
  const MemElision *EF = Elide;
  const MemElision *const EEnd = ElideEnd;
  Elide = ElideEnd = nullptr;
  auto Armed = [&] {
    return takeElision(EF, EEnd, BB.StartPc + static_cast<uint32_t>(S - First),
                       S->Op, ChecksElided);
  };

  // Block exits set one of these and jump to the matching label below, so
  // each exit sequence is written once, outside the handlers.
  BlockId Next;
  TrapKind Trap;
  uint32_t Callee;
  bool HasValue;
  auto Wrap = [](uint64_t V) { return static_cast<int64_t>(V); };

  // Direct-threaded dispatch: every handler ends in its own indirect jump
  // to the next slot's handler, so each one gets its own branch-predictor
  // entry instead of sharing a switch's single jump. The table is indexed
  // by SlotOp: every Opcode in Opcodes.def order, then FallThrough.
  static const void *const Handlers[] = {
#define JTC_OPCODE(Name, Mnemonic, Pops, Pushes, Kind) &&L_##Name,
#include "bytecode/Opcodes.def"
      &&L_FallThrough,
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) ==
                    static_cast<size_t>(SlotOp::FallThrough) + 1,
                "one handler per SlotOp");
#define JTC_DISPATCH() goto *Handlers[static_cast<uint8_t>(S->Op)]
#define JTC_NEXT()                                                             \
  do {                                                                         \
    ++S;                                                                       \
    JTC_DISPATCH();                                                            \
  } while (0)

  JTC_DISPATCH();

L_Nop:
  JTC_NEXT();
L_Iconst:
  *Sp++ = S->A;
  JTC_NEXT();
L_Iload:
  *Sp++ = Lp[S->A];
  JTC_NEXT();
L_Istore:
  Lp[S->A] = *--Sp;
  JTC_NEXT();
L_Iinc:
  Lp[S->X] = Wrap(static_cast<uint64_t>(Lp[S->X]) +
                  static_cast<uint64_t>(int64_t{S->A}));
  JTC_NEXT();
L_Pop:
  --Sp;
  JTC_NEXT();
L_Dup:
  *Sp = Sp[-1];
  ++Sp;
  JTC_NEXT();
L_Swap:
  std::swap(Sp[-1], Sp[-2]);
  JTC_NEXT();

L_Iadd:
  --Sp;
  Sp[-1] = Wrap(static_cast<uint64_t>(Sp[-1]) + static_cast<uint64_t>(*Sp));
  JTC_NEXT();
L_Isub:
  --Sp;
  Sp[-1] = Wrap(static_cast<uint64_t>(Sp[-1]) - static_cast<uint64_t>(*Sp));
  JTC_NEXT();
L_Imul:
  --Sp;
  Sp[-1] = Wrap(static_cast<uint64_t>(Sp[-1]) * static_cast<uint64_t>(*Sp));
  JTC_NEXT();
L_Idiv:
L_Irem: {
  int64_t B = *--Sp;
  int64_t A = Sp[-1];
  if (B == 0) {
    --Sp;
    Trap = TrapKind::DivideByZero;
    goto trapped;
  }
  // INT64_MIN / -1 is defined as (INT64_MIN, 0) instead of hardware UB.
  bool Div = S->Op == SlotOp::Idiv;
  if (A == std::numeric_limits<int64_t>::min() && B == -1)
    Sp[-1] = Div ? A : 0;
  else
    Sp[-1] = Div ? A / B : A % B;
  JTC_NEXT();
}
L_Ineg:
  Sp[-1] = Wrap(0 - static_cast<uint64_t>(Sp[-1]));
  JTC_NEXT();
L_Ishl:
  --Sp;
  Sp[-1] = Wrap(static_cast<uint64_t>(Sp[-1]) << (*Sp & 63));
  JTC_NEXT();
L_Ishr:
  --Sp;
  Sp[-1] >>= (*Sp & 63);
  JTC_NEXT();
L_Iushr:
  --Sp;
  Sp[-1] = Wrap(static_cast<uint64_t>(Sp[-1]) >> (*Sp & 63));
  JTC_NEXT();
L_Iand:
  --Sp;
  Sp[-1] &= *Sp;
  JTC_NEXT();
L_Ior:
  --Sp;
  Sp[-1] |= *Sp;
  JTC_NEXT();
L_Ixor:
  --Sp;
  Sp[-1] ^= *Sp;
  JTC_NEXT();

L_Goto:
  Next = BB.Taken;
  goto leave;
#define JTC_IF1(Name, Cond)                                                    \
  L_##Name:                                                                    \
  --Sp;                                                                        \
  Next = (Cond) ? BB.Taken : BB.Fall;                                          \
  goto leave;
  JTC_IF1(IfEq, *Sp == 0)
  JTC_IF1(IfNe, *Sp != 0)
  JTC_IF1(IfLt, *Sp < 0)
  JTC_IF1(IfGe, *Sp >= 0)
  JTC_IF1(IfGt, *Sp > 0)
  JTC_IF1(IfLe, *Sp <= 0)
#undef JTC_IF1
#define JTC_IF2(Name, Cond)                                                    \
  L_##Name:                                                                    \
  Sp -= 2;                                                                     \
  Next = (Cond) ? BB.Taken : BB.Fall;                                          \
  goto leave;
  JTC_IF2(IfIcmpEq, Sp[0] == Sp[1])
  JTC_IF2(IfIcmpNe, Sp[0] != Sp[1])
  JTC_IF2(IfIcmpLt, Sp[0] < Sp[1])
  JTC_IF2(IfIcmpGe, Sp[0] >= Sp[1])
  JTC_IF2(IfIcmpGt, Sp[0] > Sp[1])
  JTC_IF2(IfIcmpLe, Sp[0] <= Sp[1])
#undef JTC_IF2
L_Tableswitch: {
  const SwitchCode &T = PM->switchCode(static_cast<uint32_t>(S->A));
  // Unsigned distance: a selector below Low wraps past NumTargets.
  uint64_t Off = static_cast<uint64_t>(*--Sp) - static_cast<uint64_t>(T.Low);
  Next = Off < T.NumTargets ? PM->switchTargets()[T.FirstTarget + Off]
                            : T.Default;
  goto leave;
}

L_InvokeStatic:
  Callee = static_cast<uint32_t>(S->A);
  Next = BB.Taken;
  goto call;
L_InvokeVirtual: {
  int64_t Receiver = Sp[-S->X];
  if (!H.isLive(Receiver)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  uint32_t ClassId = H.classOf(Receiver);
  Callee = ClassId == Heap::ArrayClass
               ? InvalidMethod
               : PM->module().Classes[ClassId].Vtable[S->A];
  if (Callee == InvalidMethod) {
    Trap = TrapKind::BadVirtualDispatch;
    goto trapped;
  }
  Next = PM->methodEntryBlock(Callee);
  goto call;
}
L_Return:
  HasValue = false;
  goto ret;
L_Ireturn:
  HasValue = true;
  goto ret;

L_New: {
  const Class &C = PM->module().Classes[S->A];
  int64_t Ref = H.allocObject(static_cast<uint32_t>(S->A), C.NumFields);
  if (Ref == Heap::Null) {
    Trap = TrapKind::OutOfMemory;
    goto trapped;
  }
  *Sp++ = Ref;
  JTC_NEXT();
}
L_GetField: {
  const MemElision *F = Armed();
  int64_t Ref = *--Sp;
  auto Idx = static_cast<size_t>(S->A);
  if (!F && (!H.isLive(Ref) || H.classOf(Ref) == Heap::ArrayClass)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  if ((!F || F->Kind != MemElision::Full) && Idx >= H.slotCount(Ref)) {
    Trap = TrapKind::FieldBounds;
    goto trapped;
  }
  *Sp++ = H.load(Ref, Idx);
  JTC_NEXT();
}
L_PutField: {
  const MemElision *F = Armed();
  Sp -= 2;
  int64_t Ref = Sp[0];
  auto Idx = static_cast<size_t>(S->A);
  if (!F && (!H.isLive(Ref) || H.classOf(Ref) == Heap::ArrayClass)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  if ((!F || F->Kind != MemElision::Full) && Idx >= H.slotCount(Ref)) {
    Trap = TrapKind::FieldBounds;
    goto trapped;
  }
  H.store(Ref, Idx, Sp[1]);
  JTC_NEXT();
}
L_NewArray: {
  int64_t Len = *--Sp;
  if (Len < 0) {
    Trap = TrapKind::NegativeArraySize;
    goto trapped;
  }
  int64_t Ref = H.allocArray(Len);
  if (Ref == Heap::Null) {
    Trap = TrapKind::OutOfMemory;
    goto trapped;
  }
  *Sp++ = Ref;
  JTC_NEXT();
}
L_Iaload: {
  const MemElision *F = Armed();
  Sp -= 2;
  int64_t Ref = Sp[0];
  int64_t Idx = Sp[1];
  if (!F && (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  if ((!F || F->Kind != MemElision::Full) &&
      (Idx < 0 || static_cast<size_t>(Idx) >= H.slotCount(Ref))) {
    Trap = TrapKind::ArrayBounds;
    goto trapped;
  }
  *Sp++ = H.load(Ref, static_cast<size_t>(Idx));
  JTC_NEXT();
}
L_Iastore: {
  const MemElision *F = Armed();
  Sp -= 3;
  int64_t Ref = Sp[0];
  int64_t Idx = Sp[1];
  if (!F && (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  if ((!F || F->Kind != MemElision::Full) &&
      (Idx < 0 || static_cast<size_t>(Idx) >= H.slotCount(Ref))) {
    Trap = TrapKind::ArrayBounds;
    goto trapped;
  }
  H.store(Ref, static_cast<size_t>(Idx), Sp[2]);
  JTC_NEXT();
}
L_ArrayLength: {
  // The liveness/class check is the only one, so either elision kind
  // skips everything.
  const MemElision *F = Armed();
  int64_t Ref = *--Sp;
  if (!F && (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass)) {
    Trap = TrapKind::NullReference;
    goto trapped;
  }
  *Sp++ = static_cast<int64_t>(H.slotCount(Ref));
  JTC_NEXT();
}
L_Iprint:
  Mc.appendOutput(*--Sp);
  JTC_NEXT();
L_Halt:
  Mc.setStackTop(Sp);
  Cur = InvalidBlockId;
  return StepStatus::Finished;
L_FallThrough:
  Next = BB.Fall;
  goto leave;
#undef JTC_NEXT
#undef JTC_DISPATCH

leave:
  Mc.setStackTop(Sp);
  Cur = Next;
  return StepStatus::Continue;

call: // The call is the block's last instruction.
  Mc.setStackTop(Sp);
  if (!Mc.pushFrame(Callee, BB.EndPc, BB.Fall)) {
    Cur = InvalidBlockId;
    return StepStatus::Trapped;
  }
  Cur = Next;
  return StepStatus::Continue;

ret: {
  Mc.setStackTop(Sp);
  Machine::PopInfo Info = Mc.popFrame(HasValue);
  if (Info.BottomFrame) {
    Cur = InvalidBlockId;
    return StepStatus::Finished;
  }
  assert(Info.ReturnBlock != InvalidBlockId && "frame without a return block");
  Cur = Info.ReturnBlock;
  return StepStatus::Continue;
}

trapped:
  Instructions -= BB.numInstructions() - static_cast<uint32_t>(S - First) - 1;
  Mc.setStackTop(Sp);
  Mc.setTrap(Trap);
  Cur = InvalidBlockId;
  return StepStatus::Trapped;
}

RunResult jtc::runBlocks(BlockStepper &Stepper, uint64_t MaxInstructions) {
  return runBlocksWithHook(Stepper, [](BlockId) {}, MaxInstructions);
}
