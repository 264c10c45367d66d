//===- interp/BlockStepper.cpp - The block executor -----------------------===//
//
// The one fast execution core: step() runs a whole block of the module's
// pre-decoded code (PreparedModule::code) through direct-threaded
// handlers, one per SlotOp, each ending in its own dispatch; runTrace()
// runs a trace's blocks back to back through the same handlers. The
// operand stack top and the locals base live in registers for the whole
// call; the Machine's arenas are the only execution state, published back
// when the call returns and around frame pushes and pops. Integer and
// branch handlers are generated from the opcode semantics table
// (bytecode/OpSemantics.h) and the heap handlers run the heap's own checks
// (runtime/Heap.h); Machine::execOne is the independent oracle the
// differential tests compare against.
//
//===----------------------------------------------------------------------===//

#include "interp/BlockStepper.h"

#include "bytecode/OpSemantics.h"

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

// The executor body, written once. Out of a trace (step()) it runs one
// block and returns at its exit. In a trace (runTrace()) each exit that
// leaves to the next recorded block, with blocks left and the budget not
// reached, re-enters the dispatch loop at that block instead: the stack
// top and locals base stay in registers across a leave and are re-derived
// only after a frame push or pop.
template <bool InTrace>
BlockStepper::StepStatus
BlockStepper::exec([[maybe_unused]] const BlockId *Blocks,
                   [[maybe_unused]] uint32_t Len,
                   [[maybe_unused]] uint64_t Budget,
                   [[maybe_unused]] uint32_t *BlocksRun) {
  assert(Cur != InvalidBlockId && "step() before start() or after finish");
  Machine &Mc = *Mach;
  Heap &H = Mc.heap();
  int64_t *Sp = Mc.stackTop();
  int64_t *Lp = Mc.localsBase();
  uint32_t Ran = 0; // blocks entered
  const BasicBlock *BB;
  const CodeSlot *First;
  const CodeSlot *S;

  // Block exits set one of these and jump to the matching label below, so
  // each exit sequence is written once, outside the handlers.
  BlockId Next;
  TrapKind Trap;
  uint32_t Callee;
  bool HasValue;

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

  // Every return reports the blocks run in a trace run; out of one the
  // count is dead.
#define JTC_RETURN(Status)                                                     \
  do {                                                                         \
    if constexpr (InTrace)                                                     \
      *BlocksRun = Ran;                                                        \
    return Status;                                                             \
  } while (0)
  // Whether the exit to Cur stays in the trace run.
#define JTC_STAYS_IN_TRACE()                                                   \
  (InTrace && Ran < Len && Instructions < Budget && Cur == Blocks[Ran])

enter:
  BB = &PM->block(Cur);
  ++Ran;
  // Every instruction pushes at most one value net, so a block can never
  // outgrow this reservation: the pointers stay valid to the end of the
  // block (calls and returns only ever end one).
  Sp = Mc.reserveOperands(Sp, BB->numInstructions());
  First = S = PM->code() + BB->FirstSlot;
  // Counted up front; a trap gives back the instructions it skipped.
  Instructions += BB->numInstructions();
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
  evalBinary(Opcode::Iadd, Lp[S->X], S->A, Lp[S->X]);
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

// One handler per total binary opcode: evalBinary folds to the one
// operation.
#define JTC_BINARY(Name)                                                       \
  static_assert(isBinary(Opcode::Name) &&                                     \
                opClass(Opcode::Name) != OpClass::DivRem);                     \
  L_##Name:                                                                    \
  --Sp;                                                                        \
  evalBinary(Opcode::Name, Sp[-1], *Sp, Sp[-1]);                               \
  JTC_NEXT();
  JTC_BINARY(Iadd)
  JTC_BINARY(Isub)
  JTC_BINARY(Imul)
  JTC_BINARY(Ishl)
  JTC_BINARY(Ishr)
  JTC_BINARY(Iushr)
  JTC_BINARY(Iand)
  JTC_BINARY(Ior)
  JTC_BINARY(Ixor)
#undef JTC_BINARY
// idiv and irem share one handler and its one dispatch jump; evalBinary
// fails only on their zero divisor.
L_Idiv:
L_Irem:
  --Sp;
  if (S->Op == SlotOp::Idiv ? !evalBinary(Opcode::Idiv, Sp[-1], *Sp, Sp[-1])
                            : !evalBinary(Opcode::Irem, Sp[-1], *Sp, Sp[-1])) {
    --Sp;
    Trap = TrapKind::DivideByZero;
    goto trapped;
  }
  JTC_NEXT();
L_Ineg:
  Sp[-1] = evalNeg(Sp[-1]);
  JTC_NEXT();

L_Goto:
  Next = BB->Taken;
  goto leave;
// One handler per conditional branch. A one-operand branch reads its
// operand as both arguments; evalBranch ignores the second.
#define JTC_BRANCH(Name)                                                       \
  static_assert(isCondBranch(Opcode::Name));                                  \
  L_##Name:                                                                    \
  Sp -= branchArity(Opcode::Name);                                             \
  Next = evalBranch(Opcode::Name, Sp[0], Sp[branchArity(Opcode::Name) - 1])    \
             ? BB->Taken                                                       \
             : BB->Fall;                                                       \
  goto leave;
  JTC_BRANCH(IfEq)
  JTC_BRANCH(IfNe)
  JTC_BRANCH(IfLt)
  JTC_BRANCH(IfGe)
  JTC_BRANCH(IfGt)
  JTC_BRANCH(IfLe)
  JTC_BRANCH(IfIcmpEq)
  JTC_BRANCH(IfIcmpNe)
  JTC_BRANCH(IfIcmpLt)
  JTC_BRANCH(IfIcmpGe)
  JTC_BRANCH(IfIcmpGt)
  JTC_BRANCH(IfIcmpLe)
#undef JTC_BRANCH
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
  Next = BB->Taken;
  goto call;
L_InvokeVirtual:
  Trap = Mc.resolveVirtual(Sp[-S->X], static_cast<uint32_t>(S->A), Callee);
  if (Trap != TrapKind::None)
    goto trapped;
  Next = PM->methodEntryBlock(Callee);
  goto call;
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
  int64_t Ref = *--Sp;
  auto Idx = static_cast<size_t>(S->A);
  if ((Trap = H.checkField(Ref, Idx, ElideLevel::None)) != TrapKind::None)
    goto trapped;
  *Sp++ = H.load(Ref, Idx);
  JTC_NEXT();
}
L_PutField: {
  Sp -= 2;
  int64_t Ref = Sp[0];
  auto Idx = static_cast<size_t>(S->A);
  if ((Trap = H.checkField(Ref, Idx, ElideLevel::None)) != TrapKind::None)
    goto trapped;
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
  Sp -= 2;
  int64_t Ref = Sp[0];
  int64_t Idx = Sp[1];
  if ((Trap = H.checkElement(Ref, Idx, ElideLevel::None)) != TrapKind::None)
    goto trapped;
  *Sp++ = H.load(Ref, static_cast<size_t>(Idx));
  JTC_NEXT();
}
L_Iastore: {
  Sp -= 3;
  int64_t Ref = Sp[0];
  int64_t Idx = Sp[1];
  if ((Trap = H.checkElement(Ref, Idx, ElideLevel::None)) != TrapKind::None)
    goto trapped;
  H.store(Ref, static_cast<size_t>(Idx), Sp[2]);
  JTC_NEXT();
}
L_ArrayLength: {
  int64_t Ref = *--Sp;
  if ((Trap = H.checkArrayLength(Ref, ElideLevel::None)) != TrapKind::None)
    goto trapped;
  *Sp++ = static_cast<int64_t>(H.slotCount(Ref));
  JTC_NEXT();
}
L_Iprint:
  Mc.appendOutput(*--Sp);
  JTC_NEXT();
L_Halt:
  Mc.setStackTop(Sp);
  Cur = InvalidBlockId;
  JTC_RETURN(StepStatus::Finished);
L_FallThrough:
  Next = BB->Fall;
  goto leave;
#undef JTC_NEXT
#undef JTC_DISPATCH

leave:
  Cur = Next;
  if (JTC_STAYS_IN_TRACE())
    goto enter;
  Mc.setStackTop(Sp);
  JTC_RETURN(StepStatus::Continue);

call: // The call is the block's last instruction.
  Mc.setStackTop(Sp);
  if (!Mc.pushFrame(Callee, BB->EndPc, BB->Fall)) {
    Cur = InvalidBlockId;
    JTC_RETURN(StepStatus::Trapped);
  }
  Cur = Next;
  goto framed;

ret: {
  Mc.setStackTop(Sp);
  Machine::PopInfo Info = Mc.popFrame(HasValue);
  if (Info.BottomFrame) {
    Cur = InvalidBlockId;
    JTC_RETURN(StepStatus::Finished);
  }
  assert(Info.ReturnBlock != InvalidBlockId && "frame without a return block");
  Cur = Info.ReturnBlock;
  goto framed;
}

framed: // A frame push or pop published the stack and moved the frame.
  if (JTC_STAYS_IN_TRACE()) {
    Sp = Mc.stackTop();
    Lp = Mc.localsBase();
    goto enter;
  }
  JTC_RETURN(StepStatus::Continue);

trapped:
  Instructions -= BB->numInstructions() - static_cast<uint32_t>(S - First) - 1;
  Mc.setStackTop(Sp);
  Mc.setTrap(Trap);
  Cur = InvalidBlockId;
  JTC_RETURN(StepStatus::Trapped);
#undef JTC_STAYS_IN_TRACE
#undef JTC_RETURN
}

// step()'s instantiation, called from the header.
template BlockStepper::StepStatus
BlockStepper::exec<false>(const BlockId *, uint32_t, uint64_t, uint32_t *);

BlockStepper::TraceStep BlockStepper::runTrace(std::span<const BlockId> Blocks,
                                               uint64_t Budget) {
  assert(!Blocks.empty() && Blocks[0] == Cur &&
         "a trace run starts at the current block");
  TraceStep R;
  R.Status = exec</*InTrace=*/true>(Blocks.data(),
                                    static_cast<uint32_t>(Blocks.size()),
                                    Budget, &R.BlocksRun);
  return R;
}

RunResult jtc::runBlocks(BlockStepper &Stepper, uint64_t MaxInstructions) {
  return runBlocksWithHook(Stepper, [](BlockId) {}, MaxInstructions);
}
