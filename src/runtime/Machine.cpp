//===- runtime/Machine.cpp ------------------------------------------------===//

#include "runtime/Machine.h"

#include <algorithm>
#include <limits>

using namespace jtc;

Machine::Machine(const Module &M, size_t MaxFrames, size_t MaxHeapCells)
    : TheModule(M), TheHeap(MaxHeapCells), MaxFrames(MaxFrames) {
  Operands.resize(256);
  Locals.resize(1024);
  Frames.reserve(64);
  Top = Operands.data();
  OperandsEnd = Operands.data() + Operands.size();
}

void Machine::reset() {
  Top = Operands.data();
  LocalsTop = 0;
  Frames.clear();
  CurMethod = 0;
  CurLocals = nullptr;
  CurOperandBase = 0;
  Output.clear();
  TheHeap.clear();
  TrapValue = TrapKind::None;
}

void Machine::start(uint32_t MethodIdx) {
  assert(Frames.empty() && "start() on a machine already running");
  assert(TheModule.Methods[MethodIdx].NumArgs == 0 &&
         "entry method must take no arguments");
  bool Ok = pushFrame(MethodIdx, /*ReturnPc=*/0);
  assert(Ok && "initial frame push cannot overflow");
  (void)Ok;
}

void Machine::growOperands(size_t N) {
  size_t Sp = static_cast<size_t>(Top - Operands.data());
  Operands.resize(std::max(Operands.size() * 2, Sp + N));
  Top = Operands.data() + Sp;
  OperandsEnd = Operands.data() + Operands.size();
}

bool Machine::pushFrame(uint32_t Callee, uint32_t ReturnPc,
                        BlockId ReturnBlock) {
  if (Frames.size() >= MaxFrames) {
    TrapValue = TrapKind::StackOverflow;
    return false;
  }
  const Method &M = TheModule.Methods[Callee];
  assert(operandDepth() >= M.NumArgs &&
         "caller did not push enough arguments");

  if (Locals.size() - LocalsTop < M.NumLocals)
    Locals.resize(std::max(Locals.size() * 2, LocalsTop + M.NumLocals));
  Frame F;
  F.MethodId = Callee;
  F.ReturnPc = ReturnPc;
  F.ReturnBlock = ReturnBlock;
  F.LocalsBase = static_cast<uint32_t>(LocalsTop);
  // Move the arguments (deepest first) from the caller's operand stack
  // into locals [0, NumArgs); the rest start zeroed.
  int64_t *L = Locals.data() + LocalsTop;
  Top -= M.NumArgs;
  std::copy_n(Top, M.NumArgs, L);
  std::fill(L + M.NumArgs, L + M.NumLocals, 0);
  LocalsTop += M.NumLocals;
  F.OperandBase = static_cast<uint32_t>(Top - Operands.data());
  Frames.push_back(F);
  cacheTopFrame();
  return true;
}

Machine::PopInfo Machine::popFrame(bool HasValue) {
  assert(!Frames.empty() && "popFrame with no frames");
  int64_t RetVal = 0;
  if (HasValue)
    RetVal = pop();
  // Read the popped frame's fields in place, before pop_back ends it.
  const Frame &F = Frames.back();
  PopInfo Info;
  Info.ReturnPc = F.ReturnPc;
  Info.ReturnBlock = F.ReturnBlock;
  Top = Operands.data() + F.OperandBase;
  LocalsTop = F.LocalsBase;
  Frames.pop_back();

  Info.BottomFrame = Frames.empty();
  if (!Info.BottomFrame) {
    cacheTopFrame();
    if (HasValue)
      push(RetVal);
  }
  return Info;
}

Effect Machine::execOne(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Nop:
    return {};
  case Opcode::Iconst:
    push(I.A);
    return {};
  case Opcode::Iload:
    push(local(static_cast<uint32_t>(I.A)));
    return {};
  case Opcode::Istore:
    setLocal(static_cast<uint32_t>(I.A), pop());
    return {};
  case Opcode::Iinc:
    setLocal(static_cast<uint32_t>(I.A),
             local(static_cast<uint32_t>(I.A)) + I.B);
    return {};
  case Opcode::Pop:
    pop();
    return {};
  case Opcode::Dup: {
    int64_t V = pop();
    push(V);
    push(V);
    return {};
  }
  case Opcode::Swap: {
    int64_t B = pop();
    int64_t A = pop();
    push(B);
    push(A);
    return {};
  }

  case Opcode::Iadd: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Isub: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Imul: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B)));
    return {};
  }
  case Opcode::Idiv: {
    int64_t B = pop(), A = pop();
    if (B == 0)
      return trapOut(TrapKind::DivideByZero);
    // Define INT64_MIN / -1 as INT64_MIN instead of hardware UB.
    if (A == std::numeric_limits<int64_t>::min() && B == -1) {
      push(A);
      return {};
    }
    push(A / B);
    return {};
  }
  case Opcode::Irem: {
    int64_t B = pop(), A = pop();
    if (B == 0)
      return trapOut(TrapKind::DivideByZero);
    if (A == std::numeric_limits<int64_t>::min() && B == -1) {
      push(0);
      return {};
    }
    push(A % B);
    return {};
  }
  case Opcode::Ineg: {
    int64_t A = pop();
    push(static_cast<int64_t>(0 - static_cast<uint64_t>(A)));
    return {};
  }
  case Opcode::Ishl: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63)));
    return {};
  }
  case Opcode::Ishr: {
    int64_t B = pop(), A = pop();
    push(A >> (B & 63));
    return {};
  }
  case Opcode::Iushr: {
    int64_t B = pop(), A = pop();
    push(static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63)));
    return {};
  }
  case Opcode::Iand: {
    int64_t B = pop(), A = pop();
    push(A & B);
    return {};
  }
  case Opcode::Ior: {
    int64_t B = pop(), A = pop();
    push(A | B);
    return {};
  }
  case Opcode::Ixor: {
    int64_t B = pop(), A = pop();
    push(A ^ B);
    return {};
  }

  case Opcode::Goto:
    return {EffectKind::Jump, static_cast<uint32_t>(I.A), false};
  case Opcode::IfEq:
    return pop() == 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfNe:
    return pop() != 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfLt:
    return pop() < 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                              false}
                     : Effect{};
  case Opcode::IfGe:
    return pop() >= 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfGt:
    return pop() > 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                              false}
                     : Effect{};
  case Opcode::IfLe:
    return pop() <= 0 ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A),
                               false}
                      : Effect{};
  case Opcode::IfIcmpEq: {
    int64_t B = pop(), A = pop();
    return A == B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpNe: {
    int64_t B = pop(), A = pop();
    return A != B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpLt: {
    int64_t B = pop(), A = pop();
    return A < B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                 : Effect{};
  }
  case Opcode::IfIcmpGe: {
    int64_t B = pop(), A = pop();
    return A >= B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }
  case Opcode::IfIcmpGt: {
    int64_t B = pop(), A = pop();
    return A > B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                 : Effect{};
  }
  case Opcode::IfIcmpLe: {
    int64_t B = pop(), A = pop();
    return A <= B ? Effect{EffectKind::Jump, static_cast<uint32_t>(I.A), false}
                  : Effect{};
  }

  case Opcode::Tableswitch: {
    const SwitchTable &T = currentMethod().SwitchTables[I.A];
    int64_t Sel = pop();
    int64_t Off = Sel - T.Low;
    uint32_t Target = T.DefaultTarget;
    if (Off >= 0 && Off < static_cast<int64_t>(T.Targets.size()))
      Target = T.Targets[static_cast<size_t>(Off)];
    return {EffectKind::Jump, Target, false};
  }

  case Opcode::InvokeStatic:
    return {EffectKind::Call, static_cast<uint32_t>(I.A), false};

  case Opcode::InvokeVirtual: {
    const SlotInfo &Slot = TheModule.Slots[I.A];
    assert(operandDepth() >= Slot.ArgCount && "missing call arguments");
    int64_t Receiver = Top[-static_cast<ptrdiff_t>(Slot.ArgCount)];
    if (!TheHeap.isLive(Receiver))
      return trapOut(TrapKind::NullReference);
    uint32_t ClassId = TheHeap.classOf(Receiver);
    if (ClassId == Heap::ArrayClass)
      return trapOut(TrapKind::BadVirtualDispatch);
    uint32_t Callee = TheModule.Classes[ClassId].Vtable[I.A];
    if (Callee == InvalidMethod)
      return trapOut(TrapKind::BadVirtualDispatch);
    return {EffectKind::Call, Callee, false};
  }

  case Opcode::Return:
    return {EffectKind::Ret, 0, false};
  case Opcode::Ireturn:
    return {EffectKind::Ret, 0, true};

  case Opcode::New: {
    const Class &C = TheModule.Classes[I.A];
    int64_t Ref = TheHeap.allocObject(static_cast<uint32_t>(I.A), C.NumFields);
    if (Ref == Heap::Null)
      return trapOut(TrapKind::OutOfMemory);
    push(Ref);
    return {};
  }
  case Opcode::GetField: {
    int64_t Ref = pop();
    if (!TheHeap.isLive(Ref) || TheHeap.classOf(Ref) == Heap::ArrayClass)
      return trapOut(TrapKind::NullReference);
    auto Idx = static_cast<size_t>(I.A);
    if (Idx >= TheHeap.slotCount(Ref))
      return trapOut(TrapKind::FieldBounds);
    push(TheHeap.load(Ref, Idx));
    return {};
  }
  case Opcode::PutField: {
    int64_t Value = pop();
    int64_t Ref = pop();
    if (!TheHeap.isLive(Ref) || TheHeap.classOf(Ref) == Heap::ArrayClass)
      return trapOut(TrapKind::NullReference);
    auto Idx = static_cast<size_t>(I.A);
    if (Idx >= TheHeap.slotCount(Ref))
      return trapOut(TrapKind::FieldBounds);
    TheHeap.store(Ref, Idx, Value);
    return {};
  }

  case Opcode::NewArray: {
    int64_t Len = pop();
    if (Len < 0)
      return trapOut(TrapKind::NegativeArraySize);
    int64_t Ref = TheHeap.allocArray(Len);
    if (Ref == Heap::Null)
      return trapOut(TrapKind::OutOfMemory);
    push(Ref);
    return {};
  }
  case Opcode::Iaload: {
    int64_t Idx = pop();
    int64_t Ref = pop();
    if (!TheHeap.isLive(Ref) || TheHeap.classOf(Ref) != Heap::ArrayClass)
      return trapOut(TrapKind::NullReference);
    if (Idx < 0 || static_cast<size_t>(Idx) >= TheHeap.slotCount(Ref))
      return trapOut(TrapKind::ArrayBounds);
    push(TheHeap.load(Ref, static_cast<size_t>(Idx)));
    return {};
  }
  case Opcode::Iastore: {
    int64_t Value = pop();
    int64_t Idx = pop();
    int64_t Ref = pop();
    if (!TheHeap.isLive(Ref) || TheHeap.classOf(Ref) != Heap::ArrayClass)
      return trapOut(TrapKind::NullReference);
    if (Idx < 0 || static_cast<size_t>(Idx) >= TheHeap.slotCount(Ref))
      return trapOut(TrapKind::ArrayBounds);
    TheHeap.store(Ref, static_cast<size_t>(Idx), Value);
    return {};
  }
  case Opcode::ArrayLength: {
    int64_t Ref = pop();
    if (!TheHeap.isLive(Ref) || TheHeap.classOf(Ref) != Heap::ArrayClass)
      return trapOut(TrapKind::NullReference);
    push(static_cast<int64_t>(TheHeap.slotCount(Ref)));
    return {};
  }

  case Opcode::Iprint:
    Output.push_back(pop());
    return {};

  case Opcode::Halt:
    return {EffectKind::Halt, 0, false};
  }
  assert(false && "unhandled opcode");
  return {EffectKind::Halt, 0, false};
}
