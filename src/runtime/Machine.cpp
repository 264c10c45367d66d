//===- runtime/Machine.cpp ------------------------------------------------===//

#include "runtime/Machine.h"

#include <algorithm>
#include <limits>

using namespace jtc;

Machine::Machine(const Module &M, size_t MaxFrames, size_t MaxHeapCells)
    : TheModule(M), TheHeap(MaxHeapCells), MaxFrames(MaxFrames) {
  Operands.resize(256);
  Locals.resize(1024);
  Frames.resize(64);
  reset();
}

void Machine::reset() {
  Top = Operands.data();
  FS.OperandsEnd = Operands.data() + Operands.size();
  FS.LocalsTop = Locals.data();
  FS.LocalsEnd = Locals.data() + Locals.size();
  FS.Frames = FS.FrameTop = Frames.data();
  FS.FrameLimit = Frames.data() + std::min(Frames.size(), MaxFrames);
  FS.CurMethod = 0;
  FS.CurLocals = nullptr;
  FS.CurOperandBase = Operands.data();
  Output.clear();
  TheHeap.clear();
  TrapValue = TrapKind::None;
}

void Machine::start(uint32_t MethodIdx) {
  assert(!hasFrames() && "start() on a machine already running");
  assert(TheModule.Methods[MethodIdx].NumArgs == 0 &&
         "entry method must take no arguments");
  bool Ok = pushFrame(MethodIdx, /*ReturnPc=*/0);
  assert(Ok && "initial frame push cannot overflow");
  (void)Ok;
}

/// Moves \p Arena into a buffer of \p Size elements (at least its
/// current size) and returns where each old element pointer now points:
/// the caller rebases its pointers into the arena with it while the old
/// buffer is still alive.
template <typename T> static auto regrow(std::vector<T> &Arena, size_t Size) {
  std::vector<T> Bigger(Size);
  std::copy(Arena.begin(), Arena.end(), Bigger.begin());
  Arena.swap(Bigger);
  // Bigger now holds the old buffer, which the returned rebase reads
  // offsets against; it is freed when the caller's full expression ends.
  return [Old = std::move(Bigger), New = Arena.data()](T *P) {
    return New + (P - Old.data());
  };
}

void Machine::growOperands(size_t N) {
  size_t Sp = static_cast<size_t>(Top - Operands.data());
  auto Rebase = regrow(Operands, std::max(Operands.size() * 2, Sp + N));
  Top = Rebase(Top);
  for (FrameRecord *F = FS.Frames; F != FS.FrameTop; ++F)
    F->OperandBase = Rebase(F->OperandBase);
  FS.CurOperandBase = Rebase(FS.CurOperandBase);
  FS.OperandsEnd = Operands.data() + Operands.size();
}

bool Machine::makeFrameRoom(uint32_t NumLocals) {
  if (FS.FrameTop == FS.FrameLimit) {
    if (frameDepth() >= MaxFrames) {
      TrapValue = TrapKind::StackOverflow;
      return false;
    }
    auto Rebase = regrow(Frames, Frames.size() * 2);
    FS.FrameTop = Rebase(FS.FrameTop);
    FS.Frames = Frames.data();
    FS.FrameLimit = Frames.data() + std::min(Frames.size(), MaxFrames);
  }
  size_t Used = static_cast<size_t>(FS.LocalsTop - Locals.data());
  if (Locals.size() - Used < NumLocals) {
    auto Rebase = regrow(Locals, std::max(Locals.size() * 2, Used + NumLocals));
    FS.LocalsTop = Rebase(FS.LocalsTop);
    for (FrameRecord *F = FS.Frames; F != FS.FrameTop; ++F)
      F->Locals = Rebase(F->Locals);
    if (hasFrames())
      FS.CurLocals = Rebase(FS.CurLocals);
    FS.LocalsEnd = Locals.data() + Locals.size();
  }
  return true;
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
