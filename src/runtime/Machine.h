//===- runtime/Machine.h - Execution state and semantics --------*- C++ -*-===//
///
/// \file
/// The Machine owns all mutable execution state (operand stack, locals,
/// call frames, heap, output) and implements the reference semantics of
/// every opcode (execOne). The per-instruction interpreter (Fig. 1
/// dispatch model) steps execOne; the block executor (Fig. 2 model) and
/// the JIT tier run the shared opcode table (bytecode/OpSemantics.h) and
/// heap checks (runtime/Heap.h) over the same state, so every engine
/// leaves identical, directly comparable machine state.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_RUNTIME_MACHINE_H
#define JTC_RUNTIME_MACHINE_H

#include "bytecode/Program.h"
#include "runtime/Heap.h"
#include "runtime/Trap.h"
#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jtc {

/// How one executed instruction affects control.
enum class EffectKind : uint8_t {
  Next, ///< Fall through to the next instruction.
  Jump, ///< Transfer to instruction index Effect::Target.
  Call, ///< Push a frame for method Effect::Target, then run its pc 0.
  Ret,  ///< Pop the current frame (Effect::HasValue: push return value).
  Halt, ///< Stop the virtual machine.
  Trap, ///< A runtime trap fired; see Machine::trap().
};

struct Effect {
  EffectKind Kind = EffectKind::Next;
  uint32_t Target = 0;
  bool HasValue = false;
};

/// One call frame. It holds pointers rather than arena offsets: an
/// arena's growth (out of line, and rare) rebases every live frame, so a
/// push or pop never converts between the two.
struct FrameRecord {
  int64_t *Locals = nullptr;      ///< The frame's locals base.
  int64_t *OperandBase = nullptr; ///< The bottom of its operand stack.
  uint32_t MethodId = 0;
  uint32_t ReturnPc = 0; ///< Caller pc to resume at.
  BlockId ReturnBlock = InvalidBlockId; ///< The same continuation's block.
};

/// The machine state a frame push or pop reads and writes: the frame
/// stack, the bounds a push checks, and the top frame's cached fields.
/// Layout is ABI: the JIT's inline call and return templates address
/// these fields by constant offsets (asserted in backend/JitBackend.cpp).
struct FrameState {
  FrameRecord *FrameTop = nullptr; ///< One past the top frame.
  /// A push at FrameLimit takes the slow path: the frame arena's end or
  /// the frame budget, whichever comes first.
  FrameRecord *FrameLimit = nullptr;
  FrameRecord *Frames = nullptr;  ///< The entry frame's slot.
  int64_t *LocalsTop = nullptr;   ///< One past the top frame's locals.
  int64_t *LocalsEnd = nullptr;   ///< End of the locals arena.
  int64_t *OperandsEnd = nullptr; ///< End of the operand arena.
  // The top frame's fields, cached so per-instruction accesses never
  // touch the frame stack.
  int64_t *CurLocals = nullptr;
  int64_t *CurOperandBase = nullptr;
  uint32_t CurMethod = 0;
};

/// Execution state plus opcode semantics for one program run.
///
/// The operand stack, the locals of all frames and the frames themselves
/// live in three arenas with explicit tops: the vectors are capacity,
/// never push_back'd, and only grow (by doubling) on the slow path of a
/// frame push or at an explicit reserveOperands(). A frame push or pop is
/// a header-inline fast path of a few stores -- shared by every engine,
/// and mirrored by the JIT's call and return templates -- that moves
/// arguments and zeroes locals with plain loops; arena growth and the
/// StackOverflow trap stay out of line. Calls do not allocate once the
/// arenas have reached the program's depth.
class Machine {
public:
  explicit Machine(const Module &M, size_t MaxFrames = 2048,
                   size_t MaxHeapCells = 1u << 22);
  // The arena pointers point into the Machine's own vectors: a copy would
  // alias the original's arenas, while a move carries the buffers along.
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;
  Machine(Machine &&) = default;

  /// Clears all state (stacks, frames, heap, output, trap).
  void reset();

  /// Pushes the initial frame for \p MethodIdx, which must take no
  /// arguments.
  void start(uint32_t MethodIdx);

  /// Executes one instruction of the current frame's method and reports
  /// its control effect. Call/Ret effects only *resolve* the transfer; the
  /// interpreter applies them with pushFrame()/popFrame() so it can track
  /// dispatch boundaries. This is the reference (Fig. 1) definition of
  /// every opcode; the block executor (interp/BlockStepper.cpp) and the
  /// JIT helpers (backend/JitBackend.cpp) are differentially tested
  /// against it.
  Effect execOne(const Instruction &I);

  /// Resolves an invokevirtual through vtable slot \p Slot on \p Receiver
  /// into \p Callee. Returns the trap it raises instead -- NullReference
  /// for a dead receiver, BadVirtualDispatch for an array receiver or a
  /// vtable miss -- or TrapKind::None. The block executor and the JIT
  /// share it; execOne spells it out as the oracle.
  TrapKind resolveVirtual(int64_t Receiver, uint32_t Slot,
                          uint32_t &Callee) const {
    if (!TheHeap.isLive(Receiver))
      return TrapKind::NullReference;
    uint32_t ClassId = TheHeap.classOf(Receiver);
    Callee = ClassId == Heap::ArrayClass
                 ? InvalidMethod
                 : TheModule.Classes[ClassId].Vtable[Slot];
    return Callee == InvalidMethod ? TrapKind::BadVirtualDispatch
                                   : TrapKind::None;
  }

  /// Pushes a frame for \p Callee, moving its arguments from the operand
  /// stack into the new locals. \p ReturnPc is the caller pc to resume at
  /// (the per-instruction interpreter's continuation); \p ReturnBlock is
  /// the same continuation as a block id, recorded by the block executor
  /// and the JIT so a return never has to look its block up. Returns
  /// false (and sets a StackOverflow trap) when the frame budget is
  /// exhausted; the arguments are then left on the operand stack.
  bool pushFrame(uint32_t Callee, uint32_t ReturnPc,
                 BlockId ReturnBlock = InvalidBlockId) {
    const Method &M = TheModule.Methods[Callee];
    if (FS.FrameTop == FS.FrameLimit ||
        static_cast<size_t>(FS.LocalsEnd - FS.LocalsTop) < M.NumLocals)
        [[unlikely]] {
      if (!makeFrameRoom(M.NumLocals))
        return false;
    }
    assert(operandDepth() >= M.NumArgs &&
           "caller did not push enough arguments");
    // Move the arguments (deepest first) from the caller's operand stack
    // into locals [0, NumArgs); the rest start zeroed. A handful of slots
    // each: plain stores beat a memmove/memset call, and the empty asm
    // keeps the compiler from turning the loops back into one.
    int64_t *L = FS.LocalsTop;
    Top -= M.NumArgs;
    for (uint32_t I = 0; I < M.NumArgs; ++I) {
      asm("" : "+r"(I));
      L[I] = Top[I];
    }
    for (uint32_t I = M.NumArgs; I < M.NumLocals; ++I) {
      asm("" : "+r"(I));
      L[I] = 0;
    }
    FrameRecord *F = FS.FrameTop++;
    F->Locals = L;
    F->OperandBase = Top;
    F->MethodId = Callee;
    F->ReturnPc = ReturnPc;
    F->ReturnBlock = ReturnBlock;
    FS.LocalsTop = L + M.NumLocals;
    FS.CurMethod = Callee;
    FS.CurLocals = L;
    FS.CurOperandBase = Top;
    return true;
  }

  /// Returned in two registers: the continuation words share the first,
  /// the flag fills the second. The flag is a full word because a lone
  /// bool byte is assembled through the stack and reloaded wider, which
  /// stalls store-to-load forwarding on every return.
  struct PopInfo {
    uint32_t ReturnPc = 0; ///< Caller pc to resume at (if !BottomFrame).
    /// Caller block to resume at (if !BottomFrame and the frame was pushed
    /// with one).
    BlockId ReturnBlock = InvalidBlockId;
    /// 1 when the popped frame was the entry frame, else 0.
    uint32_t BottomFrame = 0;
  };

  /// Pops the current frame; when \p HasValue, transfers the return value
  /// to the caller's operand stack.
  PopInfo popFrame(bool HasValue) {
    assert(hasFrames() && "popFrame with no frames");
    assert((!HasValue || operandDepth() > 0) && "operand stack underflow");
    int64_t RetVal = HasValue ? Top[-1] : 0;
    const FrameRecord *F = --FS.FrameTop;
    PopInfo Info;
    Info.ReturnPc = F->ReturnPc;
    Info.ReturnBlock = F->ReturnBlock;
    Top = F->OperandBase;
    FS.LocalsTop = F->Locals;
    if (F == FS.Frames) {
      Info.BottomFrame = 1;
      return Info;
    }
    FS.CurMethod = F[-1].MethodId;
    FS.CurLocals = F[-1].Locals;
    FS.CurOperandBase = F[-1].OperandBase;
    // The value sat above the popped frame's base, so its slot is in the
    // arena.
    if (HasValue)
      *Top++ = RetVal;
    return Info;
  }

  /// Module method id of the frame on top of the call stack.
  uint32_t currentMethodId() const {
    assert(hasFrames() && "no active frame");
    return FS.CurMethod;
  }

  const Method &currentMethod() const {
    return TheModule.Methods[currentMethodId()];
  }

  bool hasFrames() const { return FS.FrameTop != FS.Frames; }
  size_t frameDepth() const {
    return static_cast<size_t>(FS.FrameTop - FS.Frames);
  }

  TrapKind trap() const { return TrapValue; }

  /// Values emitted by Iprint, in order; the observable output of a run.
  const std::vector<int64_t> &output() const { return Output; }

  Heap &heap() { return TheHeap; }
  const Module &module() const { return TheModule; }

  // Operand-stack and local access for the reference interpreter and
  // tests. The verifier guarantees stack discipline, so these assert
  // rather than trap.
  void push(int64_t V) {
    if (Top == FS.OperandsEnd)
      growOperands(1);
    *Top++ = V;
  }
  int64_t pop() {
    assert(operandDepth() > 0 && "operand stack underflow");
    return *--Top;
  }
  size_t operandDepth() const {
    return static_cast<size_t>(Top - FS.CurOperandBase);
  }

  int64_t local(uint32_t Idx) const {
    assert(hasFrames() && Idx < currentMethod().NumLocals);
    return FS.CurLocals[Idx];
  }
  void setLocal(uint32_t Idx, int64_t V) {
    assert(hasFrames() && Idx < currentMethod().NumLocals);
    FS.CurLocals[Idx] = V;
  }

  // Register-resident access for the block executor and the template JIT:
  // they load the stack top and locals base into registers, work on the
  // raw arenas, and publish the top back with setStackTop(). Both pointers
  // stay valid until the next pushFrame/popFrame/reserveOperands/push,
  // which may reallocate an arena -- callers re-derive them after any of
  // those.

  /// Guarantees room for \p N more operand pushes without reallocation.
  void reserveOperands(size_t N) {
    if (static_cast<size_t>(FS.OperandsEnd - Top) < N)
      growOperands(N);
  }
  /// The same for a caller holding the top in a register: \p Sp is the
  /// unpublished top. Returns the (possibly moved) top; the machine's own
  /// top is only updated when the arena grows.
  int64_t *reserveOperands(int64_t *Sp, size_t N) {
    if (static_cast<size_t>(FS.OperandsEnd - Sp) >= N) [[likely]]
      return Sp;
    setStackTop(Sp);
    growOperands(N);
    return Top;
  }
  int64_t *stackTop() { return Top; }
  void setStackTop(int64_t *NewTop) {
    assert(NewTop >= Operands.data() && NewTop <= FS.OperandsEnd &&
           "stack top outside the operand arena");
    Top = NewTop;
  }
  int64_t *localsBase() {
    assert(hasFrames() && "no active frame");
    return FS.CurLocals;
  }
  /// The frame state the JIT's call and return templates work on.
  FrameState &frameState() { return FS; }
  void setTrap(TrapKind Kind) { TrapValue = Kind; }
  void appendOutput(int64_t V) { Output.push_back(V); }

private:
  void growOperands(size_t N);
  /// The slow path of a push that found no room: raises StackOverflow
  /// (returning false) when the frame budget is spent, else grows the
  /// frame arena and the locals arena until a frame of \p NumLocals fits.
  bool makeFrameRoom(uint32_t NumLocals);

  Effect trapOut(TrapKind Kind) {
    TrapValue = Kind;
    return {EffectKind::Trap, 0, false};
  }

  const Module &TheModule;
  Heap TheHeap;
  std::vector<int64_t> Operands;  ///< Arena; live part is [data, Top).
  std::vector<int64_t> Locals;    ///< Arena; live part is [data, LocalsTop).
  std::vector<FrameRecord> Frames; ///< Arena; live part is [data, FrameTop).
  int64_t *Top = nullptr;          ///< One past the operand-stack top.
  FrameState FS;
  std::vector<int64_t> Output;
  TrapKind TrapValue = TrapKind::None;
  size_t MaxFrames;
};

} // namespace jtc

#endif // JTC_RUNTIME_MACHINE_H
