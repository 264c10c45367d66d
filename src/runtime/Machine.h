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

/// Execution state plus opcode semantics for one program run.
///
/// The operand stack and locals of all frames live in two shared arenas
/// with explicit tops: the vectors are capacity, never push_back'd per
/// instruction, and only grow (by doubling) at a frame push or an
/// explicit reserveOperands(). The current frame's locals base is cached
/// as a pointer so no access goes through the frame stack. Calls do not
/// allocate once the arenas have reached the program's depth.
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
                 BlockId ReturnBlock = InvalidBlockId);

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
  PopInfo popFrame(bool HasValue);

  /// Module method id of the frame on top of the call stack.
  uint32_t currentMethodId() const {
    assert(!Frames.empty() && "no active frame");
    return CurMethod;
  }

  const Method &currentMethod() const {
    return TheModule.Methods[currentMethodId()];
  }

  bool hasFrames() const { return !Frames.empty(); }
  size_t frameDepth() const { return Frames.size(); }

  TrapKind trap() const { return TrapValue; }

  /// Values emitted by Iprint, in order; the observable output of a run.
  const std::vector<int64_t> &output() const { return Output; }

  Heap &heap() { return TheHeap; }
  const Module &module() const { return TheModule; }

  // Operand-stack and local access for the reference interpreter and
  // tests. The verifier guarantees stack discipline, so these assert
  // rather than trap.
  void push(int64_t V) {
    if (Top == OperandsEnd)
      growOperands(1);
    *Top++ = V;
  }
  int64_t pop() {
    assert(operandDepth() > 0 && "operand stack underflow");
    return *--Top;
  }
  size_t operandDepth() const {
    return static_cast<size_t>(Top - Operands.data()) - CurOperandBase;
  }

  int64_t local(uint32_t Idx) const {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    return CurLocals[Idx];
  }
  void setLocal(uint32_t Idx, int64_t V) {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    CurLocals[Idx] = V;
  }

  // Register-resident access for the block executor and the template JIT:
  // they load the stack top and locals base into registers, work on the
  // raw arenas, and publish the top back with setStackTop(). Both pointers
  // stay valid until the next pushFrame/popFrame/reserveOperands/push,
  // which may reallocate an arena -- callers re-derive them after any of
  // those.

  /// Guarantees room for \p N more operand pushes without reallocation.
  void reserveOperands(size_t N) {
    if (static_cast<size_t>(OperandsEnd - Top) < N)
      growOperands(N);
  }
  /// The same for a caller holding the top in a register: \p Sp is the
  /// unpublished top. Returns the (possibly moved) top; the machine's own
  /// top is only updated when the arena grows.
  int64_t *reserveOperands(int64_t *Sp, size_t N) {
    if (static_cast<size_t>(OperandsEnd - Sp) >= N) [[likely]]
      return Sp;
    setStackTop(Sp);
    growOperands(N);
    return Top;
  }
  int64_t *stackTop() { return Top; }
  void setStackTop(int64_t *NewTop) {
    assert(NewTop >= Operands.data() && NewTop <= OperandsEnd &&
           "stack top outside the operand arena");
    Top = NewTop;
  }
  int64_t *localsBase() {
    assert(!Frames.empty() && "no active frame");
    return CurLocals;
  }
  void setTrap(TrapKind Kind) { TrapValue = Kind; }
  void appendOutput(int64_t V) { Output.push_back(V); }

private:
  struct Frame {
    uint32_t MethodId = 0;
    uint32_t LocalsBase = 0;
    uint32_t OperandBase = 0;
    uint32_t ReturnPc = 0;
    BlockId ReturnBlock = InvalidBlockId;
  };

  void growOperands(size_t N);
  /// Reloads the cached current-frame fields from Frames.back().
  void cacheTopFrame() {
    const Frame &F = Frames.back();
    CurMethod = F.MethodId;
    CurLocals = Locals.data() + F.LocalsBase;
    CurOperandBase = F.OperandBase;
  }

  Effect trapOut(TrapKind Kind) {
    TrapValue = Kind;
    return {EffectKind::Trap, 0, false};
  }

  const Module &TheModule;
  Heap TheHeap;
  std::vector<int64_t> Operands; ///< Arena; live part is [data, Top).
  std::vector<int64_t> Locals;   ///< Arena; live part is [0, LocalsTop).
  int64_t *Top = nullptr;         ///< One past the operand-stack top.
  int64_t *OperandsEnd = nullptr; ///< End of the operand arena.
  size_t LocalsTop = 0;
  std::vector<Frame> Frames;
  // The top frame's fields, cached so per-instruction accesses never
  // touch the frame stack.
  uint32_t CurMethod = 0;
  int64_t *CurLocals = nullptr;
  size_t CurOperandBase = 0;
  std::vector<int64_t> Output;
  TrapKind TrapValue = TrapKind::None;
  size_t MaxFrames;
};

} // namespace jtc

#endif // JTC_RUNTIME_MACHINE_H
