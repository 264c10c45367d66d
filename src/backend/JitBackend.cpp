//===- backend/JitBackend.cpp - x86-64 template JIT trace tier ------------===//

#include "backend/JitBackend.h"

#include "backend/TraceIR.h"
#include "backend/X64Emitter.h"
#include "bytecode/OpSemantics.h"
#include "interp/BlockStepper.h"
#include "interp/PreparedModule.h"
#include "runtime/Machine.h"
#include "telemetry/EventRing.h"
#include "validate/Validator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define JTC_HAVE_MMAP 1
#endif

namespace jtc {
namespace backend {

// The templates address JitContext fields by these constants; keep the
// struct layout and the generated code in lockstep.
static constexpr int32_t CtxMach = 0;
static constexpr int32_t CtxLocals = 8;
static constexpr int32_t CtxTop = 16;
static constexpr int32_t CtxExit = 24;
static constexpr int32_t CtxPayload = 32;
static_assert(offsetof(JitContext, Mach) == CtxMach, "ABI drift");
static_assert(offsetof(JitContext, Locals) == CtxLocals, "ABI drift");
static_assert(offsetof(JitContext, StackTop) == CtxTop, "ABI drift");
static_assert(offsetof(JitContext, ExitIndex) == CtxExit, "ABI drift");
static_assert(offsetof(JitContext, ExitPayload) == CtxPayload, "ABI drift");
static constexpr int32_t CtxFrames = 40;
static_assert(offsetof(JitContext, Frames) == CtxFrames, "ABI drift");

// The call and return templates address the Machine's FrameState and its
// frame records by these.
static constexpr int32_t FsTop = 0;
static constexpr int32_t FsLimit = 8;
static constexpr int32_t FsFrames = 16;
static constexpr int32_t FsLocalsTop = 24;
static constexpr int32_t FsLocalsEnd = 32;
static constexpr int32_t FsOperandsEnd = 40;
static constexpr int32_t FsCurLocals = 48;
static constexpr int32_t FsCurOperandBase = 56;
static constexpr int32_t FsCurMethod = 64;
static_assert(offsetof(FrameState, FrameTop) == FsTop, "ABI drift");
static_assert(offsetof(FrameState, FrameLimit) == FsLimit, "ABI drift");
static_assert(offsetof(FrameState, Frames) == FsFrames, "ABI drift");
static_assert(offsetof(FrameState, LocalsTop) == FsLocalsTop, "ABI drift");
static_assert(offsetof(FrameState, LocalsEnd) == FsLocalsEnd, "ABI drift");
static_assert(offsetof(FrameState, OperandsEnd) == FsOperandsEnd,
              "ABI drift");
static_assert(offsetof(FrameState, CurLocals) == FsCurLocals, "ABI drift");
static_assert(offsetof(FrameState, CurOperandBase) == FsCurOperandBase,
              "ABI drift");
static_assert(offsetof(FrameState, CurMethod) == FsCurMethod, "ABI drift");
static_assert(sizeof(FrameState::CurMethod) == 4, "ABI drift");
static constexpr int32_t FrLocals = 0;
static constexpr int32_t FrOperandBase = 8;
static constexpr int32_t FrMethod = 16;
static constexpr int32_t FrReturnPc = 20;
static constexpr int32_t FrReturnBlock = 24;
static constexpr int32_t FrSize = 32;
static_assert(offsetof(FrameRecord, Locals) == FrLocals, "ABI drift");
static_assert(offsetof(FrameRecord, OperandBase) == FrOperandBase,
              "ABI drift");
static_assert(offsetof(FrameRecord, MethodId) == FrMethod, "ABI drift");
static_assert(offsetof(FrameRecord, ReturnPc) == FrReturnPc, "ABI drift");
static_assert(offsetof(FrameRecord, ReturnBlock) == FrReturnBlock,
              "ABI drift");
static_assert(sizeof(FrameRecord) == FrSize, "ABI drift");
static_assert(sizeof(BlockId) == 4, "ABI drift");

// Pinned registers (all callee-saved; see JitBackend.h).
static constexpr Reg CtxReg = Reg::Rbx;
static constexpr Reg FrameReg = Reg::Rbp;
static constexpr Reg LocalsReg = Reg::R13;
static constexpr Reg TopReg = Reg::R14;
static constexpr Reg MachReg = Reg::R15;

//===----------------------------------------------------------------------===//
// Runtime helpers
//
// Heap-touching ops go through these instead of inline code: heap cells
// are nested std::vectors, and the checks are the heap's own
// (Heap::checkElement and friends), the ones the block executor runs.
// Helpers set Machine::trap() themselves and report "trapped" through
// the second return register; they never touch the Machine's operand
// stack or locals arenas (the template code owns those via pinned
// pointers).
//===----------------------------------------------------------------------===//

extern "C" {

/// Returned in rax (Value) and rdx (Trap) under the SysV ABI.
struct JitHelperResult {
  int64_t Value;
  uint64_t Trap;
};

} // extern "C"

/// The heap accesses, one template each, instantiated per elision level
/// (IrOp::Elide): the checks a level skips compile away, and at a level
/// where the access cannot trap the template emits no trap test.
template <ElideLevel L>
static JitHelperResult jtcJitIaload(Machine *M, int64_t Ref, int64_t Idx) {
  Heap &H = M->heap();
  if (TrapKind T = H.checkElement(Ref, Idx, L); T != TrapKind::None) {
    M->setTrap(T);
    return {0, 1};
  }
  return {H.load(Ref, static_cast<size_t>(Idx)), 0};
}

template <ElideLevel L>
static uint64_t jtcJitIastore(Machine *M, int64_t Ref, int64_t Idx,
                              int64_t Value) {
  Heap &H = M->heap();
  if (TrapKind T = H.checkElement(Ref, Idx, L); T != TrapKind::None) {
    M->setTrap(T);
    return 1;
  }
  H.store(Ref, static_cast<size_t>(Idx), Value);
  return 0;
}

template <ElideLevel L>
static JitHelperResult jtcJitArrayLength(Machine *M, int64_t Ref) {
  Heap &H = M->heap();
  if (TrapKind T = H.checkArrayLength(Ref, L); T != TrapKind::None) {
    M->setTrap(T);
    return {0, 1};
  }
  return {static_cast<int64_t>(H.slotCount(Ref)), 0};
}

template <ElideLevel L>
static JitHelperResult jtcJitGetField(Machine *M, int64_t Ref, int64_t Slot) {
  Heap &H = M->heap();
  auto Idx = static_cast<size_t>(Slot);
  if (TrapKind T = H.checkField(Ref, Idx, L); T != TrapKind::None) {
    M->setTrap(T);
    return {0, 1};
  }
  return {H.load(Ref, Idx), 0};
}

template <ElideLevel L>
static uint64_t jtcJitPutField(Machine *M, int64_t Ref, int64_t Slot,
                               int64_t Value) {
  Heap &H = M->heap();
  auto Idx = static_cast<size_t>(Slot);
  if (TrapKind T = H.checkField(Ref, Idx, L); T != TrapKind::None) {
    M->setTrap(T);
    return 1;
  }
  H.store(Ref, Idx, Value);
  return 0;
}

extern "C" {

static JitHelperResult jtcJitNew(Machine *M, int64_t ClassId) {
  const Class &C = M->module().Classes[static_cast<size_t>(ClassId)];
  int64_t Ref = M->heap().allocObject(static_cast<uint32_t>(ClassId),
                                      C.NumFields);
  if (Ref == Heap::Null) {
    M->setTrap(TrapKind::OutOfMemory);
    return {0, 1};
  }
  return {Ref, 0};
}

static JitHelperResult jtcJitNewArray(Machine *M, int64_t Len) {
  if (Len < 0) {
    M->setTrap(TrapKind::NegativeArraySize);
    return {0, 1};
  }
  int64_t Ref = M->heap().allocArray(Len);
  if (Ref == Heap::Null) {
    M->setTrap(TrapKind::OutOfMemory);
    return {0, 1};
  }
  return {Ref, 0};
}

static void jtcJitIprint(Machine *M, int64_t Value) {
  M->appendOutput(Value);
}

//===----------------------------------------------------------------------===//
// Frame helpers
//
// A static call or a return runs inline (TraceCompiler's call and return
// templates); these helpers are its slow path -- arena growth, the frame
// budget, the bottom-frame return -- and the whole of a virtual call.
// They run the Machine's own pushFrame/popFrame. Protocol: publish the
// template's live top into the Machine, run the frame op, reserve the
// trace's stack slack in the (possibly different) frame, and publish the
// -- possibly reallocated -- top and locals pointers back through the
// JitContext; the template reloads its pinned registers afterwards.
// Frames record their continuation block exactly as the block executor's
// do. Return code: 0 = continue on trace, 1 = trapped, 2 = diverged
// (JC->ExitPayload holds where execution actually went), 3 = program
// finished (bottom-frame return).
//===----------------------------------------------------------------------===//

/// Reserves \p Slack pushes in the current frame and republishes the
/// pinned pointers.
static void jtcJitEnterFrame(JitContext *JC, uint64_t Slack) {
  Machine *M = JC->Mach;
  M->reserveOperands(static_cast<size_t>(Slack));
  JC->StackTop = M->stackTop();
  JC->Locals = M->localsBase();
}

static uint64_t jtcJitCallStatic(JitContext *JC, uint64_t Callee,
                                 uint64_t ReturnPc, uint64_t ReturnBlock,
                                 uint64_t Slack) {
  Machine *M = JC->Mach;
  ++JC->FrameOpsHelper;
  M->setStackTop(JC->StackTop);
  if (!M->pushFrame(static_cast<uint32_t>(Callee),
                    static_cast<uint32_t>(ReturnPc),
                    static_cast<BlockId>(ReturnBlock)))
    return 1; // StackOverflow trap, args left on the stack.
  jtcJitEnterFrame(JC, Slack);
  return 0;
}

static uint64_t jtcJitCallVirtual(JitContext *JC, uint64_t SlotId,
                                  uint64_t ReturnPc, uint64_t ReturnBlock,
                                  uint64_t Expect, uint64_t Slack) {
  Machine *M = JC->Mach;
  ++JC->FrameOpsHelper;
  M->setStackTop(JC->StackTop);
  // Resolve before the args are consumed, so a trap leaves them in place.
  const SlotInfo &Slot = M->module().Slots[static_cast<size_t>(SlotId)];
  int64_t Receiver = JC->StackTop[-static_cast<int64_t>(Slot.ArgCount)];
  uint32_t Callee = InvalidMethod;
  if (TrapKind T = M->resolveVirtual(Receiver, static_cast<uint32_t>(SlotId),
                                     Callee);
      T != TrapKind::None) {
    M->setTrap(T);
    return 1;
  }
  if (!M->pushFrame(Callee, static_cast<uint32_t>(ReturnPc),
                    static_cast<BlockId>(ReturnBlock)))
    return 1;
  jtcJitEnterFrame(JC, Slack);
  JC->ExitPayload = Callee;
  return Expect != InvalidMethod && Callee != Expect ? 2 : 0;
}

static uint64_t jtcJitRet(JitContext *JC, uint64_t HasValue,
                          uint64_t ExpectBlock, uint64_t Slack) {
  Machine *M = JC->Mach;
  ++JC->FrameOpsHelper;
  M->setStackTop(JC->StackTop);
  Machine::PopInfo Info = M->popFrame(HasValue != 0);
  if (Info.BottomFrame) {
    JC->StackTop = M->stackTop();
    return 3;
  }
  jtcJitEnterFrame(JC, Slack);
  JC->ExitPayload = Info.ReturnBlock;
  return ExpectBlock != InvalidBlockId && Info.ReturnBlock != ExpectBlock ? 2
                                                                          : 0;
}

/// Tableswitch on the popped \p Selector, reported like a return: the
/// selected block goes to JC->ExitPayload, and the result is 2 when it
/// is not \p ExpectBlock (InvalidBlockId on the final block), else 0.
static uint64_t jtcJitSwitch(JitContext *JC, const SwitchCode *SC,
                             const BlockId *Targets, int64_t Selector,
                             uint64_t ExpectBlock) {
  // Unsigned distance: a selector below Low wraps past NumTargets.
  uint64_t Off =
      static_cast<uint64_t>(Selector) - static_cast<uint64_t>(SC->Low);
  BlockId Next = Off < SC->NumTargets ? Targets[Off] : SC->Default;
  JC->ExitPayload = Next;
  return ExpectBlock != InvalidBlockId && Next != ExpectBlock ? 2 : 0;
}

} // extern "C"

//===----------------------------------------------------------------------===//
// CodeArena
//===----------------------------------------------------------------------===//

/// Bytes each chunk reserves (virtual memory: a page costs memory only
/// once an install writes it).
static constexpr size_t ChunkBytes = 256u << 10;

CodeArena::~CodeArena() {
#ifdef JTC_HAVE_MMAP
  for (Chunk &C : Chunks)
    munmap(C.Base, C.Size);
#endif
}

const void *CodeArena::install(const std::vector<uint8_t> &Code) {
#ifdef JTC_HAVE_MMAP
  if (Code.empty())
    return nullptr;
  static const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t Size = (Code.size() + Page - 1) / Page * Page;
  Chunk *C = Chunks.empty() ? nullptr : &Chunks.back();
  if (!C || C->Size - C->Used < Size) {
    const size_t ChunkSize = std::max(Size, ChunkBytes);
    void *Base = mmap(nullptr, ChunkSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Base == MAP_FAILED)
      return nullptr;
    Chunks.push_back({static_cast<uint8_t *>(Base), ChunkSize, 0});
    C = &Chunks.back();
  }
  // The pages past Used were never executable; these become so for good.
  uint8_t *At = C->Base + C->Used;
  std::memcpy(At, Code.data(), Code.size());
  if (mprotect(At, Size, PROT_READ | PROT_EXEC) != 0)
    return nullptr;
  C->Used += Size;
  return At;
#else
  (void)Code;
  return nullptr;
#endif
}

size_t CodeArena::bytesInstalled() const {
  size_t N = 0;
  for (const Chunk &C : Chunks)
    N += C.Used;
  return N;
}

//===----------------------------------------------------------------------===//
// ModuleCode
//===----------------------------------------------------------------------===//

size_t ModuleCode::KeyHash::operator()(const CodeKey &K) const {
  // FNV-1a over the settings and the block ids.
  uint64_t H = 1469598103934665603ull ^ K.ProofConfig;
  H = (H ^ (static_cast<uint64_t>(K.Validated) << 1 | K.MemElide)) *
      1099511628211ull;
  for (BlockId B : K.Blocks) {
    H ^= B;
    H *= 1099511628211ull;
  }
  return static_cast<size_t>(H);
}

const CompiledTrace *ModuleCode::find(const CodeKey &K) const {
  std::lock_guard<std::mutex> G(Lock);
  auto It = Entries.find(K);
  return It == Entries.end() ? nullptr : &It->second;
}

std::vector<std::pair<const CodeKey *, const CompiledTrace *>>
ModuleCode::entries(const std::vector<BlockId> &Blocks,
                    uint64_t ProofConfig) const {
  std::vector<std::pair<const CodeKey *, const CompiledTrace *>> Found;
  {
    std::lock_guard<std::mutex> G(Lock);
    for (const auto &[K, C] : Entries)
      if (K.ProofConfig == ProofConfig && K.Blocks == Blocks)
        Found.emplace_back(&K, &C);
  }
  std::sort(Found.begin(), Found.end(),
            [](const auto &A, const auto &B) { return *A.first < *B.first; });
  return Found;
}

bool ModuleCode::full() const {
  std::lock_guard<std::mutex> G(Lock);
  return Installs >= Cap;
}

const void *ModuleCode::install(const std::vector<uint8_t> &Code) {
  std::lock_guard<std::mutex> G(Lock);
  if (Installs >= Cap)
    return nullptr;
  const void *At = Arena.install(Code);
  Installs += At != nullptr;
  return At;
}

const CompiledTrace *ModuleCode::publish(CodeKey K, CompiledTrace C) {
  std::lock_guard<std::mutex> G(Lock);
  return &Entries.try_emplace(std::move(K), std::move(C)).first->second;
}

size_t ModuleCode::tracesHeld() const {
  std::lock_guard<std::mutex> G(Lock);
  return Entries.size();
}

size_t ModuleCode::installs() const {
  std::lock_guard<std::mutex> G(Lock);
  return Installs;
}

size_t ModuleCode::bytesHeld() const {
  std::lock_guard<std::mutex> G(Lock);
  return Arena.bytesInstalled();
}

ModuleCode &moduleCode(const PreparedModule &PM, size_t Cap) {
  return PM.backendState<ModuleCode>(Cap);
}

//===----------------------------------------------------------------------===//
// TraceCompiler: TraceIR -> machine code + exit records
//===----------------------------------------------------------------------===//

namespace {

/// The x86 condition for each CmpKind, a signed compare of the deeper
/// operand (or the one operand) against the top (or zero).
constexpr Cond X86Cond[] = {Cond::Eq, Cond::Ne, Cond::Lt,
                            Cond::Ge, Cond::Gt, Cond::Le};
static_assert(static_cast<size_t>(CmpKind::Le) + 1 ==
                  sizeof(X86Cond) / sizeof(X86Cond[0]),
              "one condition per CmpKind");

constexpr uint16_t regBit(Reg R) {
  return static_cast<uint16_t>(1u << static_cast<unsigned>(R));
}

/// The caller-saved registers that hold operand values: rcx, rdx, rsi,
/// rdi and r8-r11. rax stays out of it, the templates' scratch register.
constexpr uint16_t PoolMask = regBit(Reg::Rcx) | regBit(Reg::Rdx) |
                              regBit(Reg::Rsi) | regBit(Reg::Rdi) |
                              regBit(Reg::R8) | regBit(Reg::R9) |
                              regBit(Reg::R10) | regBit(Reg::R11);
/// The pool's extended half, which values take first: a REX.W form costs
/// nothing more with them, and helper calls, division and shifts want the
/// other half.
constexpr uint16_t ExtMask = regBit(Reg::R8) | regBit(Reg::R9) |
                             regBit(Reg::R10) | regBit(Reg::R11);

bool fitsImm32(int64_t V) { return V >= INT32_MIN && V <= INT32_MAX; }

/// The emitter forms of a two-operand ALU opcode: Dst op= an immediate,
/// a memory operand or a register.
struct AluForms {
  void (X64Emitter::*RI)(Reg, int32_t);
  void (X64Emitter::*RM)(Reg, Reg, int32_t);
  void (X64Emitter::*RR)(Reg, Reg);
};

AluForms aluForms(Opcode Op) {
  switch (Op) {
  case Opcode::Iadd:
    return {&X64Emitter::addRI, &X64Emitter::addRM, &X64Emitter::addRR};
  case Opcode::Isub:
    return {&X64Emitter::subRI, &X64Emitter::subRM, &X64Emitter::subRR};
  case Opcode::Imul:
    return {&X64Emitter::imulRI, &X64Emitter::imulRM, &X64Emitter::imulRR};
  case Opcode::Iand:
    return {&X64Emitter::andRI, &X64Emitter::andRM, &X64Emitter::andRR};
  case Opcode::Ior:
    return {&X64Emitter::orRI, &X64Emitter::orRM, &X64Emitter::orRR};
  default:
    assert(Op == Opcode::Ixor && "not an ALU opcode");
    return {&X64Emitter::xorRI, &X64Emitter::xorRM, &X64Emitter::xorRR};
  }
}

/// An entry of the compile-time operand stack, or an operand popped from
/// it.
struct Value {
  enum class Kind : uint8_t {
    Const, ///< The constant Imm.
    Local, ///< A pending read of the local at [r13 + Disp].
    InReg, ///< In R, a pool register the value owns.
    Mem,   ///< In the operand slot at [r14 + Disp]. Only an operand popped
           ///< past the virtual entries is one; an entry never is.
  };
  Kind K = Kind::Const;
  Reg R = Reg::Rax;
  int32_t Disp = 0;
  int64_t Imm = 0;

  static Value constant(int64_t V) { return {Kind::Const, Reg::Rax, 0, V}; }
  static Value local(int32_t Disp) { return {Kind::Local, Reg::Rax, Disp, 0}; }
  static Value reg(Reg R) { return {Kind::InReg, R, 0, 0}; }
  static Value mem(int32_t Disp) { return {Kind::Mem, Reg::Rax, Disp, 0}; }
  bool is(Kind Of) const { return K == Of; }
  /// The base register of a Local or Mem value.
  Reg base() const { return K == Kind::Local ? LocalsReg : TopReg; }
};

class TraceCompiler {
public:
  TraceCompiler(const TraceIR &IR, const PreparedModule &PM)
      : IR(IR), PM(PM) {}

  /// Emits the whole trace.
  void emit();

  const std::vector<uint8_t> &code() const { return E.code(); }
  std::vector<ExitRecord> takeExits() { return std::move(Exits); }

private:
  // Exit-record plumbing: templates jump to per-record stubs emitted
  // after the body; each stub stores its record index and joins the
  // common epilogue.
  uint32_t addExit(const ExitRecord &R) {
    // Every exit leaves the operand stack in memory, as the block
    // executor would have it.
    assert(VStack.empty() && Adj == 0 && "exit with virtual operands");
    Exits.push_back(R);
    // Every exit reached from this point in the template has executed
    // every elided op emitted so far (they are straight-line), so the
    // prefix count is exact per exit.
    Exits.back().ChecksElided = ElidedSoFar;
    Exits.back().FrameOps = FrameOpsSoFar;
    return static_cast<uint32_t>(Exits.size() - 1);
  }
  /// Instructions executed once \p Op (at its source position) has: full
  /// blocks before it, plus the partial block through the op itself.
  uint64_t instrsThrough(const IrOp &Op) const {
    const BasicBlock &BB = PM.block(IR.Blocks[Op.SrcBlockIndex]);
    return IR.InstrPrefix[Op.SrcBlockIndex] + (Op.SrcPc - BB.StartPc + 1);
  }
  /// An exit record positioned at \p Op, with interpreter-exact counts.
  uint32_t exitAt(const IrOp &Op, ExitRecord::Kind K) {
    ExitRecord R;
    R.K = K;
    R.BlocksRun = Op.SrcBlockIndex + 1;
    R.Instructions = instrsThrough(Op);
    return addExit(R);
  }
  uint32_t trapExit(const IrOp &Op, TrapKind Set) {
    uint32_t Idx = exitAt(Op, ExitRecord::Kind::Trap);
    Exits[Idx].TrapToSet = Set;
    return Idx;
  }
  void jumpToExit(size_t Fixup, uint32_t ExitIdx) {
    ExitFixups.push_back({Fixup, ExitIdx});
  }

  void prologue();
  void emitOp(const IrOp &Op);
  Cond emitCompare(Opcode Op);
  void emitGuard(const IrOp &Op);
  void emitCallStatic(const IrOp &Op);
  void emitRet(const IrOp &Op);
  void emitCallVirtual(const IrOp &Op);
  void emitSwitch(const IrOp &Op);
  /// Emits every frame op's out-of-line helper call.
  void emitSlowPaths();
  void emitAlu(Opcode Op);
  void emitShift(Opcode Op);
  void emitDivRem(const IrOp &Op);
  template <ElideLevel L> void emitHeapAccess(const IrOp &Op);
  void emitCompletion();
  void emitStubsAndEpilogue();

  // The virtual operand stack. Values stay in VStack -- constants,
  // pending local reads, pool registers -- above the memory top, which
  // is r14 + 8 * Adj (an op that pops past the entries lowers Adj rather
  // than r14). flushBelow() writes entries to memory and moves r14 once;
  // every exit and every call out of the trace comes after one.

  /// A free pool register, taken: one in \p Prefer if any is free, else
  /// the lowest-numbered, whose 32-bit forms need no REX prefix.
  Reg take(uint16_t Prefer = ExtMask) {
    assert((FreeRegs & PoolMask) && "operand register pool exhausted");
    const uint16_t From = FreeRegs & Prefer ? FreeRegs & Prefer : FreeRegs;
    const auto R = static_cast<Reg>(std::countr_zero(From));
    FreeRegs &= static_cast<uint16_t>(~regBit(R));
    return R;
  }
  void release(Reg R) { FreeRegs |= regBit(R) & PoolMask; }
  void release(const Value &V) {
    if (V.is(Value::Kind::InReg))
      release(V.R);
  }
  /// A free pool register, taken; flushes the stack when none is, fixing
  /// up the popped operands \p L0 and \p L1.
  Reg alloc(Value *L0 = nullptr, Value *L1 = nullptr) {
    if (!FreeRegs)
      flushBelow(0, L0, L1);
    return take();
  }
  void push(const Value &V) {
    assert(!V.is(Value::Kind::Mem) && "a memory slot as a stack entry");
    VStack.push_back(V);
  }
  Value pop() {
    if (!VStack.empty()) {
      Value V = VStack.back();
      VStack.pop_back();
      return V;
    }
    --Adj;
    return Value::mem(8 * Adj);
  }
  /// Writes every entry but the top \p K to memory and points r14 at the
  /// memory top the op leaves once it has popped \p K operands; those
  /// then pop as before, from the entries or from the slots above r14.
  /// \p L0 and \p L1 are operands popped already, whose slots move with
  /// r14.
  void flushBelow(unsigned K, Value *L0 = nullptr, Value *L1 = nullptr);
  /// Loads \p V into \p Dst.
  void load(Reg Dst, const Value &V);
  /// Stores \p V to [Base + Disp], through rax unless it is in a
  /// register or a 32-bit constant.
  void store(Reg Base, int32_t Disp, const Value &V);
  /// \p V's value in a pool register it owns, loaded there if need be.
  Reg ownReg(Value &V, Value *Other = nullptr) {
    if (!V.is(Value::Kind::InReg)) {
      Reg R = alloc(&V, Other);
      load(R, V);
      V = Value::reg(R);
    }
    return V.R;
  }
  /// Loads the pending reads of the local at \p Disp, ahead of a write to
  /// it.
  void spillReads(int32_t Disp, Value *Live);
  /// The result of a helper call, from rax onto the stack.
  void pushRax() {
    Reg R = take();
    E.movRR(R, Reg::Rax);
    push(Value::reg(R));
  }
  struct ArgMove {
    Reg Dst;
    Value Src;
  };
  /// Loads helper arguments into their registers, wherever their values
  /// are: a parallel move, with rax breaking a cycle of registers.
  void moveArgs(std::vector<ArgMove> Moves);

  void helperCall(const void *Fn) {
    E.movRI(Reg::Rax, static_cast<int64_t>(reinterpret_cast<uintptr_t>(Fn)));
    E.callR(Reg::Rax);
  }
  /// test <Flag>, <Flag>; jnz <trap stub> -- Flag is rdx for helpers
  /// returning JitHelperResult, rax for those returning a bare trap flag.
  void helperTrapCheck(const IrOp &Op, Reg Flag) {
    E.testRR(Flag, Flag);
    jumpToExit(E.jcc(Cond::Ne), trapExit(Op, TrapKind::None));
  }

  /// The out-of-line half of an inline call or return: the helper call
  /// its room checks branch to, which rejoins the template at Resume.
  struct SlowPath {
    const IrOp *Op = nullptr;
    std::vector<size_t> Entries; ///< Fixups of the branches to it.
    size_t Resume = 0;
    /// Exits created with the template, so they carry its prefix counts:
    /// a call's trap, a return's finish and divergence.
    uint32_t Trap = 0, Finished = 0, Diverge = 0;
    /// The operands the helper takes from the stack, deepest first -- a
    /// call's arguments, a return's value -- which the path writes to
    /// memory before the call.
    std::vector<Value> Operands;
  };

  const TraceIR &IR;
  const PreparedModule &PM;
  X64Emitter E;
  std::vector<ExitRecord> Exits;
  std::vector<std::pair<size_t, uint32_t>> ExitFixups;
  std::vector<SlowPath> SlowPaths;
  /// Frame ops emitted so far, bumped before an op's own exits: every
  /// exit at or after a frame op has run it, inline or through a helper.
  uint64_t FrameOpsSoFar = 0;
  /// Checks skipped by the elided ops emitted so far; bumped *before* an
  /// elided op's templates (so its own residual trap exit counts it,
  /// matching the stepper, which counts the elision before the bounds
  /// check can trap).
  uint64_t ElidedSoFar = 0;
  std::vector<Value> VStack;
  int32_t Adj = 0;
  uint16_t FreeRegs = PoolMask;
};

void TraceCompiler::flushBelow(unsigned K, Value *L0, Value *L1) {
  const auto N = static_cast<int32_t>(VStack.size());
  const int32_t Keep = std::min(static_cast<int32_t>(K), N);
  for (int32_t I = 0; I < N - Keep; ++I) {
    store(TopReg, 8 * (Adj + I), VStack[static_cast<size_t>(I)]);
    release(VStack[static_cast<size_t>(I)]);
  }
  VStack.erase(VStack.begin(), VStack.end() - Keep);
  // The memory top once the K operands are popped, in slots from r14.
  const int32_t Shift = Adj + (N - Keep) - (static_cast<int32_t>(K) - Keep);
  if (Shift)
    E.addRI(TopReg, 8 * Shift);
  Adj += (N - Keep) - Shift;
  for (Value *L : {L0, L1})
    if (L && L->is(Value::Kind::Mem))
      L->Disp -= 8 * Shift;
}

void TraceCompiler::load(Reg Dst, const Value &V) {
  switch (V.K) {
  case Value::Kind::Const:
    E.movRI(Dst, V.Imm);
    break;
  case Value::Kind::Local:
  case Value::Kind::Mem:
    E.movRM(Dst, V.base(), V.Disp);
    break;
  case Value::Kind::InReg:
    if (V.R != Dst)
      E.movRR(Dst, V.R);
    break;
  }
}

void TraceCompiler::store(Reg Base, int32_t Disp, const Value &V) {
  if (V.is(Value::Kind::InReg)) {
    E.movMR(Base, Disp, V.R);
  } else if (V.is(Value::Kind::Const) && fitsImm32(V.Imm)) {
    E.movMI32(Base, Disp, static_cast<int32_t>(V.Imm));
  } else {
    load(Reg::Rax, V);
    E.movMR(Base, Disp, Reg::Rax);
  }
}

void TraceCompiler::spillReads(int32_t Disp, Value *Live) {
  for (Value &V : VStack) {
    if (!V.is(Value::Kind::Local) || V.Disp != Disp)
      continue;
    if (!FreeRegs) {
      // Writing the whole stack reads the local too.
      flushBelow(0, Live);
      return;
    }
    Reg R = take();
    E.movRM(R, LocalsReg, Disp);
    V = Value::reg(R);
  }
}

void TraceCompiler::moveArgs(std::vector<ArgMove> Moves) {
  auto ReadBy = [&Moves](Reg R, size_t Except) {
    for (size_t J = 0; J < Moves.size(); ++J)
      if (J != Except && Moves[J].Src.is(Value::Kind::InReg) &&
          Moves[J].Src.R == R)
        return true;
    return false;
  };
  while (!Moves.empty()) {
    size_t Ready = Moves.size();
    for (size_t I = 0; I < Moves.size() && Ready == Moves.size(); ++I)
      if (!ReadBy(Moves[I].Dst, I))
        Ready = I;
    if (Ready == Moves.size()) {
      // Every destination is still read by another move, so the moves
      // left form cycles of registers: park one source in rax, which
      // frees the move that writes that register.
      for (ArgMove &M : Moves)
        if (M.Src.is(Value::Kind::InReg)) {
          E.movRR(Reg::Rax, M.Src.R);
          M.Src.R = Reg::Rax;
          break;
        }
      continue;
    }
    load(Moves[Ready].Dst, Moves[Ready].Src);
    Moves.erase(Moves.begin() + static_cast<ptrdiff_t>(Ready));
  }
}

void TraceCompiler::prologue() {
  // Five pushes and the return address keep helper call sites
  // ABI-aligned.
  E.pushR(Reg::Rbx);
  E.pushR(Reg::Rbp);
  E.pushR(Reg::R13);
  E.pushR(Reg::R14);
  E.pushR(Reg::R15);
  E.movRR(CtxReg, Reg::Rdi);
  E.movRM(MachReg, CtxReg, CtxMach);
  E.movRM(FrameReg, CtxReg, CtxFrames);
  E.movRM(LocalsReg, CtxReg, CtxLocals);
  E.movRM(TopReg, CtxReg, CtxTop);
}

/// Pops conditional branch \p Op's operands and compares them, per the
/// table's arity and comparison kind; returns the condition under which
/// the branch jumps. The stack below the operands is in memory first, so
/// a jump out of the trace on the flags leaves the branch's own state.
Cond TraceCompiler::emitCompare(Opcode Op) {
  const unsigned Arity = branchArity(Op);
  flushBelow(Arity);
  // A one-operand branch compares against zero.
  Value B = Arity == 2 ? pop() : Value::constant(0);
  Value A = pop();
  const bool AInMemory = A.is(Value::Kind::Local) || A.is(Value::Kind::Mem);
  const bool BImm = B.is(Value::Kind::Const) && fitsImm32(B.Imm);
  if (AInMemory && B.is(Value::Kind::InReg)) {
    E.cmpMR(A.base(), A.Disp, B.R);
  } else if (AInMemory && BImm) {
    E.cmpMI(A.base(), A.Disp, static_cast<int32_t>(B.Imm));
  } else {
    Reg RA = A.is(Value::Kind::InReg) ? A.R : Reg::Rax;
    load(RA, A);
    if (BImm && B.Imm == 0) {
      E.testRR(RA, RA);
    } else if (BImm) {
      E.cmpRI(RA, static_cast<int32_t>(B.Imm));
    } else if (B.is(Value::Kind::InReg)) {
      E.cmpRR(RA, B.R);
    } else if (B.is(Value::Kind::Const)) {
      // Nothing but the operands holds a register now.
      Reg T = take();
      E.movRI(T, B.Imm);
      E.cmpRR(RA, T);
      release(T);
    } else {
      E.cmpRM(RA, B.base(), B.Disp);
    }
  }
  release(A);
  release(B);
  return X86Cond[static_cast<size_t>(cmpKind(Op))];
}

void TraceCompiler::emitGuard(const IrOp &Op) {
  // The guard asserts the recorded direction; exit when the branch goes
  // the other way.
  Cond C = emitCompare(Op.I.Op);
  Cond ExitWhen = Op.GuardTaken ? negate(C) : C;

  uint32_t Idx = exitAt(Op, ExitRecord::Kind::Guard);
  Exits[Idx].Next = Op.Resume;
  jumpToExit(E.jcc(ExitWhen), Idx);
}

void TraceCompiler::emitCallStatic(const IrOp &Op) {
  // Machine::pushFrame as straight-line code: the callee's shape and the
  // caller's locals count are constants here. The caller's locals end,
  // where the callee's begin, is LocalsReg plus that count.
  const Module &Mod = PM.module();
  const Method &Callee = Mod.Methods[Op.Callee];
  const Method &Caller =
      Mod.Methods[PM.block(IR.Blocks[Op.SrcBlockIndex]).MethodId];
  assert(Caller.NumLocals + Callee.NumLocals < (1u << 27) &&
         IR.MaxPush < (1u << 27) && "frame offsets overflow a disp32");
  const int32_t Base = static_cast<int32_t>(8 * Caller.NumLocals);
  const int32_t Args = static_cast<int32_t>(Callee.NumArgs);
  const int32_t Locals = static_cast<int32_t>(Callee.NumLocals);
  // The template takes two registers besides the arguments'.
  if (std::popcount(FreeRegs) < 2)
    flushBelow(0);
  // The stack below the arguments goes to memory, and r14 to the
  // callee's operand base; the arguments go straight to its locals.
  flushBelow(static_cast<unsigned>(Args));
  SlowPath Slow;
  Slow.Op = &Op;
  Slow.Operands.resize(static_cast<size_t>(Args));
  for (int32_t I = Args; I-- > 0;)
    Slow.Operands[static_cast<size_t>(I)] = pop();
  ++FrameOpsSoFar;
  Slow.Trap = trapExit(Op, TrapKind::None);

  // Room for the frame record (the frame budget included), the callee's
  // locals and the trace's stack slack in the new frame run; otherwise
  // the helper grows an arena or raises StackOverflow.
  const Reg Frame = take(0), LocalsTop = take(0);
  E.movRM(Frame, FrameReg, FsTop);
  E.cmpRM(Frame, FrameReg, FsLimit);
  Slow.Entries.push_back(E.jcc(Cond::Eq));
  E.leaRM(LocalsTop, LocalsReg, Base + 8 * Locals);
  E.cmpRM(LocalsTop, FrameReg, FsLocalsEnd);
  Slow.Entries.push_back(E.jcc(Cond::Ab));
  E.leaRM(Reg::Rax, TopReg, 8 * static_cast<int32_t>(IR.MaxPush));
  E.cmpRM(Reg::Rax, FrameReg, FsOperandsEnd);
  Slow.Entries.push_back(E.jcc(Cond::Ab));

  // The arguments (deepest first) become the callee's first locals, and
  // the rest are zeroed: unrolled, or a loop up to the new LocalsTop for
  // a method with many locals.
  for (int32_t I = 0; I < Args; ++I) {
    const Value &A = Slow.Operands[static_cast<size_t>(I)];
    store(LocalsReg, Base + 8 * I, A);
    release(A);
  }
  if (Locals > Args) {
    E.xorRR(Reg::Rax, Reg::Rax);
    if (Locals - Args <= 16) {
      for (int32_t I = Args; I < Locals; ++I)
        E.movMR(LocalsReg, Base + 8 * I, Reg::Rax);
    } else {
      const Reg At = take(0);
      E.leaRM(At, LocalsReg, Base + 8 * Args);
      size_t Loop = E.size();
      E.movMR(At, 0, Reg::Rax);
      E.addRI(At, 8);
      E.cmpRR(At, LocalsTop);
      E.patchRel32(E.jcc(Cond::Ne), Loop);
      release(At);
    }
  }
  if (Base)
    E.addRI(LocalsReg, Base);

  // The frame record, the frame top and the cached top-frame fields.
  E.movMR(Frame, FrLocals, LocalsReg);
  E.movMR(Frame, FrOperandBase, TopReg);
  E.movM32I(Frame, FrMethod, Op.Callee);
  E.movM32I(Frame, FrReturnPc, Op.ReturnPc);
  E.movM32I(Frame, FrReturnBlock, Op.ReturnBlock);
  E.addRI(Frame, FrSize);
  E.movMR(FrameReg, FsTop, Frame);
  E.movMR(FrameReg, FsLocalsTop, LocalsTop);
  E.movMR(FrameReg, FsCurLocals, LocalsReg);
  E.movMR(FrameReg, FsCurOperandBase, TopReg);
  E.movM32I(FrameReg, FsCurMethod, Op.Callee);
  release(Frame);
  release(LocalsTop);
  Slow.Resume = E.size();
  SlowPaths.push_back(std::move(Slow));
}

void TraceCompiler::emitRet(const IrOp &Op) {
  // Machine::popFrame as straight-line code, then the return-site guard.
  const int32_t HasValue = Op.HasValue ? 1 : 0;
  flushBelow(static_cast<unsigned>(HasValue));
  SlowPath Slow;
  Slow.Op = &Op;
  if (HasValue)
    Slow.Operands.push_back(pop());
  ++FrameOpsSoFar;
  Slow.Finished = exitAt(Op, ExitRecord::Kind::Finished);
  if (Op.ExpectBlock != InvalidBlockId)
    Slow.Diverge = exitAt(Op, ExitRecord::Kind::DivergeAt);

  // The bottom frame finishes the program, and a caller frame without
  // room for the trace's stack slack needs the operand arena grown: both
  // go to the helper.
  const Reg Popped = take(0), Base = take(0), T = take(0);
  E.movRM(Reg::Rax, FrameReg, FsTop);
  E.leaRM(Popped, Reg::Rax, -FrSize);
  E.cmpRM(Popped, FrameReg, FsFrames);
  Slow.Entries.push_back(E.jcc(Cond::Eq));
  E.movRM(Base, Popped, FrOperandBase);
  E.leaRM(T, Base, 8 * (HasValue + static_cast<int32_t>(IR.MaxPush)));
  E.cmpRM(T, FrameReg, FsOperandsEnd);
  Slow.Entries.push_back(E.jcc(Cond::Ab));

  // The value goes straight to the caller's operand base.
  if (HasValue) {
    store(Base, 0, Slow.Operands[0]);
    release(Slow.Operands[0]);
    E.leaRM(TopReg, Base, 8);
  } else {
    E.movRR(TopReg, Base);
  }
  E.movMR(FrameReg, FsTop, Popped);
  // The popped frame's locals base, still in LocalsReg, is the new top.
  E.movMR(FrameReg, FsLocalsTop, LocalsReg);
  E.movRM(LocalsReg, Popped, FrLocals - FrSize);
  E.movMR(FrameReg, FsCurLocals, LocalsReg);
  E.movRM(T, Popped, FrOperandBase - FrSize);
  E.movMR(FrameReg, FsCurOperandBase, T);
  E.movR32M(T, Popped, FrMethod - FrSize);
  E.movM32R(FrameReg, FsCurMethod, T);
  E.movR32M(Base, Popped, FrReturnBlock);
  E.movMR(CtxReg, CtxPayload, Base);
  if (Op.ExpectBlock != InvalidBlockId) {
    assert(Op.ExpectBlock <= INT32_MAX && "block id outside an imm32");
    E.cmpRI(Base, static_cast<int32_t>(Op.ExpectBlock));
    jumpToExit(E.jcc(Cond::Ne), Slow.Diverge);
  }
  release(Popped);
  release(Base);
  release(T);
  Slow.Resume = E.size();
  SlowPaths.push_back(std::move(Slow));
}

void TraceCompiler::emitCallVirtual(const IrOp &Op) {
  // The helper works on the Machine's real stack: all of it in memory,
  // and the live top published.
  flushBelow(0);
  ++FrameOpsSoFar;
  E.movMR(CtxReg, CtxTop, TopReg);
  E.movRR(Reg::Rdi, CtxReg);
  E.movRI(Reg::Rsi, Op.I.A); // vtable slot
  E.movRI(Reg::Rdx, Op.ReturnPc);
  E.movRI(Reg::Rcx, Op.ReturnBlock);
  E.movRI(Reg::R8, Op.Callee); // expected callee (InvalidMethod: none)
  E.movRI(Reg::R9, IR.MaxPush);
  helperCall(reinterpret_cast<const void *>(&jtcJitCallVirtual));
  // The frame op moved the frame and may have reallocated the arenas;
  // re-derive the pinned pointers before dispatching on the return code
  // (0 continue, 1 trap, 2 diverge).
  E.movRM(LocalsReg, CtxReg, CtxLocals);
  E.movRM(TopReg, CtxReg, CtxTop);
  E.cmpRI(Reg::Rax, 1);
  jumpToExit(E.jcc(Cond::Eq), trapExit(Op, TrapKind::None));
  if (Op.Callee != InvalidMethod) {
    E.cmpRI(Reg::Rax, 2);
    jumpToExit(E.jcc(Cond::Eq), exitAt(Op, ExitRecord::Kind::DivergeCallee));
  }
}

void TraceCompiler::emitSlowPaths() {
  for (const SlowPath &Slow : SlowPaths) {
    for (size_t Fix : Slow.Entries)
      E.bind(Fix);
    const IrOp &Op = *Slow.Op;
    // The helper takes its operands from the Machine's stack. The room
    // checks clobbered only scratch registers, so the operands are where
    // the template found them; those still in memory are in place.
    const auto NumOperands = static_cast<int32_t>(Slow.Operands.size());
    for (int32_t I = 0; I < NumOperands; ++I) {
      const Value &V = Slow.Operands[static_cast<size_t>(I)];
      if (V.is(Value::Kind::Mem))
        assert(V.Disp == 8 * I && "operand out of place");
      else
        store(TopReg, 8 * I, V);
    }
    if (NumOperands)
      E.addRI(TopReg, 8 * NumOperands);
    E.movMR(CtxReg, CtxTop, TopReg);
    E.movRR(Reg::Rdi, CtxReg);
    if (Op.K == IrOp::Kind::CallStatic) {
      E.movRI(Reg::Rsi, Op.Callee);
      E.movRI(Reg::Rdx, Op.ReturnPc);
      E.movRI(Reg::Rcx, Op.ReturnBlock);
      E.movRI(Reg::R8, IR.MaxPush);
      helperCall(reinterpret_cast<const void *>(&jtcJitCallStatic));
    } else {
      E.movRI(Reg::Rsi, Op.HasValue ? 1 : 0);
      E.movRI(Reg::Rdx, Op.ExpectBlock);
      E.movRI(Reg::Rcx, IR.MaxPush);
      helperCall(reinterpret_cast<const void *>(&jtcJitRet));
    }
    E.movRM(LocalsReg, CtxReg, CtxLocals);
    E.movRM(TopReg, CtxReg, CtxTop);
    if (Op.K == IrOp::Kind::CallStatic) {
      E.testRR(Reg::Rax, Reg::Rax);
      jumpToExit(E.jcc(Cond::Ne), Slow.Trap);
    } else {
      E.cmpRI(Reg::Rax, 3);
      jumpToExit(E.jcc(Cond::Eq), Slow.Finished);
      if (Op.ExpectBlock != InvalidBlockId) {
        E.cmpRI(Reg::Rax, 2);
        jumpToExit(E.jcc(Cond::Eq), Slow.Diverge);
      }
    }
    E.patchRel32(E.jmp(), Slow.Resume);
  }
}

void TraceCompiler::emitSwitch(const IrOp &Op) {
  const SwitchCode &SC = PM.switchCode(Op.SwitchIdx);
  flushBelow(1);
  Value Selector = pop();
  moveArgs({{Reg::Rcx, Selector},
            {Reg::Rdi, Value::reg(CtxReg)},
            {Reg::Rsi, Value::constant(static_cast<int64_t>(
                           reinterpret_cast<uintptr_t>(&SC)))},
            {Reg::Rdx, Value::constant(static_cast<int64_t>(
                           reinterpret_cast<uintptr_t>(PM.switchTargets() +
                                                       SC.FirstTarget)))},
            {Reg::R8, Value::constant(Op.ExpectBlock)}});
  release(Selector);
  helperCall(reinterpret_cast<const void *>(&jtcJitSwitch));
  if (Op.ExpectBlock != InvalidBlockId) {
    E.testRR(Reg::Rax, Reg::Rax);
    jumpToExit(E.jcc(Cond::Ne), exitAt(Op, ExitRecord::Kind::DivergeAt));
  }
}

void TraceCompiler::emitAlu(Opcode Op) {
  Value B = pop(), A = pop();
  if (A.is(Value::Kind::Const) && B.is(Value::Kind::Const)) {
    int64_t R = 0;
    evalBinary(Op, A.Imm, B.Imm, R);
    push(Value::constant(R));
    return;
  }
  // A commuting op takes the register operand as its destination, and
  // the constant as its immediate.
  if (Op != Opcode::Isub &&
      (A.is(Value::Kind::Const) ||
       (!A.is(Value::Kind::InReg) && B.is(Value::Kind::InReg))))
    std::swap(A, B);
  Reg D = ownReg(A, &B);
  const AluForms F = aluForms(Op);
  if (B.is(Value::Kind::Const) && fitsImm32(B.Imm)) {
    (E.*F.RI)(D, static_cast<int32_t>(B.Imm));
  } else if (B.is(Value::Kind::Local) || B.is(Value::Kind::Mem)) {
    (E.*F.RM)(D, B.base(), B.Disp);
  } else {
    Reg S = B.is(Value::Kind::InReg) ? B.R : Reg::Rax;
    load(S, B);
    (E.*F.RR)(D, S);
  }
  release(B);
  push(Value::reg(D));
}

void TraceCompiler::emitShift(Opcode Op) {
  // A 64-bit shift uses the count's low six bits, which is the table's
  // shift rule. A constant count is an immediate; any other goes to cl,
  // with the stack below in memory so that rcx is free.
  if (VStack.empty() || !VStack.back().is(Value::Kind::Const)) {
    flushBelow(2);
    Value N = pop(), V = pop();
    load(Reg::Rax, V);
    release(V);
    load(Reg::Rcx, N);
    release(N);
    if (Op == Opcode::Ishl)
      E.shlCl(Reg::Rax);
    else if (Op == Opcode::Iushr)
      E.shrCl(Reg::Rax);
    else
      E.sarCl(Reg::Rax);
    pushRax();
    return;
  }
  Value N = pop(), V = pop();
  if (V.is(Value::Kind::Const)) {
    int64_t R = 0;
    evalBinary(Op, V.Imm, N.Imm, R);
    push(Value::constant(R));
    return;
  }
  Reg D = ownReg(V);
  const auto Count = static_cast<uint8_t>(N.Imm & 63);
  if (Op == Opcode::Ishl)
    E.shlRI(D, Count);
  else if (Op == Opcode::Iushr)
    E.shrRI(D, Count);
  else
    E.sarRI(D, Count);
  push(Value::reg(D));
}

void TraceCompiler::emitDivRem(const IrOp &Op) {
  // Division can trap: the stack below the operands goes to memory, and
  // a zero divisor leaves with both operands popped, as the block
  // executor does.
  const bool Rem = Op.I.Op == Opcode::Irem;
  flushBelow(2);
  Value B = pop(), A = pop();
  load(Reg::Rax, A);
  release(A);
  // idiv takes rdx:rax, so the divisor sits anywhere else.
  const Reg Div =
      B.is(Value::Kind::InReg) && B.R != Reg::Rdx ? B.R : Reg::Rcx;
  load(Div, B);
  E.testRR(Div, Div);
  jumpToExit(E.jcc(Cond::Eq), trapExit(Op, TrapKind::DivideByZero));
  // idiv faults on the table's overflow pair; that pair takes the
  // table's result instead.
  E.cmpRI(Div, DivOverflowDivisor);
  size_t NotMinus1 = E.jcc(Cond::Ne);
  E.movRI(Reg::Rdx, DivOverflowDividend);
  E.cmpRR(Reg::Rax, Reg::Rdx);
  size_t NotMin = E.jcc(Cond::Ne);
  int64_t Overflow = 0;
  evalBinary(Op.I.Op, DivOverflowDividend, DivOverflowDivisor, Overflow);
  if (Overflow != DivOverflowDividend) // rax already holds the dividend
    E.movRI(Reg::Rax, Overflow);
  size_t Special = E.jmp();
  E.bind(NotMinus1);
  E.bind(NotMin);
  E.cqo();
  E.idivR(Div);
  if (Rem)
    E.movRR(Reg::Rax, Reg::Rdx);
  E.bind(Special);
  release(B);
  pushRax();
}

void TraceCompiler::emitOp(const IrOp &Op) {
  switch (Op.K) {
  case IrOp::Kind::Guard:
    emitGuard(Op);
    return;
  case IrOp::Kind::CallStatic:
    emitCallStatic(Op);
    return;
  case IrOp::Kind::Ret:
    emitRet(Op);
    return;
  case IrOp::Kind::CallVirtual:
    emitCallVirtual(Op);
    return;
  case IrOp::Kind::Switch:
    emitSwitch(Op);
    return;
  case IrOp::Kind::Instr:
    break;
  }

  const Instruction &I = Op.I;
  // Byte offset of a local slot; only meaningful for the local-slot ops
  // (A is an arbitrary constant elsewhere, e.g. iconst's).
  auto LocalOff = [&I] { return static_cast<int32_t>(int64_t{I.A} * 8); };
  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::Iconst:
    push(Value::constant(I.A));
    break;
  case Opcode::Iload:
    push(Value::local(LocalOff()));
    break;
  case Opcode::Istore: {
    Value V = pop();
    spillReads(LocalOff(), &V);
    if (!V.is(Value::Kind::Local) || V.Disp != LocalOff())
      store(LocalsReg, LocalOff(), V);
    release(V);
    break;
  }
  case Opcode::Iinc:
    spillReads(LocalOff(), nullptr);
    E.addMI(LocalsReg, LocalOff(), I.B);
    break;
  case Opcode::Pop:
    release(pop());
    break;
  case Opcode::Dup:
    if (VStack.empty()) {
      // The top is in memory, where it stays; the copy goes in a
      // register.
      Reg R = take();
      E.movRM(R, TopReg, 8 * (Adj - 1));
      push(Value::reg(R));
    } else if (const Value Top = VStack.back(); !Top.is(Value::Kind::InReg)) {
      push(Top);
    } else if (FreeRegs) {
      Reg R = take();
      E.movRR(R, Top.R);
      push(Value::reg(R));
    } else {
      flushBelow(0);
      Reg R = take();
      E.movRM(R, TopReg, -8);
      push(Value::reg(R));
    }
    break;
  case Opcode::Swap: {
    Value B = pop(), A = pop();
    if (B.is(Value::Kind::Mem))
      ownReg(B, &A);
    if (A.is(Value::Kind::Mem))
      ownReg(A, &B);
    push(B);
    push(A);
    break;
  }

  case Opcode::Iadd:
  case Opcode::Isub:
  case Opcode::Imul:
  case Opcode::Iand:
  case Opcode::Ior:
  case Opcode::Ixor:
    emitAlu(I.Op);
    break;

  case Opcode::Idiv:
  case Opcode::Irem:
    emitDivRem(Op);
    break;

  case Opcode::Ineg: {
    Value V = pop();
    if (V.is(Value::Kind::Const)) {
      push(Value::constant(evalNeg(V.Imm)));
      break;
    }
    Reg D = ownReg(V);
    E.negR(D);
    push(Value::reg(D));
    break;
  }

  case Opcode::Ishl:
  case Opcode::Ishr:
  case Opcode::Iushr:
    emitShift(I.Op);
    break;

  case Opcode::Iaload:
  case Opcode::Iastore:
  case Opcode::ArrayLength:
  case Opcode::GetField:
  case Opcode::PutField:
    switch (Op.Elide) {
    case ElideLevel::None:
      emitHeapAccess<ElideLevel::None>(Op);
      break;
    case ElideLevel::NullOnly:
      emitHeapAccess<ElideLevel::NullOnly>(Op);
      break;
    case ElideLevel::Full:
      emitHeapAccess<ElideLevel::Full>(Op);
      break;
    }
    break;
  case Opcode::New:
    flushBelow(0);
    E.movRR(Reg::Rdi, MachReg);
    E.movRI(Reg::Rsi, I.A); // ClassId
    helperCall(reinterpret_cast<const void *>(&jtcJitNew));
    helperTrapCheck(Op, Reg::Rdx);
    pushRax();
    break;
  case Opcode::NewArray: {
    flushBelow(1);
    Value Len = pop();
    moveArgs({{Reg::Rsi, Len}, {Reg::Rdi, Value::reg(MachReg)}});
    release(Len);
    helperCall(reinterpret_cast<const void *>(&jtcJitNewArray));
    helperTrapCheck(Op, Reg::Rdx);
    pushRax();
    break;
  }
  case Opcode::Iprint: {
    flushBelow(1);
    Value V = pop();
    moveArgs({{Reg::Rsi, V}, {Reg::Rdi, Value::reg(MachReg)}});
    release(V);
    helperCall(reinterpret_cast<const void *>(&jtcJitIprint));
    break;
  }

  // Control transfers never lower to Instr ops: lowerTrace turns them
  // into guards, frame ops and the completion rule.
  case Opcode::Goto:
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
  case Opcode::IfIcmpEq:
  case Opcode::IfIcmpNe:
  case Opcode::IfIcmpLt:
  case Opcode::IfIcmpGe:
  case Opcode::IfIcmpGt:
  case Opcode::IfIcmpLe:
  case Opcode::Tableswitch:
  case Opcode::InvokeStatic:
  case Opcode::InvokeVirtual:
  case Opcode::Return:
  case Opcode::Ireturn:
  case Opcode::Halt:
    assert(false && "control transfer lowered as an instruction");
    break;
  }
}

template <ElideLevel L> void TraceCompiler::emitHeapAccess(const IrOp &Op) {
  // Counted before the op's trap exit, as the block executor counts an
  // elision before a kept bounds check can trap.
  ElidedSoFar += elisionWeight(Op.I.Op, L);
  const bool CanTrap = elisionWeight(Op.I.Op, L) < heapChecks(Op.I.Op);
  const Value Mach = Value::reg(MachReg);
  switch (Op.I.Op) {
  case Opcode::Iaload: {
    flushBelow(2);
    Value Idx = pop(), Ref = pop();
    moveArgs({{Reg::Rsi, Ref}, {Reg::Rdx, Idx}, {Reg::Rdi, Mach}});
    release(Idx);
    release(Ref);
    helperCall(reinterpret_cast<const void *>(&jtcJitIaload<L>));
    if (CanTrap)
      helperTrapCheck(Op, Reg::Rdx);
    pushRax();
    break;
  }
  case Opcode::Iastore: {
    flushBelow(3);
    Value V = pop(), Idx = pop(), Ref = pop();
    moveArgs(
        {{Reg::Rsi, Ref}, {Reg::Rdx, Idx}, {Reg::Rcx, V}, {Reg::Rdi, Mach}});
    release(V);
    release(Idx);
    release(Ref);
    helperCall(reinterpret_cast<const void *>(&jtcJitIastore<L>));
    if (CanTrap)
      helperTrapCheck(Op, Reg::Rax);
    break;
  }
  case Opcode::ArrayLength: {
    flushBelow(1);
    Value Ref = pop();
    moveArgs({{Reg::Rsi, Ref}, {Reg::Rdi, Mach}});
    release(Ref);
    helperCall(reinterpret_cast<const void *>(&jtcJitArrayLength<L>));
    if (CanTrap)
      helperTrapCheck(Op, Reg::Rdx);
    pushRax();
    break;
  }
  case Opcode::GetField: {
    flushBelow(1);
    Value Ref = pop();
    moveArgs({{Reg::Rsi, Ref},
              {Reg::Rdx, Value::constant(Op.I.A)},
              {Reg::Rdi, Mach}});
    release(Ref);
    helperCall(reinterpret_cast<const void *>(&jtcJitGetField<L>));
    if (CanTrap)
      helperTrapCheck(Op, Reg::Rdx);
    pushRax();
    break;
  }
  default: {
    assert(Op.I.Op == Opcode::PutField && "not a heap access");
    flushBelow(2);
    Value V = pop(), Ref = pop();
    moveArgs({{Reg::Rsi, Ref},
              {Reg::Rdx, Value::constant(Op.I.A)},
              {Reg::Rcx, V},
              {Reg::Rdi, Mach}});
    release(V);
    release(Ref);
    helperCall(reinterpret_cast<const void *>(&jtcJitPutField<L>));
    if (CanTrap)
      helperTrapCheck(Op, Reg::Rax);
    break;
  }
  }
}

void TraceCompiler::emitCompletion() {
  // How the final block's terminator selects the successor. All counts
  // are the full-trace counts; only the successor differs. When the final
  // op was a frame op, the op itself already executed (its template) and
  // the successor is dynamic -- the exit record defers to the payload the
  // helper recorded.
  ExitRecord Done;
  Done.K = ExitRecord::Kind::Complete;
  Done.BlocksRun = static_cast<uint32_t>(IR.Blocks.size());
  Done.Instructions = IR.InstrCount;

  if (IR.Complete == TraceIR::CompleteKind::Branch) {
    Cond C = emitCompare(IR.FinalTerm.Op);
    ExitRecord Taken = Done;
    Taken.Next = IR.NextTaken;
    jumpToExit(E.jcc(C), addExit(Taken));
    Done.Next = IR.NextFall;
    jumpToExit(E.jmp(), addExit(Done));
    return;
  }
  flushBelow(0);
  if (IR.Complete == TraceIR::CompleteKind::Static)
    Done.Next = IR.NextFall;
  else if (IR.Complete == TraceIR::CompleteKind::Callee)
    Done.K = ExitRecord::Kind::CompleteCallee;
  else
    Done.K = ExitRecord::Kind::CompleteAt;
  jumpToExit(E.jmp(), addExit(Done));
}

void TraceCompiler::emitStubsAndEpilogue() {
  // One stub per exit record: store the record index, join the epilogue.
  std::vector<size_t> StubAt(Exits.size());
  std::vector<size_t> ToEpilogue;
  ToEpilogue.reserve(Exits.size());
  for (size_t K = 0; K < Exits.size(); ++K) {
    StubAt[K] = E.size();
    E.movMI32(CtxReg, CtxExit, static_cast<int32_t>(K));
    ToEpilogue.push_back(E.jmp());
  }
  size_t Epilogue = E.size();
  for (size_t Fix : ToEpilogue)
    E.patchRel32(Fix, Epilogue);
  for (const auto &[Fix, ExitIdx] : ExitFixups)
    E.patchRel32(Fix, StubAt[ExitIdx]);

  E.movMR(CtxReg, CtxTop, TopReg);
  E.popR(Reg::R15);
  E.popR(Reg::R14);
  E.popR(Reg::R13);
  E.popR(Reg::Rbp);
  E.popR(Reg::Rbx);
  E.ret();
}

void TraceCompiler::emit() {
  prologue();
  for (const IrOp &Op : IR.Ops)
    emitOp(Op);
  emitCompletion();
  emitSlowPaths();
  emitStubsAndEpilogue();
}

} // namespace

//===----------------------------------------------------------------------===//
// JitBackend
//===----------------------------------------------------------------------===//

const char *compileFallbackName(CompileFallback F) {
  switch (F) {
  case CompileFallback::None:
    return "none";
  case CompileFallback::HostUnsupported:
    return "host-unsupported";
  case CompileFallback::HaltInTrace:
    return "halt-in-trace";
  case CompileFallback::SwitchGuard:
    return "switch-guard";
  case CompileFallback::TraceShape:
    return "trace-shape";
  case CompileFallback::CodeSpace:
    return "code-space";
  }
  return "unknown";
}

const ErrorDomain &compileFallbackDomain() {
  static const ErrorDomain Dom = {"backend", [](uint32_t Code) {
                                    return compileFallbackName(
                                        static_cast<CompileFallback>(Code));
                                  }};
  return Dom;
}

bool jitSupportedHost() {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

JitBackend::JitBackend(const PreparedModule &PM, const BackendConfig &Config)
    : PM(PM), Config(Config), ProofConfig(Config.Opt.fingerprint()),
      Code(moduleCode(PM)) {}

JitBackend::~JitBackend() = default;

const CompiledTrace *JitBackend::compile(const Trace &T, CodeKey Key,
                                         CompileFallback &Why) {
  // Nothing past the cap would be installed, so nothing is lowered or
  // proved for it either.
  if (Code.full()) {
    Why = CompileFallback::CodeSpace;
    return nullptr;
  }
  LowerResult L = lowerTrace(PM, T, &PM.facts());
  if (!L.ok()) {
    Why = L.Why;
    return nullptr;
  }
  CompiledTrace C;
  C.Proof = prove(T, L.IR);
  credit(T, C.Proof);

  TraceCompiler TC(L.IR, PM);
  TC.emit();
  const void *Entry = Code.install(TC.code());
  if (!Entry) {
    Why = CompileFallback::CodeSpace;
    return nullptr;
  }
  C.Fn = reinterpret_cast<TraceFn>(reinterpret_cast<uintptr_t>(Entry));
  C.Exits = TC.takeExits();
  C.MaxPush = L.IR.MaxPush;
  C.InstrCount = L.IR.InstrCount;
  C.CodeSize = static_cast<uint32_t>(TC.code().size());
  return Code.publish(std::move(Key), std::move(C));
}

TraceProof JitBackend::prove(const Trace &T, TraceIR &IR) const {
  TraceProof P;
  if (Config.Validate != ValidateMode::Off) {
    P.Validated = true;
    P.Verdict = validate::validateTrace(PM, T, Config.Opt, &PM.facts());
    // A rejected trace still compiles -- no tier runs the optimized
    // form -- but fully checked: a failed proof means the analysis and
    // the optimizer disagree somewhere.
    if (!P.Verdict.Ok)
      return P;
  }
  if (Config.MemElide) {
    P.MemFacts = traceMemFacts(PM, T.Blocks);
    applyMemFacts(IR, P.MemFacts);
  }
  return P;
}

void JitBackend::credit(const Trace &T, const TraceProof &P) {
  Stats.MemElisionSites += P.MemFacts.size();
  if (!P.Validated)
    return;
  ++Stats.TracesValidated;
  if (P.Verdict.Ok) {
    JTC_RECORD_EVENT(Telem, EventKind::TraceValidated, T.Id,
                     static_cast<uint32_t>(T.Blocks.size()));
    return;
  }
  if (Config.Validate == ValidateMode::Strict) {
    std::fprintf(stderr,
                 "jtc: --validate=strict: trace %u rejected by translation "
                 "validation: %s (segment %u)\n",
                 T.Id, P.Verdict.typed().qualifiedMessage().c_str(),
                 P.Verdict.SegmentIndex);
    std::abort();
  }
  const uint32_t Reason = static_cast<uint32_t>(P.Verdict.Why);
  ++Stats.ValidationRejects;
  ++Stats.RejectsByReason[Reason];
  JTC_RECORD_EVENT(Telem, EventKind::TraceValidationRejected, T.Id, Reason);
}

const CompiledTrace *JitBackend::promote(const Trace &T) {
  // What a promotion that got no code leaves: the trace stays
  // block-stepped, and is not promoted again.
  static const CompiledTrace NotCompiled;
  CompileFallback Why = CompileFallback::HostUnsupported;
  const CompiledTrace *C = nullptr;
  if (!Config.SimulateUnsupportedHost && jitSupportedHost()) {
    CodeKey Key{T.Blocks, ProofConfig, Config.Validate != ValidateMode::Off,
                Config.MemElide};
    C = Code.find(Key);
    if (C) {
      ++Stats.CodeReused;
      credit(T, C->Proof);
    } else {
      C = compile(T, std::move(Key), Why);
    }
  }
  if (!C) {
    ++Stats.CompileFallbacks;
    JTC_RECORD_EVENT(Telem, EventKind::TraceCompileFallback, T.Id,
                     static_cast<uint32_t>(Why));
    return &NotCompiled;
  }
  ++Stats.TracesCompiled;
  Stats.CodeBytes += C->CodeSize;
  Stats.CodeInstrs += C->InstrCount;
  JTC_RECORD_EVENT(Telem, EventKind::TraceCompiled, T.Id, C->CodeSize);
  return C;
}

const CompiledTrace *JitBackend::compiled(const Trace &T) {
  if (T.Id < Compiled.size() && Compiled[T.Id])
    return Compiled[T.Id];
  if (T.Completed < Config.JitPromoteAfter)
    return nullptr; // not hot yet; keep interpreting
  if (T.Id >= Compiled.size())
    Compiled.resize(T.Id + 1);
  return Compiled[T.Id] = promote(T);
}

std::optional<TraceRunResult> JitBackend::run(const Trace &T,
                                              BlockStepper &Stepper,
                                              uint64_t RemainingBudget) {
  const CompiledTrace *C = compiled(T);
  // Decline when the trace has no native code (yet), or when the session
  // budget could cut the run mid-trace -- the budget check is
  // block-granular, which native code does not replicate. A budget the
  // whole trace exactly fits is safe: TraceVM checks the budget after
  // the run, as after any block.
  if (!C || !C->Fn || T.InstrCount > RemainingBudget)
    return std::nullopt;

  ++Stats.CompiledDispatches;
  Machine &M = Stepper.machine();
  // Reserve the trace's maximum stack growth so template code pushes with
  // raw stores; the pointers are taken *after* the reservation (only the
  // frame helpers move the arenas, and they republish the pointers
  // through the context).
  M.reserveOperands(C->MaxPush);

  JitContext JC;
  JC.Mach = &M;
  JC.Locals = M.localsBase();
  JC.StackTop = M.stackTop();
  JC.Frames = &M.frameState();
  C->Fn(&JC);

  // JC.StackTop points into the *current* allocation (frame helpers may
  // have reallocated the arena mid-run); the frame templates keep the
  // rest of the frame state current themselves.
  M.setStackTop(JC.StackTop);

  assert(JC.ExitIndex < C->Exits.size() && "bad exit index");
  const ExitRecord &X = C->Exits[JC.ExitIndex];
  Stepper.creditInstructions(X.Instructions);
  Stats.ChecksElided += X.ChecksElided;
  Stats.FrameOpsHelper += JC.FrameOpsHelper;
  Stats.FrameOpsInline += X.FrameOps - JC.FrameOpsHelper;

  TraceRunResult R;
  R.BlocksRun = X.BlocksRun;
  R.LastBlock = T.Blocks[X.BlocksRun - 1];
  switch (X.K) {
  case ExitRecord::Kind::Complete:
    R.End = TraceRunEnd::Completed;
    R.NextBlock = X.Next;
    break;
  case ExitRecord::Kind::Guard:
    R.End = TraceRunEnd::Diverged;
    R.NextBlock = X.Next;
    break;
  case ExitRecord::Kind::CompleteCallee:
  case ExitRecord::Kind::DivergeCallee:
    // The run ended right after a virtual call; the successor is the
    // entry block of the callee the helper resolved.
    R.End = X.K == ExitRecord::Kind::CompleteCallee ? TraceRunEnd::Completed
                                                    : TraceRunEnd::Diverged;
    R.NextBlock =
        PM.methodEntryBlock(static_cast<uint32_t>(JC.ExitPayload));
    break;
  case ExitRecord::Kind::CompleteAt:
  case ExitRecord::Kind::DivergeAt:
    // The run ended right after a return (the machine is back in the
    // caller and the successor is the frame's recorded return block) or
    // a tableswitch (the successor is the block it selected).
    R.End = X.K == ExitRecord::Kind::CompleteAt ? TraceRunEnd::Completed
                                                : TraceRunEnd::Diverged;
    R.NextBlock = static_cast<BlockId>(JC.ExitPayload);
    break;
  case ExitRecord::Kind::Finished:
    R.End = TraceRunEnd::Finished;
    break;
  case ExitRecord::Kind::Trap:
    R.End = TraceRunEnd::Trapped;
    if (X.TrapToSet != TrapKind::None)
      M.setTrap(X.TrapToSet);
    break;
  }
  return R;
}

} // namespace backend
} // namespace jtc
