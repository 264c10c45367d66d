//===- backend/JitBackend.h - x86-64 template JIT trace tier ----*- C++ -*-===//
///
/// \file
/// The compiled trace tier: a copy-and-patch template JIT. Each trace IR
/// op has a fixed x86-64 machine-code template (see TraceCompiler in the
/// .cpp) whose immediates -- local slot offsets, constants, helper
/// addresses -- are patched at compile time; guards become a compare and
/// a conditional branch to a side-exit stub. Heap-touching ops (arrays,
/// fields, allocation, print) call extern "C" helpers that replicate
/// Machine::execOne exactly, so the heap/trap/output semantics have one
/// definition. Calls and returns inside the trace call frame helpers that
/// run the Machine's real pushFrame/popFrame, then guard the dynamic
/// continuation (resolved callee / return site) against what the trace
/// recorded.
///
/// Register convention inside a compiled trace (all callee-saved, so
/// helper calls preserve them):
///
///   rbx  JitContext*            r14  operand-stack top (one past top)
///   r13  frame locals base      r15  Machine*
///
/// The operand stack is the Machine's own arena, the same one the block
/// executor keeps in registers: before a native run the backend reserves
/// the trace's MaxPush so template code pushes with raw stores, and
/// publishes the native top back afterwards (Machine::setStackTop). Frame
/// helpers publish the live top, run the frame op, reserve MaxPush in the
/// new frame, and publish the (possibly reallocated) pointers back through
/// the JitContext; the template reloads its pinned registers after each
/// one. Every exit -- completion, fired guard, trap, finish -- leaves an
/// exit-record index in the JitContext; the record carries the
/// interpreter-exact blocks-run / instruction counts and resume block
/// that TraceVM replays through the AdaptiveEngine. Traces are promoted
/// after BackendConfig::JitPromoteAfter completed runs; anything that
/// cannot compile (see CompileFallback) and every pre-promotion dispatch
/// runs on the embedded interpreter tier.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_JITBACKEND_H
#define JTC_BACKEND_JITBACKEND_H

#include "backend/TraceBackend.h"
#include "runtime/Trap.h"

#include <memory>
#include <vector>

namespace jtc {
namespace backend {

/// The in/out block native trace code works against. Layout is ABI: the
/// templates address fields by constant offsets (asserted in the .cpp).
struct JitContext {
  Machine *Mach = nullptr;     ///< For runtime helpers.
  int64_t *Locals = nullptr;   ///< Current frame's locals base.
  int64_t *StackTop = nullptr; ///< One past the operand top; in/out.
  uint64_t ExitIndex = 0;      ///< Out: index into CompiledTrace::Exits.
  /// Out: the dynamic half of a frame-op exit -- the resolved callee
  /// method (CompleteCallee / DivergeCallee) or the actual return block
  /// (CompleteRet / DivergeRet). Written by the frame helpers, read by
  /// JitBackend::run() to compute the successor block.
  uint64_t ExitPayload = 0;
};

/// One way out of a compiled trace, with the interpreter-exact accounting
/// TraceVM needs to replay the run.
struct ExitRecord {
  enum class Kind : uint8_t {
    Complete,       ///< All blocks ran; Next is the final block's successor.
    CompleteCallee, ///< All blocks ran, last op a virtual call; the
                    ///< successor is the entry block of the resolved
                    ///< callee (JitContext::ExitPayload).
    CompleteRet,    ///< All blocks ran, last op a return; the successor
                    ///< is the return-site block (ExitPayload).
    Guard,          ///< A guard fired (divergence); Next is the resume block.
    DivergeCallee,  ///< A virtual call resolved off-trace; execution is in
                    ///< the resolved callee (ExitPayload) at its entry.
    DivergeRet,     ///< A return landed off-trace; execution is at the
                    ///< actual return-site block (ExitPayload).
    Finished,       ///< A return popped the bottom frame: program over.
    Trap,           ///< A runtime trap; TrapToSet names it (None when the
                    ///< helper that detected it already set Machine::trap()).
  };
  Kind K = Kind::Complete;
  uint32_t BlocksRun = 0;
  uint64_t Instructions = 0;
  /// Dynamic heap-access checks the elided templates skipped on the path
  /// to this exit (the compile-time prefix count; exact because elided
  /// ops are straight-line code between exits). Mirrors the stepper's
  /// checksElided() accounting for the same run.
  uint64_t ChecksElided = 0;
  BlockId Next = InvalidBlockId;
  TrapKind TrapToSet = TrapKind::None;
};

using TraceFn = void (*)(JitContext *);

/// One promotion outcome, cached per trace id. A null Fn records a failed
/// promotion: the trace stays on the interpreter tier without retrying.
struct CompiledTrace {
  TraceFn Fn = nullptr;
  std::vector<ExitRecord> Exits;
  uint32_t MaxPush = 0;
  uint64_t InstrCount = 0;
};

/// Bump-allocated executable memory: mmapped chunks, written RW and
/// flipped RX once the code is in place. Compilation never overlaps
/// native execution (single-threaded sessions), so re-flipping a chunk RW
/// to append another trace is safe.
class CodeArena {
public:
  CodeArena() = default;
  CodeArena(const CodeArena &) = delete;
  CodeArena &operator=(const CodeArena &) = delete;
  ~CodeArena();

  /// Copies \p Code into executable memory; null when the platform cannot
  /// provide it (the CodeSpace fallback).
  const void *install(const std::vector<uint8_t> &Code);

private:
  struct Chunk {
    uint8_t *Base = nullptr;
    size_t Size = 0;
    size_t Used = 0;
  };
  std::vector<Chunk> Chunks;
};

class JitBackend : public TraceBackend {
public:
  JitBackend(const PreparedModule &PM, const BackendConfig &Config,
             ModuleFactsFn Facts);
  ~JitBackend() override;

  const char *name() const override { return "jit"; }
  TraceRunResult run(const Trace &T, TraceRunContext &Ctx) override;
  void setTelemetry(EventRing *R) override { Telem = R; }

private:
  /// The cached promotion outcome for \p T, compiling on first sight of a
  /// hot trace; null while the trace is below the promotion threshold.
  const CompiledTrace *compiled(const Trace &T);
  CompileFallback tryCompile(const Trace &T, CompiledTrace &Out);

  const PreparedModule &PM;
  BackendConfig Config;
  EventRing *Telem = nullptr;
  /// Liveness/value facts for side-exit annotation (the session's shared
  /// analysis).
  ModuleFactsFn Facts;
  /// Promotion outcome per trace id (a cache's ids are dense and never
  /// reused); null until the trace is first seen hot.
  std::vector<std::unique_ptr<CompiledTrace>> Compiled;
  CodeArena Arena;
};

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_JITBACKEND_H
