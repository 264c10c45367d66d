//===- backend/JitBackend.h - x86-64 template JIT trace tier ----*- C++ -*-===//
///
/// \file
/// The optional native trace tier: a copy-and-patch template JIT. Trace
/// selection (src/trace, src/opt, src/validate) decides *what* a trace
/// is; TraceVM's dispatch loop runs it. On every trace entry the loop
/// asks the JIT, when the session has one, to run the whole trace
/// natively; when it declines, the loop block-steps the trace. Native
/// code executes instructions only -- it never touches the profiler, the
/// trace cache or the statistics. Either way the run ends in the same
/// TraceRunResult (trace/Trace.h), which TraceVM commits to the
/// AdaptiveEngine in bulk, so the adaptive state, telemetry clocks and
/// btrace stream are bit-identical whichever tier ran: the interp/JIT
/// equivalence contract (same VmStats digest, same btrace stream) that
/// the fuzz oracle enforces.
///
/// Each trace IR op has a fixed x86-64 machine-code template (see
/// TraceCompiler in the .cpp) whose immediates -- local slot offsets,
/// constants, helper addresses -- are patched at compile time; guards
/// become a compare and a conditional branch to a side-exit stub.
/// Heap-touching ops (arrays, fields, allocation, print) call C++
/// helpers that run the heap's own checks (runtime/Heap.h), and branch
/// compares come from the opcode semantics table
/// (bytecode/OpSemantics.h), so the block executor and the JIT share one
/// definition of each; Machine::execOne is the oracle both are tested
/// against. Calls and returns
/// inside the trace call frame helpers that run the Machine's real
/// pushFrame/popFrame, then guard the dynamic continuation (resolved
/// callee / return site) against what the trace recorded; a tableswitch
/// calls a helper that selects the block as the block executor does,
/// guarded the same way.
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
/// that TraceVM commits to the AdaptiveEngine. Traces are promoted
/// after BackendConfig::JitPromoteAfter completed runs; a trace that
/// cannot compile (see CompileFallback) stays block-stepped.
///
/// Promotion is the one place a trace is proved and annotated: once a
/// trace lowers, its translation-validation verdict and the alias
/// analysis' check-elision facts come from the module's proof memo
/// (PreparedModule::proofs(), computed on first sight of the trace's
/// shape), and an accepted trace compiles its provably redundant heap
/// checks away. The interp tier neither proves nor elides: it runs
/// every check, which costs it nothing a proof could save.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_JITBACKEND_H
#define JTC_BACKEND_JITBACKEND_H

#include "backend/BackendKind.h"
#include "runtime/Trap.h"
#include "support/TypedError.h"
#include "trace/Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace jtc {

class PreparedModule;
class Machine;
class BlockStepper;
class EventRing;

namespace backend {

struct TraceIR;

/// Why a trace could not be promoted to native code. Codes are stable
/// (they surface in telemetry events and --json counters); new reasons go
/// at the end.
enum class CompileFallback : uint8_t {
  None = 0,        ///< Compiled.
  HostUnsupported, ///< Not an x86-64 build (or simulated unsupported).
  HaltInTrace,     ///< A trace block ends in halt.
  SwitchGuard,     ///< Retired: a tableswitch now lowers to a switch
                   ///< guard. The code stays reserved.
  TraceShape,      ///< A recorded successor is unreachable from its
                   ///< block's terminator -- a corrupted trace (fault
                   ///< injection); block-stepping reproduces its
                   ///< divergence behaviour exactly.
  CodeSpace,       ///< Executable code buffer could not be allocated.
};

/// Stable kebab-case reason name ("host-unsupported", "switch-guard", ...).
const char *compileFallbackName(CompileFallback F);

/// The TypedError domain for compile-fallback reasons ("backend").
const ErrorDomain &compileFallbackDomain();

/// True when this build can emit and execute template code (x86-64 with
/// POSIX executable mappings).
bool jitSupportedHost();

/// Native-tier accounting, folded into VmStats (digest-excluded: which
/// tier ran, and what promotion proved, is a backend configuration, not
/// an execution semantic).
struct BackendStats {
  uint64_t TracesCompiled = 0;     ///< Traces promoted to native code.
  uint64_t CompileFallbacks = 0;   ///< Traces that failed promotion.
  uint64_t CompiledDispatches = 0; ///< Trace runs executed natively.
  uint64_t CodeBytes = 0;          ///< Native code emitted.
  uint64_t TracesValidated = 0;    ///< Promotions translation-validated.
  uint64_t ValidationRejects = 0;  ///< Of those, rejected.
  /// Rejections tallied by validate::Reason code (ordered so JSON
  /// emission is deterministic).
  std::map<uint32_t, uint64_t> RejectsByReason;
  /// Verdicts and elision facts the module's memo answered.
  uint64_t ProofsReused = 0;
  uint64_t MemElisionSites = 0; ///< Heap accesses compiled with elision.
  uint64_t ChecksElided = 0;    ///< Dynamic checks native code skipped.
};

/// The in/out block native trace code works against. Layout is ABI: the
/// templates address fields by constant offsets (asserted in the .cpp).
struct JitContext {
  Machine *Mach = nullptr;     ///< For runtime helpers.
  int64_t *Locals = nullptr;   ///< Current frame's locals base.
  int64_t *StackTop = nullptr; ///< One past the operand top; in/out.
  uint64_t ExitIndex = 0;      ///< Out: index into CompiledTrace::Exits.
  /// Out: the dynamic half of a frame-op or switch exit -- the resolved
  /// callee method (CompleteCallee / DivergeCallee), or the actual
  /// return-site or selected switch-target block (CompleteAt /
  /// DivergeAt). Written by the helpers, read by JitBackend::run() to
  /// compute the successor block.
  uint64_t ExitPayload = 0;
};

/// One way out of a compiled trace, with the interpreter-exact accounting
/// TraceVM needs to commit the run.
struct ExitRecord {
  enum class Kind : uint8_t {
    Complete,       ///< All blocks ran; Next is the final block's successor.
    CompleteCallee, ///< All blocks ran, last op a virtual call; the
                    ///< successor is the entry block of the resolved
                    ///< callee (JitContext::ExitPayload).
    CompleteAt,     ///< All blocks ran, last op a return or tableswitch;
                    ///< the successor is the block in ExitPayload.
    Guard,          ///< A guard fired (divergence); Next is the resume block.
    DivergeCallee,  ///< A virtual call resolved off-trace; execution is in
                    ///< the resolved callee (ExitPayload) at its entry.
    DivergeAt,      ///< A return or tableswitch left the trace; execution
                    ///< is at the block in ExitPayload.
    Finished,       ///< A return popped the bottom frame: program over.
    Trap,           ///< A runtime trap; TrapToSet names it (None when the
                    ///< helper that detected it already set Machine::trap()).
  };
  Kind K = Kind::Complete;
  uint32_t BlocksRun = 0;
  uint64_t Instructions = 0;
  /// Dynamic heap-access checks the elided templates skipped on the path
  /// to this exit (the compile-time prefix count; exact because elided
  /// ops are straight-line code between exits).
  uint64_t ChecksElided = 0;
  BlockId Next = InvalidBlockId;
  TrapKind TrapToSet = TrapKind::None;
};

using TraceFn = void (*)(JitContext *);

/// One promotion outcome, cached per trace id. A null Fn records a failed
/// promotion: the trace stays block-stepped without retrying.
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

/// The native tier of one VM session; never shared across threads. On a
/// host without template support (or under SimulateUnsupportedHost) every
/// promotion records a HostUnsupported fallback and run() always
/// declines.
class JitBackend {
public:
  /// Side-exit liveness comes from \p PM's shared analysis (facts()).
  JitBackend(const PreparedModule &PM, const BackendConfig &Config);
  ~JitBackend();

  /// Runs all of \p T natively, from the entry state of its first block
  /// (\p Stepper's current block), when T has been promoted and its
  /// whole run fits \p RemainingBudget instructions. The stepper is
  /// credited with the instructions; the caller
  /// repositions it at TraceRunResult::NextBlock. Otherwise returns
  /// nullopt, having executed nothing: the caller then block-steps the
  /// trace, so its block-granular budget check is the only one.
  std::optional<TraceRunResult> run(const Trace &T, BlockStepper &Stepper,
                                    uint64_t RemainingBudget);

  /// Attaches the session telemetry ring (TraceCompiled /
  /// TraceCompileFallback events); null detaches.
  void setTelemetry(EventRing *R) { Telem = R; }

  const BackendStats &stats() const { return Stats; }

private:
  /// The cached promotion outcome for \p T, compiling on first sight of a
  /// hot trace; null while the trace is below the promotion threshold.
  const CompiledTrace *compiled(const Trace &T);
  CompileFallback tryCompile(const Trace &T, CompiledTrace &Out);
  /// The promotion-time proof work on \p T, lowered into \p IR, through
  /// the module's memo (PreparedModule::proofs()): translation validation
  /// (aborting on a rejection under ValidateMode::Strict), then, unless
  /// validation rejected the trace, its check-elision facts applied to
  /// \p IR.
  void proveAndAnnotate(const Trace &T, TraceIR &IR);

  const PreparedModule &PM;
  BackendConfig Config;
  /// Config.Opt's part of the trace-shape key of the module's proofs.
  uint64_t ProofConfig;
  BackendStats Stats;
  EventRing *Telem = nullptr;
  /// Promotion outcome per trace id (a cache's ids are dense and never
  /// reused); null until the trace is first seen hot.
  std::vector<std::unique_ptr<CompiledTrace>> Compiled;
  CodeArena Arena;
};

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_JITBACKEND_H
