//===- backend/TraceBackend.h - The trace-execution seam --------*- C++ -*-===//
///
/// \file
/// The execution seam between trace selection (src/trace, src/opt,
/// src/validate -- everything that decides *what* a trace is) and trace
/// execution (*how* a dispatched trace runs). AdaptiveEngine decides that
/// a transition enters a trace; from that point the whole trace run --
/// every block, every interior branch, the divergence or completion --
/// belongs to exactly one TraceBackend::run() call. The backend executes
/// instructions only; it never touches the profiler, the trace cache or
/// the statistics. TraceVM replays the backend's summary through the
/// AdaptiveEngine afterwards, block by block, so the adaptive state,
/// telemetry clocks and btrace stream are bit-identical regardless of
/// which backend ran -- that interp/JIT equivalence contract (same
/// VmStats digest, same btrace stream) is what the fuzz oracle enforces.
///
/// Two backends ship:
///  - InterpreterBackend: block-steps the trace through the block
///    executor (BlockStepper::step), exactly the plain dispatch loop. This
///    is the oracle tier.
///  - JitBackend (x86-64 only): promotes hot completed traces to template
///    machine code (see X64Emitter.h) and runs them natively; anything it
///    cannot compile -- and every pre-promotion dispatch -- is delegated
///    to an embedded InterpreterBackend, so fallback is invisible to the
///    caller.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_TRACEBACKEND_H
#define JTC_BACKEND_TRACEBACKEND_H

#include "backend/BackendKind.h"
#include "support/TypedError.h"
#include "trace/Trace.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace jtc {

namespace analysis {
class ModuleAnalysis;
}

class PreparedModule;
class Machine;
class BlockStepper;
class EventRing;

namespace backend {

/// Why a trace could not be promoted to native code. Codes are stable
/// (they surface in telemetry events and --json counters); new reasons go
/// at the end.
enum class CompileFallback : uint8_t {
  None = 0,        ///< Compiled.
  HostUnsupported, ///< Not an x86-64 build (or simulated unsupported).
  HaltInTrace,     ///< A trace block ends in halt.
  SwitchGuard,     ///< A tableswitch anywhere in the trace (records no
                   ///< direction a two-way guard could assert).
  TraceShape,      ///< A recorded successor is unreachable from its
                   ///< block's terminator -- a corrupted trace (fault
                   ///< injection); the interpreter tier reproduces its
                   ///< divergence behaviour exactly.
  NoTemplate,      ///< An op without a machine-code template survived
                   ///< lowering (compiler safety net; never expected).
  CodeSpace,       ///< Executable code buffer could not be allocated.
};

inline constexpr unsigned NumCompileFallbacks =
    static_cast<unsigned>(CompileFallback::CodeSpace) + 1;

/// Stable kebab-case reason name ("host-unsupported", "call-in-trace", ...).
const char *compileFallbackName(CompileFallback F);

/// The TypedError domain for compile-fallback reasons ("backend").
const ErrorDomain &compileFallbackDomain();

/// Tier accounting, folded into VmStats (digest-excluded: which tier ran
/// is a backend configuration, not an execution semantic).
struct BackendStats {
  uint64_t TracesCompiled = 0;     ///< Traces promoted to native code.
  uint64_t CompileFallbacks = 0;   ///< Traces that failed promotion.
  uint64_t CompiledDispatches = 0; ///< Trace runs executed natively.
  uint64_t InterpDispatches = 0;   ///< Trace runs executed by block-stepping.
  uint64_t CodeBytes = 0;          ///< Native code emitted.
  /// Dynamic heap-access checks skipped via trace MemElisions, summed
  /// over every run this backend served (both tiers count identically).
  uint64_t MemChecksElided = 0;
  uint64_t FallbacksByReason[NumCompileFallbacks] = {};
};

/// How one trace run ended.
enum class TraceRunEnd : uint8_t {
  Completed, ///< Every trace block executed; NextBlock is the successor of
             ///< the final block.
  Diverged,  ///< A successor mismatched the trace; NextBlock is where
             ///< execution actually went.
  Trapped,   ///< A runtime trap fired; Machine::trap() is set.
  Finished,  ///< The program ended inside the trace (halt / bottom return).
  Budget,    ///< The instruction budget was reached mid-trace (interpreter
             ///< backend only; the JIT never starts a run it cannot finish).
};

/// The summary TraceVM replays through the AdaptiveEngine. Instructions
/// and BlocksRun follow the interpreter's accounting exactly: a trapping
/// instruction is counted, and the block it trapped in counts as run.
struct TraceRunResult {
  TraceRunEnd End = TraceRunEnd::Completed;
  uint32_t BlocksRun = 0;      ///< Trace blocks executed (>= 1).
  uint64_t Instructions = 0;   ///< Instructions executed by this run.
  BlockId NextBlock = InvalidBlockId; ///< Successor (Completed / Diverged).
  /// Dynamic checks skipped via the trace's MemElisions during this run
  /// (digest-neutral accounting; see BackendStats::MemChecksElided).
  uint64_t ChecksElided = 0;
};

/// Everything a backend may touch while running one trace. The stepper is
/// positioned at the trace's first block; on return the caller
/// repositions it at TraceRunResult::NextBlock.
struct TraceRunContext {
  const PreparedModule &PM;
  Machine &Mach;
  BlockStepper &Stepper;
  /// Instructions this dispatch may still execute before the session
  /// budget cuts the run (the live loop's block-granular check).
  uint64_t RemainingBudget = ~0ull;
};

/// Backend construction knobs (a slice of VmOptions).
struct BackendConfig {
  /// Completed executions before a trace is promoted to native code.
  uint32_t JitPromoteAfter = 2;
  /// Test hook: pretend the host cannot run template code, forcing the
  /// HostUnsupported fallback path on any host.
  bool SimulateUnsupportedHost = false;
};

/// The trace-execution interface. One instance per VM session; never
/// shared across threads.
class TraceBackend {
public:
  virtual ~TraceBackend();

  /// Stable tier name ("interp", "jit") -- what actually executes, after
  /// Auto resolution.
  virtual const char *name() const = 0;

  /// Executes \p T (all of it, or as much as diverges / traps / fits the
  /// budget). \p T is the trace AdaptiveEngine just dispatched; the
  /// machine is at the entry state of T's first block.
  virtual TraceRunResult run(const Trace &T, TraceRunContext &Ctx) = 0;

  /// Attaches the session telemetry ring (TraceCompiled /
  /// TraceCompileFallback events); null detaches.
  virtual void setTelemetry(EventRing *R) { (void)R; }

  const BackendStats &stats() const { return Stats; }

protected:
  BackendStats Stats;
};

/// True when this build can emit and execute template code (x86-64 with
/// POSIX executable mappings).
bool jitSupportedHost();

/// The session's per-module analysis, computed on first call and shared
/// by everything in the session that needs it (validation, annotation,
/// JIT side-exit liveness), so a session computes it at most once.
using ModuleFactsFn = std::function<const analysis::ModuleAnalysis &()>;

/// Creates the backend for \p Kind over \p PM. Auto resolves to Jit when
/// jitSupportedHost() (and not Config.SimulateUnsupportedHost), Interp
/// otherwise. Jit on an unsupported host still constructs a JitBackend;
/// every promotion attempt then records a HostUnsupported fallback and
/// runs through its embedded interpreter tier. \p Facts supplies the
/// module analysis a compiling backend needs.
std::unique_ptr<TraceBackend> makeBackend(BackendKind Kind,
                                          const PreparedModule &PM,
                                          const BackendConfig &Config,
                                          ModuleFactsFn Facts);

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_TRACEBACKEND_H
