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
/// become a compare and a conditional branch to a side-exit stub. The
/// templates work on a compile-time (virtual) operand stack: a value an
/// op pushes stays a constant, a pending read of a local or a value in a
/// pool register, and the next op takes it as an immediate, a memory
/// operand or a register, so straight-line arithmetic never round-trips
/// through the operand stack in memory.
/// Heap-touching ops (arrays, fields, allocation, print) call C++
/// helpers that run the heap's own checks (runtime/Heap.h), and branch
/// compares come from the opcode semantics table
/// (bytecode/OpSemantics.h), so the block executor and the JIT share one
/// definition of each; Machine::execOne is the oracle both are tested
/// against.
///
/// Static calls and returns are inline, with a helper as the slow path.
/// A call template is Machine::pushFrame as straight-line code -- the
/// callee's argument and locals counts are constants, so the argument
/// moves and the zeroing of its locals unroll -- writing the frame
/// record, the frame top and the cached top-frame fields of the
/// Machine's FrameState (runtime/Machine.h) and re-pointing r13. A return
/// template pops the same way and compares the popped frame's return
/// block with the one the trace recorded. Each first checks for room: a
/// frame slot under the frame budget, the callee's locals, the trace's
/// stack slack in the new frame run. Only without it, and for the
/// bottom-frame return, does it call a frame helper, out of line, that
/// runs the Machine's own pushFrame/popFrame (growing an arena, or
/// raising StackOverflow). A virtual call always goes through its helper,
/// which also resolves the receiver and guards the resolved callee. A
/// tableswitch calls a helper that selects the block as the block
/// executor does, guarded the same way.
///
/// Register convention inside a compiled trace. Pinned, all callee-saved
/// so helper calls preserve them:
///
///   rbx  JitContext*            r14  operand-stack memory top (one past)
///   rbp  FrameState*            r15  Machine*
///   r13  frame locals base
///
/// Operand pool, caller-saved: rcx, rdx, rsi, rdi and r8-r11 hold the
/// values of the virtual operand stack above r14. rax is scratch.
///
/// The operand stack in memory is the Machine's own arena, the same one
/// the block executor keeps in registers: before a native run the backend
/// reserves the trace's MaxPush so template code writes it with raw
/// stores, and publishes the native top back afterwards
/// (Machine::setStackTop); the call and return templates keep the rest
/// of the frame state current themselves.
///
/// Flush before exit: before any op that can leave the trace or call out
/// of it -- a guard's jump (for the values beneath its operands), a
/// division, a shift by a non-constant count, a heap or allocation
/// helper, iprint, a switch, a call, a return, the completion -- the
/// template writes the virtual stack to memory and sets r14 once, and
/// when the pool runs out it does the same. Every exit therefore sees the
/// memory state the block executor would leave. Before a write to a
/// local, pending reads of it are loaded into registers. A static call
/// stores its arguments straight into the callee's locals, a return its
/// value straight to the caller's operand base; their slow paths write
/// those operands to the stack first. Frame helpers publish the live top, run the frame op,
/// reserve MaxPush in the new frame, and publish the (possibly
/// reallocated) pointers back through the JitContext; the template
/// reloads its pinned registers after each one. Every exit -- completion, fired guard, trap, finish -- leaves an
/// exit-record index in the JitContext; the record carries the
/// interpreter-exact blocks-run / instruction counts and resume block
/// that TraceVM commits to the AdaptiveEngine. Traces are promoted
/// after BackendConfig::JitPromoteAfter completed runs; a trace that
/// cannot compile (see CompileFallback) stays block-stepped.
///
/// Promotion is the one place a trace is proved and annotated: once a
/// trace lowers, the translation validator checks it and, unless it
/// rejects the trace, the alias analysis' check-elision facts compile its
/// provably redundant heap checks away. The interp tier neither proves
/// nor elides: it runs every check, which costs it nothing a proof could
/// save.
///
/// Native code is per module, not per session, and so are the proofs it
/// was compiled under. Compiled code depends only on the trace's blocks
/// and module-owned data (switch tables, helper addresses), so the module
/// keeps one code cache (ModuleCode, held in
/// PreparedModule::backendState()) keyed by the trace's shape and the
/// settings that change the code, and each entry carries the TraceProof
/// that justifies it. A session's first promotion of a shape the module
/// holds lowers, proves, emits and installs nothing: it runs the held
/// code and credits the same counters and telemetry events the compiling
/// promotion did, so which session compiled a shape is unobservable
/// except through jit_code_reused.
/// Code memory is W^X by page: an install takes whole fresh pages,
/// writes them and flips them executable once, and nothing writes them
/// again, so no page another session may be running is ever writable.
/// Past ModuleCode::MaxTraces installs a promotion that misses lowers and
/// proves nothing: it falls back to CodeSpace and the trace stays
/// block-stepped.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_JITBACKEND_H
#define JTC_BACKEND_JITBACKEND_H

#include "analysis/Alias.h"
#include "backend/BackendKind.h"
#include "runtime/Trap.h"
#include "support/TypedError.h"
#include "trace/Trace.h"
#include "validate/Validator.h"

#include <compare>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jtc {

class PreparedModule;
class Machine;
struct FrameState;
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
  CodeSpace,       ///< Executable memory could not be allocated, or the
                   ///< module's code cache is full.
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
  uint64_t CodeInstrs = 0;         ///< Bytecode instructions it covers.
  uint64_t TracesValidated = 0;    ///< Promotions translation-validated.
  uint64_t ValidationRejects = 0;  ///< Of those, rejected.
  /// Rejections tallied by validate::Reason code (ordered so JSON
  /// emission is deterministic).
  std::map<uint32_t, uint64_t> RejectsByReason;
  uint64_t MemElisionSites = 0; ///< Heap accesses compiled with elision.
  uint64_t ChecksElided = 0;    ///< Dynamic checks native code skipped.
  /// Promotions that found their shape's code in the module's cache, and
  /// so compiled nothing.
  uint64_t CodeReused = 0;
  /// Calls and returns native code ran on its inline templates, and
  /// those that went through a frame helper instead: a virtual call, or
  /// a static call or return on the slow path (arena growth, the frame
  /// budget, the bottom-frame return).
  uint64_t FrameOpsInline = 0;
  uint64_t FrameOpsHelper = 0;
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
  /// DivergeAt). Written by the templates and helpers, read by
  /// JitBackend::run() to compute the successor block.
  uint64_t ExitPayload = 0;
  /// The Machine's frame state, which the call and return templates
  /// update in place.
  FrameState *Frames = nullptr;
  /// Out: frame ops that ran through a helper (bumped by the helpers).
  uint64_t FrameOpsHelper = 0;
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
  /// Frame ops (calls and returns) run on the path to this exit, the
  /// same kind of prefix count; those the helpers did not run were
  /// inline.
  uint64_t FrameOps = 0;
  BlockId Next = InvalidBlockId;
  TrapKind TrapToSet = TrapKind::None;
};

using TraceFn = void (*)(JitContext *);

/// What a promotion proved about its trace's shape, kept with the
/// shape's code: what the session credits for it (BackendStats,
/// telemetry), and what every later promotion of the shape credits again.
struct TraceProof {
  bool Validated = false;   ///< Translation validation ran.
  validate::Result Verdict; ///< Its verdict (a pass when it did not run).
  /// The check-elision facts the code was compiled with, one per heap
  /// access it elides; none when elision is off or validation rejected
  /// the trace.
  std::vector<analysis::TraceMemFact> MemFacts;
};

/// A trace shape's native code, owned by the module's ModuleCode and
/// shared by every session that promotes the shape.
struct CompiledTrace {
  TraceFn Fn = nullptr;
  std::vector<ExitRecord> Exits;
  uint32_t MaxPush = 0;
  uint64_t InstrCount = 0;
  uint32_t CodeSize = 0; ///< Bytes emitted.
  TraceProof Proof;
};

/// What compiled code depends on besides the module: the trace's block
/// ids, the optimizer configuration its verdict is proved under, and
/// whether validation ran and elision was on, which decide the checks it
/// keeps. --validate=on and strict compile the same code.
struct CodeKey {
  std::vector<BlockId> Blocks;
  uint64_t ProofConfig = 0;
  bool Validated = true;
  bool MemElide = true;

  auto operator<=>(const CodeKey &) const = default;
  bool operator==(const CodeKey &) const = default;
};

/// Executable memory, W^X by page: each install takes whole fresh pages
/// from a chunk mapped read-write, copies the code in and flips those
/// pages read-execute. No page is written after it is executable, so
/// installs never disturb code another thread is running. Not
/// thread-safe itself: ModuleCode serializes installs.
class CodeArena {
public:
  CodeArena() = default;
  CodeArena(const CodeArena &) = delete;
  CodeArena &operator=(const CodeArena &) = delete;
  ~CodeArena();

  /// Copies \p Code into fresh executable pages; null when the platform
  /// cannot provide them.
  const void *install(const std::vector<uint8_t> &Code);

  /// Bytes of executable pages installed so far.
  size_t bytesInstalled() const;

private:
  struct Chunk {
    uint8_t *Base = nullptr;
    size_t Size = 0;
    size_t Used = 0;
  };
  std::vector<Chunk> Chunks;
};

/// One module's native code, shared by every session over it: at most
/// one CompiledTrace per CodeKey, published first-wins and never changed
/// or freed before the module. Thread-safe.
class ModuleCode {
public:
  /// Installs per module. A default javac session compiles about 1100
  /// traces.
  static constexpr size_t MaxTraces = 4096;

  explicit ModuleCode(size_t Cap = MaxTraces) : Cap(Cap) {}
  ModuleCode(const ModuleCode &) = delete;
  ModuleCode &operator=(const ModuleCode &) = delete;

  /// The code held for \p K, or null.
  const CompiledTrace *find(const CodeKey &K) const;

  /// Every entry held for \p Blocks under \p ProofConfig, whatever the
  /// rest of its key, in key order.
  std::vector<std::pair<const CodeKey *, const CompiledTrace *>>
  entries(const std::vector<BlockId> &Blocks, uint64_t ProofConfig) const;

  /// True once the module has installed its cap: install() refuses
  /// everything from then on.
  bool full() const;

  /// Copies \p Code into executable memory; null (the CodeSpace
  /// fallback) once the module has installed its cap, or when no
  /// executable memory can be had.
  const void *install(const std::vector<uint8_t> &Code);

  /// Publishes \p C, whose code install() placed, under \p K, and
  /// returns the held entry: \p C, or the equal one a racing session
  /// published first (\p C's pages then stay unused).
  const CompiledTrace *publish(CodeKey K, CompiledTrace C);

  size_t tracesHeld() const;
  /// Installs so far, published or not (at most the cap).
  size_t installs() const;
  /// Bytes of executable pages those installs hold.
  size_t bytesHeld() const;

private:
  struct KeyHash {
    size_t operator()(const CodeKey &K) const;
  };

  const size_t Cap;
  /// Guards everything below.
  mutable std::mutex Lock;
  std::unordered_map<CodeKey, CompiledTrace, KeyHash> Entries;
  CodeArena Arena;
  size_t Installs = 0;
};

/// \p PM's code cache, created on first use with \p Cap (later calls'
/// caps are ignored; tests pass a small one).
ModuleCode &moduleCode(const PreparedModule &PM,
                       size_t Cap = ModuleCode::MaxTraces);

/// The native tier of one VM session; never shared across threads,
/// though the module's code it runs is. On a host without template
/// support (or under SimulateUnsupportedHost) every promotion records a
/// HostUnsupported fallback and run() always declines.
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
  /// The promotion outcome for \p T, promoting on first sight of a hot
  /// trace; null while the trace is below the promotion threshold.
  const CompiledTrace *compiled(const Trace &T);
  /// Runs \p T's shape from the module's code when held, else compiles
  /// and publishes it; credits the promotion either way. A trace that
  /// gets no code yields a CompiledTrace with a null Fn.
  const CompiledTrace *promote(const Trace &T);
  /// Lowers, proves (crediting the proof), emits and installs \p T; null
  /// with \p Why on a fallback, before any of that work once the
  /// module's cache is full.
  const CompiledTrace *compile(const Trace &T, CodeKey Key,
                               CompileFallback &Why);
  /// The promotion-time proof work on \p T, lowered into \p IR:
  /// translation validation, then, unless validation rejected the trace,
  /// its check-elision facts applied to \p IR.
  TraceProof prove(const Trace &T, TraceIR &IR) const;
  /// Counts what a promotion of \p T proved, and records its events.
  /// Under ValidateMode::Strict a rejected verdict aborts the process,
  /// whether this session proved it or found it with the module's code.
  void credit(const Trace &T, const TraceProof &P);

  const PreparedModule &PM;
  BackendConfig Config;
  /// Config.Opt's part of the code-cache key.
  uint64_t ProofConfig;
  ModuleCode &Code;
  BackendStats Stats;
  EventRing *Telem = nullptr;
  /// Promotion outcome per trace id (a cache's ids are dense and never
  /// reused); null until the trace is first seen hot.
  std::vector<const CompiledTrace *> Compiled;
};

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_JITBACKEND_H
