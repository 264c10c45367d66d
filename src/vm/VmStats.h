//===- vm/VmStats.h - Run metrics -------------------------------*- C++ -*-===//
///
/// \file
/// Counters collected during a TraceVM run, plus the derived quantities
/// the paper's evaluation reports (section 5.2): average executed trace
/// length, instruction stream coverage, dynamic trace completion rate,
/// state signal rate and trace event interval.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VM_VMSTATS_H
#define JTC_VM_VMSTATS_H

#include <cstdint>
#include <ostream>
#include <vector>

namespace jtc {

class JsonWriter;

struct VmStats {
  //===--- Raw execution counters -------------------------------------===//
  uint64_t Instructions = 0;   ///< Every instruction executed.
  uint64_t BlocksExecuted = 0; ///< Every block executed, in or out of traces.
  uint64_t BlockDispatches = 0; ///< Dispatches of single blocks.
  uint64_t TraceDispatches = 0; ///< Dispatches of whole traces (entries).

  //===--- Trace behaviour --------------------------------------------===//
  uint64_t TracesCompleted = 0;
  uint64_t BlocksInTraces = 0;
  uint64_t BlocksInCompletedTraces = 0;
  uint64_t InstructionsInTraces = 0;
  uint64_t InstructionsInCompletedTraces = 0;

  //===--- Profiler / cache activity (copied at end of run) -----------===//
  uint64_t Hooks = 0;
  uint64_t InlineCacheHits = 0;
  uint64_t DecayPasses = 0;
  uint64_t Signals = 0;
  uint64_t TracesConstructed = 0;
  uint64_t TracesReused = 0;
  uint64_t TracesReplaced = 0;
  uint64_t TracesRetired = 0;
  uint64_t TracesSeeded = 0; ///< Installed from a donor snapshot (warm start).
  uint64_t LiveTraces = 0;
  uint64_t GraphNodes = 0;

  //===--- Translation validation (src/validate) -----------------------===//
  /// Traces the native tier translation-validated when it promoted them,
  /// and how many it rejected (they compiled without check elision).
  /// Validation never changes what executes, and whether it runs at all
  /// depends on --validate and --backend, which a replay cannot see, so
  /// both are digest-excluded like EventsDropped.
  uint64_t TracesValidated = 0;
  uint64_t TraceValidationRejects = 0;
  /// Promotion-time verdicts and elision facts answered from the module's
  /// proof memo (PreparedModule::proofs()) instead of computed. It counts
  /// what earlier sessions over the module proved, not anything this one
  /// executed, so it is digest-excluded too.
  uint64_t TraceProofsReused = 0;

  //===--- Backend tiering (src/backend) -------------------------------===//
  /// Which execution tier served trace dispatches, and what the JIT
  /// compiled. Tier selection is a --backend configuration choice that
  /// by contract never changes execution semantics (interp and JIT runs
  /// are bit-equivalent), so like the validation counters all of them are
  /// digest-excluded: a replay or an oracle run under a different
  /// backend still matches.
  uint64_t TracesJitCompiled = 0;     ///< Traces compiled to native code.
  uint64_t TraceCompileFallbacks = 0; ///< Compiles that bailed to interp.
  uint64_t TraceDispatchesJit = 0;    ///< Trace entries run natively.
  uint64_t TraceDispatchesInterp = 0; ///< Trace entries block-stepped.
  uint64_t JitCodeBytes = 0;          ///< Native code bytes installed.
  /// Promotions that ran code an earlier promotion of the same shape
  /// compiled into the module (PreparedModule::backendState()) instead
  /// of compiling. Like TraceProofsReused it counts what earlier
  /// sessions left behind; every other tier counter reads the same
  /// either way.
  uint64_t JitCodeReused = 0;
  /// Calls and returns native code ran inline, and those it handed to a
  /// frame helper (virtual calls, and the slow path of static calls and
  /// returns: arena growth, the frame budget, the bottom-frame return).
  uint64_t JitFrameOpsInline = 0;
  uint64_t JitFrameOpsHelper = 0;

  //===--- Memory-check elision (src/analysis) --------------------------===//
  /// Heap-access check elision proved by the trace-path alias analysis,
  /// which only JIT-promoted code applies. Sites counts the heap accesses
  /// compiled with elision over all promoted traces; ChecksElided counts
  /// the dynamic checks native code actually skipped. Elision never
  /// changes execution semantics (the checks were proved to pass), and
  /// whether it runs at all is the --mem-elide and --backend
  /// configuration, so like the validation and tier counters both are
  /// digest-excluded.
  uint64_t MemElisionSites = 0;  ///< Heap accesses compiled with elision.
  uint64_t MemChecksElided = 0;  ///< Dynamic checks skipped at run time.

  //===--- Memory -----------------------------------------------------===//
  /// Bytes the branch correlation graph's list arena reserved (its
  /// correlation and predecessor lists). A layout figure, not execution:
  /// digest-excluded, and JSON-only.
  uint64_t GraphArenaBytes = 0;

  //===--- Observability ----------------------------------------------===//
  /// Telemetry events lost to ring overwriting (EventRing::dropped). Not
  /// part of the execution semantics, so digest() excludes it: a replay
  /// with a different ring capacity still matches the live run.
  uint64_t EventsDropped = 0;

  //===--- Derived values (paper section 5.2) -------------------------===//

  /// Dispatches the trace-dispatching model performs (block + trace).
  uint64_t totalDispatches() const { return BlockDispatches + TraceDispatches; }

  /// Average executed trace length in basic blocks, over traces that ran
  /// to completion (Table I).
  double avgCompletedTraceLength() const {
    return TracesCompleted == 0
               ? 0.0
               : static_cast<double>(BlocksInCompletedTraces) /
                     static_cast<double>(TracesCompleted);
  }

  /// Fraction of all executed instructions executed by completed traces
  /// (Table II).
  double completedCoverage() const {
    return Instructions == 0
               ? 0.0
               : static_cast<double>(InstructionsInCompletedTraces) /
                     static_cast<double>(Instructions);
  }

  /// Fraction of all executed instructions executed inside the trace
  /// cache, including partially executed traces.
  double traceCoverage() const {
    return Instructions == 0 ? 0.0
                             : static_cast<double>(InstructionsInTraces) /
                                   static_cast<double>(Instructions);
  }

  /// Completed traces over entered traces (Table III).
  double completionRate() const {
    return TraceDispatches == 0 ? 0.0
                                : static_cast<double>(TracesCompleted) /
                                      static_cast<double>(TraceDispatches);
  }

  /// Block executions per profiler state-change signal (Table IV reports
  /// this in thousands). Block executions are the dispatches a plain
  /// direct-threaded-inlining interpreter would make.
  double dispatchesPerSignal() const {
    return Signals == 0 ? 0.0
                        : static_cast<double>(BlocksExecuted) /
                              static_cast<double>(Signals);
  }

  /// Block executions per trace event, where an event is a signal or a
  /// constructed trace (Table V reports this in thousands).
  double dispatchesPerTraceEvent() const {
    uint64_t Events = Signals + TracesConstructed;
    return Events == 0 ? 0.0
                       : static_cast<double>(BlocksExecuted) /
                             static_cast<double>(Events);
  }

  //===--- The field table --------------------------------------------===//
  //
  // One entry per reported quantity, raw counter or derived metric. Both
  // print() and the JSON serialization iterate this table, so the
  // human-readable and machine-readable outputs can never drift apart;
  // the telemetry PhaseSampler also uses the Counter pointers to compute
  // per-interval deltas.

  /// How a value is rendered by print(). JSON always gets the raw value
  /// (a ratio stays a 0..1 ratio).
  enum class FieldFormat : uint8_t {
    Count,   ///< Integer counter.
    Percent, ///< Ratio, printed scaled by 100 with a "%" suffix.
    Real,    ///< Plain double.
  };

  /// One reported quantity. Exactly one of Counter / Derived /
  /// DerivedCount is set.
  struct FieldInfo {
    const char *Label; ///< Human-readable print() label.
    const char *Key;   ///< Machine-readable JSON key (snake_case).
    FieldFormat Format;
    uint64_t VmStats::*Counter;
    double (VmStats::*Derived)() const;
    uint64_t (VmStats::*DerivedCount)() const;
    const char *Suffix; ///< Unit suffix in print() (e.g. " blocks").
    bool InPrint;       ///< print() shows it; JSON always includes it.
  };

  /// All fields, in print() order.
  static const std::vector<FieldInfo> &fields();

  /// The raw (counter or derived) value of one field, as a double.
  double fieldValue(const FieldInfo &F) const {
    if (F.Counter)
      return static_cast<double>(this->*F.Counter);
    if (F.Derived)
      return (this->*F.Derived)();
    return static_cast<double>((this->*F.DerivedCount)());
  }

  /// A stable FNV-1a hash over every raw execution counter (in field-
  /// table order, EventsDropped excluded). Two sessions with equal
  /// digests made the same dispatches, built the same traces and saw the
  /// same profiler activity; btrace replay verifies reconstruction
  /// against the digest the encoder recorded at run end.
  uint64_t digest() const;

  /// Accumulates \p Other's raw counters into this object (derived
  /// metrics are recomputed from the sums). Used by the service layer to
  /// fold per-session stats into fleet-wide aggregates.
  void merge(const VmStats &Other);

  /// One-per-line human-readable dump.
  void print(std::ostream &OS) const;

  /// Every counter and derived metric as key/value pairs, written into an
  /// already-open JSON object (for embedding in larger documents).
  void writeJsonFields(JsonWriter &W) const;

  /// Standalone JSON object with every counter and derived metric.
  void toJson(std::ostream &OS) const;
};

} // namespace jtc

#endif // JTC_VM_VMSTATS_H
