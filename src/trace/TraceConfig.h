//===- trace/TraceConfig.h - Trace cache parameters -------------*- C++ -*-===//
///
/// \file
/// Knobs of the trace construction algorithm. CompletionThreshold is the
/// paper's central parameter; the caps bound work per signal so one signal
/// cannot reconstruct an unbounded region (the paper observes fewer than
/// five traces per signal in practice).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TRACE_TRACECONFIG_H
#define JTC_TRACE_TRACECONFIG_H

#include <cstdint>

namespace jtc {

/// Deliberate cache-bookkeeping bugs, injectable for fuzzer self-tests:
/// the differential-fuzzing oracle must be able to catch a broken trace
/// cache, and these faults are the controlled way to prove it does
/// (src/fuzz/). Production configurations always use None.
enum class CacheFault : uint8_t {
  /// Correct behaviour.
  None,
  /// Rebuilds mark stale fragments dead but "forget" to clear their
  /// entry-index slots, so entryAt() can hand out a dead trace.
  SkipInvalidation,
  /// Observed-completion retirement never fires: persistently
  /// under-performing traces survive every evaluation pass.
  SkipRetirement,
};

struct TraceConfig {
  /// Minimum expected completion probability of an installed trace.
  double CompletionThreshold = 0.97;

  /// Maximum blocks per trace.
  uint32_t MaxTraceBlocks = 64;

  /// Maximum nodes examined along one max-likelihood path walk.
  uint32_t MaxPathNodes = 256;

  /// Maximum entry points collected by one backtracking pass.
  uint32_t MaxEntryPoints = 16;

  /// Maximum nodes visited while backtracking for entry points.
  uint32_t MaxBacktrackVisits = 256;

  /// Traces shorter than this many blocks are not installed (a 1-block
  /// trace is just an ordinary block dispatch).
  uint32_t MinTraceBlocks = 2;

  /// Observed-completion retirement: once a trace has been entered this
  /// many times, its measured completion rate is checked every so many
  /// entries, and the trace is retired (and its region rebuilt from the
  /// now-mature counters) when the rate falls more than
  /// RetirementMargin below the completion threshold. This implements
  /// the cache-maintenance goal of paper section 3.6 and protects
  /// against traces built from immature counters early in a run.
  uint64_t RetirementCheckEntries = 64;
  double RetirementMargin = 0.02;

  /// Injected bookkeeping bug (fuzzer self-tests only).
  CacheFault Fault = CacheFault::None;
};

} // namespace jtc

#endif // JTC_TRACE_TRACECONFIG_H
