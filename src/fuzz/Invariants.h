//===- fuzz/Invariants.h - Profiler/cache invariant auditing ----*- C++ -*-===//
///
/// \file
/// Structural invariants of the BCG profiler and the trace cache, audited
/// by the fuzzer after every run. Trace dispatch is semantically
/// transparent by construction (the trace layer drives the same Machine),
/// so a broken cache rarely shows up as wrong output -- it shows up as
/// inconsistent bookkeeping. These checks are the oracle for that class
/// of bug:
///
///  - BCG probability laws: per-node counters sum to the maintained node
///    weight, probabilities form a (sub-)distribution, correlation edges
///    and predecessor lists agree structurally;
///  - trace-cache laws: the entry index only hands out live traces, every
///    live trace is reachable through its own entry context, expected
///    completion honours the construction threshold, and no trace whose
///    observed completion fell below the retirement threshold survives an
///    evaluation pass;
///  - context laws: every BCG node pair and correlation triple occurred
///    in the run's transition stream, i.e. the context never went stale;
///  - counter reconciliation: dispatch/completion/hook counters obey the
///    dispatch-model identities, and when the telemetry ring is attached
///    (and nothing was dropped) the recorded event stream reproduces the
///    aggregate statistics exactly.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FUZZ_INVARIANTS_H
#define JTC_FUZZ_INVARIANTS_H

#include "interp/RunResult.h"
#include "support/Ids.h"

#include <string>
#include <vector>

namespace jtc {

class BranchCorrelationGraph;
class TraceVM;
class NetTraceVm;

namespace fuzz {

/// One violated invariant. Rule is a stable identifier ("entry-map-live",
/// "retirement-law", ...); Detail says which object broke it and how.
struct Violation {
  std::string Rule;
  std::string Detail;
};

/// Audits the BCG probability and structure laws.
std::vector<Violation> checkGraph(const BranchCorrelationGraph &G);

/// Audits a finished TraceVM run: graph laws, trace-cache laws, dispatch
/// identities and (when telemetry is on and lossless) event/counter
/// reconciliation. \p Status is the run's outcome; a few instruction
/// attribution checks only hold for cleanly finished runs.
std::vector<Violation> checkTraceVm(const TraceVM &VM, RunStatus Status);

/// Audits that every node pair and correlation triple of \p G occurred in
/// \p Blocks, the session's executed block sequence as a transition sink
/// records it (rule "bcg-context-executed"). Only meaningful for a session
/// without imported seeds: a seed brings the donor's contexts along.
std::vector<Violation>
checkContextsExecuted(const BranchCorrelationGraph &G,
                      const std::vector<BlockId> &Blocks);

/// Audits a finished NetTraceVm run (the subset of laws NET shares).
std::vector<Violation> checkNetVm(const NetTraceVm &VM);

/// Audits the persist layer against \p VM as donor: capture -> encode ->
/// decode -> re-validate -> reinstall into a fresh session over the same
/// module, asserting at each hop that the restored BCG counters and trace
/// set digest-match the donor exactly. Skipped (returns empty) when the
/// session has profiling or traces disabled (nothing to persist).
std::vector<Violation> checkPersistRoundTrip(const TraceVM &VM);

/// Renders violations one per line for diagnostics.
std::string formatViolations(const std::vector<Violation> &Vs);

} // namespace fuzz
} // namespace jtc

#endif // JTC_FUZZ_INVARIANTS_H
