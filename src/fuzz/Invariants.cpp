//===- fuzz/Invariants.cpp ------------------------------------------------===//

#include "fuzz/Invariants.h"

#include "baseline/NetTraceVm.h"
#include "persist/Snapshot.h"
#include "profile/BranchCorrelationGraph.h"
#include "support/SaturatingCounter.h"
#include "vm/TraceVM.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace jtc;
using namespace jtc::fuzz;

namespace {

class Auditor {
public:
  std::vector<Violation> Violations;

  template <typename... Args>
  void fail(const char *Rule, Args &&...Parts) {
    std::ostringstream OS;
    (OS << ... << Parts);
    Violations.push_back({Rule, OS.str()});
  }

  /// Checks \p Cond; on failure records Rule with the rendered detail.
  template <typename... Args>
  void check(bool Cond, const char *Rule, Args &&...Parts) {
    if (!Cond)
      fail(Rule, std::forward<Args>(Parts)...);
  }
};

} // namespace

std::vector<Violation> fuzz::checkGraph(const BranchCorrelationGraph &G) {
  Auditor A;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const BranchNode &N = G.node(Id);

    // The decayed node weight can never exceed the undiminished execution
    // count: decay only shrinks it.
    A.check(N.totalWeight() <= N.executions(), "bcg-weight-bound", "node ",
            Id, ": weight ", N.totalWeight(), " > execs ", N.executions());

    // Counter law: the maintained weight equals the counter sum, except
    // when a 16-bit counter may have saturated (then the sum lags).
    uint64_t CountSum = 0;
    std::unordered_set<BlockId> Succs;
    for (const Correlation &C : N.correlations()) {
      CountSum += C.Count.value();
      A.check(Succs.insert(C.Succ).second, "bcg-duplicate-succ", "node ", Id,
              ": successor ", C.Succ, " recorded twice");

      double P = N.probabilityOf(C.Succ);
      A.check(P >= 0.0 && P <= 1.0 + 1e-12, "bcg-probability-range", "node ",
              Id, " succ ", C.Succ, ": p=", P);

      // Structural law: the cached target context of E_XYZ is N_YZ.
      if (C.Target != InvalidNodeId) {
        A.check(C.Target < G.numNodes(), "bcg-target-range", "node ", Id,
                ": target ", C.Target, " out of range");
        if (C.Target < G.numNodes()) {
          const BranchNode &T = G.node(C.Target);
          A.check(T.from() == N.to() && T.to() == C.Succ, "bcg-target-pair",
                  "node ", Id, " (", N.from(), "->", N.to(), ") succ ",
                  C.Succ, ": target node is (", T.from(), "->", T.to(), ")");
          std::span<const NodeId> Preds = T.predecessors();
          A.check(std::find(Preds.begin(), Preds.end(), Id) != Preds.end(),
                  "bcg-pred-backlink", "node ", Id, " targets ", C.Target,
                  " but is not in its predecessor list");
        }
      }
    }
    if (N.totalWeight() < SaturatingCounter::Max)
      A.check(CountSum == N.totalWeight(), "bcg-count-sum", "node ", Id,
              ": counts sum to ", CountSum, ", weight is ", N.totalWeight());
    else
      A.check(CountSum <= N.totalWeight(), "bcg-count-sum", "node ", Id,
              ": counts sum to ", CountSum, " above weight ",
              N.totalWeight());

    // Every recorded predecessor must hold an edge into this node.
    for (NodeId P : N.predecessors()) {
      A.check(P < G.numNodes(), "bcg-pred-range", "node ", Id, ": pred ", P,
              " out of range");
      if (P >= G.numNodes())
        continue;
      bool Found = false;
      for (const Correlation &C : G.node(P).correlations())
        if (C.Target == Id)
          Found = true;
      A.check(Found, "bcg-pred-edge", "node ", Id, ": pred ", P,
              " has no correlation targeting it");
    }
  }
  return std::move(A.Violations);
}

std::vector<Violation>
fuzz::checkContextsExecuted(const BranchCorrelationGraph &G,
                            const std::vector<BlockId> &Blocks) {
  // Executed pair (X, Y) -> every Z seen right after it.
  std::unordered_map<uint64_t, std::unordered_set<BlockId>> Succs;
  for (size_t I = 0; I + 1 < Blocks.size(); ++I) {
    std::unordered_set<BlockId> &Z = Succs[pairKey(Blocks[I], Blocks[I + 1])];
    if (I + 2 < Blocks.size())
      Z.insert(Blocks[I + 2]);
  }
  Auditor A;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const BranchNode &N = G.node(Id);
    auto It = Succs.find(pairKey(N.from(), N.to()));
    A.check(It != Succs.end(), "bcg-context-executed", "node ", Id, " (",
            N.from(), "->", N.to(), ") never executed");
    for (const Correlation &C : N.correlations())
      A.check(It != Succs.end() && It->second.count(C.Succ),
              "bcg-context-executed", "node ", Id, " records successor ",
              C.Succ, " but ", N.from(), "->", N.to(), "->", C.Succ,
              " never executed");
  }
  return std::move(A.Violations);
}

std::vector<Violation> fuzz::checkTraceVm(const TraceVM &VM,
                                          RunStatus Status) {
  Auditor A;
  const VmStats &S = VM.stats();
  const VmOptions &C = VM.options();
  const TraceCache &Cache = VM.traceCache();
  const TraceConfig TC = C.traceConfig();

  // Dispatch-model identities: every executed block is attributed to
  // exactly one single-block dispatch or to the trace it ran inside.
  A.check(S.BlocksExecuted == S.BlockDispatches + S.BlocksInTraces,
          "blocks-identity", "executed ", S.BlocksExecuted, " != ",
          S.BlockDispatches, " dispatched + ", S.BlocksInTraces,
          " in traces");
  A.check(S.TracesCompleted <= S.TraceDispatches, "completion-bound",
          "completed ", S.TracesCompleted, " > dispatched ",
          S.TraceDispatches);
  A.check(S.BlocksInCompletedTraces <= S.BlocksInTraces, "completed-blocks",
          S.BlocksInCompletedTraces, " > ", S.BlocksInTraces);
  A.check(S.InstructionsInCompletedTraces <= S.InstructionsInTraces,
          "completed-instructions", S.InstructionsInCompletedTraces, " > ",
          S.InstructionsInTraces);
  // A trap can cut a block short after its size was attributed, so the
  // instruction attribution bound only holds for cleanly finished runs.
  if (Status == RunStatus::Finished)
    A.check(S.InstructionsInTraces <= S.Instructions, "trace-instructions",
            S.InstructionsInTraces, " attributed, only ", S.Instructions,
            " executed");

  // Hook law: outside traces every dispatch is preceded by one hook, and
  // each early exit suppresses exactly one hook -- except a final early
  // exit at the very end of the run, whose suppression never happens.
  if (C.profiling()) {
    uint64_t Floor = S.BlockDispatches + S.TracesCompleted;
    A.check(S.Hooks >= Floor && S.Hooks <= Floor + 1, "hook-law", "hooks ",
            S.Hooks, " outside [", Floor, ", ", Floor + 1, "]");
  }

  // Per-trace laws and the aggregate dispatch reconciliation.
  uint64_t Entered = 0, Completed = 0;
  for (const Trace &T : Cache.traces()) {
    Entered += T.Entered;
    Completed += T.Completed;
    A.check(T.Blocks.size() >= TC.MinTraceBlocks, "trace-min-blocks",
            "trace ", T.Id, ": ", T.Blocks.size(), " blocks");
    A.check(T.Completed <= T.Entered, "trace-completion-bound", "trace ",
            T.Id, ": completed ", T.Completed, " > entered ", T.Entered);
    A.check(T.ExpectedCompletion >= TC.CompletionThreshold - 1e-9 &&
                T.ExpectedCompletion <= 1.0 + 1e-9,
            "trace-threshold", "trace ", T.Id, ": expected completion ",
            T.ExpectedCompletion, " vs threshold ", TC.CompletionThreshold);
    uint32_t Size = 0;
    for (BlockId B : T.Blocks)
      Size += VM.prepared().blockSize(B);
    A.check(Size == T.InstrCount, "trace-size", "trace ", T.Id,
            ": recorded ", T.InstrCount, " instructions, blocks sum to ",
            Size);

    // The entry index must never hand out a dead trace, and must map every
    // live trace at its own entry context. This is exactly the bookkeeping
    // a partial invalidation (mark dead, forget the entry) breaks.
    const Trace *Found = Cache.entryAt(T.Contexts[0]);
    if (Found)
      A.check(Found->Alive, "entry-map-live", "entry (", T.EntryFrom, "->",
              T.Blocks[0], ") resolves to dead trace ", Found->Id);
    if (T.Alive)
      A.check(Found == &T, "live-trace-mapped", "live trace ", T.Id,
              " is not reachable through its entry context (", T.EntryFrom,
              "->", T.Blocks[0], ")");
  }
  A.check(Entered == S.TraceDispatches, "dispatch-reconcile",
          "trace Entered sums to ", Entered, ", VM dispatched ",
          S.TraceDispatches);
  A.check(Completed == S.TracesCompleted, "completion-reconcile",
          "trace Completed sums to ", Completed, ", VM completed ",
          S.TracesCompleted);

  // Telemetry reconciliation and the retirement law both need the full
  // event stream; skip them when the ring is off or overflowed.
  bool HaveEvents = TelemetryCompiledIn && C.telemetry() &&
                    VM.events().dropped() == 0;
  if (HaveEvents) {
    uint64_t Counts[NumEventKinds] = {};
    // Traces whose lifecycle included a kill/revive transition carry
    // observed-completion history across it, so the retirement law is
    // only asserted for traces that were never killed.
    std::unordered_set<TraceId> Killed;
    VM.events().forEach([&](const Event &E) {
      ++Counts[static_cast<unsigned>(E.Kind)];
      if (E.Kind == EventKind::TraceRetired ||
          E.Kind == EventKind::TraceInvalidated ||
          E.Kind == EventKind::TraceReplaced)
        Killed.insert(E.Id);
    });
    auto Of = [&Counts](EventKind K) {
      return Counts[static_cast<unsigned>(K)];
    };
    auto Reconcile = [&A](const char *What, uint64_t Events,
                          uint64_t Counter) {
      A.check(Events == Counter, "telemetry-reconcile", What, ": ", Events,
              " events vs counter ", Counter);
    };
    Reconcile("dispatched", Of(EventKind::TraceDispatched),
              S.TraceDispatches);
    Reconcile("completed", Of(EventKind::TraceCompleted), S.TracesCompleted);
    Reconcile("early-exit", Of(EventKind::TraceEarlyExit),
              S.TraceDispatches - S.TracesCompleted);
    Reconcile("constructed", Of(EventKind::TraceConstructed),
              S.TracesConstructed);
    Reconcile("reused", Of(EventKind::TraceReused), S.TracesReused);
    Reconcile("replaced", Of(EventKind::TraceReplaced), S.TracesReplaced);
    Reconcile("retired", Of(EventKind::TraceRetired), S.TracesRetired);
    Reconcile("invalidated", Of(EventKind::TraceInvalidated),
              Cache.stats().TracesInvalidated);
    Reconcile("signals", Of(EventKind::ProfilerSignal), S.Signals);
    Reconcile("decay-passes", Of(EventKind::DecayPass), S.DecayPasses);
    // Validation events: every validated trace emitted exactly one
    // accepted-or-rejected event (hash-cons reuse keeps the original
    // verdict and emits neither).
    if (C.validate() != ValidateMode::Off) {
      Reconcile("validated", Of(EventKind::TraceValidated),
                S.TracesValidated - S.TraceValidationRejects);
      Reconcile("validation-rejected", Of(EventKind::TraceValidationRejected),
                S.TraceValidationRejects);
    }

    // Retirement law: a live trace has passed every retirement checkpoint
    // it crossed, so at its most recent checkpoint E0 its observed
    // completion was within the margin of the threshold. Completed only
    // grows afterwards, making the bound checkable post-hoc.
    double Need = TC.CompletionThreshold - TC.RetirementMargin;
    for (const Trace &T : Cache.traces()) {
      if (!T.Alive || Killed.count(T.Id) ||
          T.Entered < TC.RetirementCheckEntries)
        continue;
      uint64_t E0 = T.Entered - T.Entered % TC.RetirementCheckEntries;
      A.check(static_cast<double>(T.Completed) + 1e-6 >=
                  Need * static_cast<double>(E0),
              "retirement-law", "trace ", T.Id, ": completed ", T.Completed,
              " of ", T.Entered, " entries survives checkpoint ", E0,
              " below threshold ", Need);
    }
  }

  if (C.profiling())
    for (Violation &V : checkGraph(VM.graph()))
      A.Violations.push_back(std::move(V));
  return std::move(A.Violations);
}

std::vector<Violation> fuzz::checkNetVm(const NetTraceVm &VM) {
  Auditor A;
  const VmStats &S = VM.stats();
  A.check(S.BlocksExecuted == S.BlockDispatches + S.BlocksInTraces,
          "net-blocks-identity", "executed ", S.BlocksExecuted, " != ",
          S.BlockDispatches, " dispatched + ", S.BlocksInTraces,
          " in traces");
  A.check(S.TracesCompleted <= S.TraceDispatches, "net-completion-bound",
          "completed ", S.TracesCompleted, " > dispatched ",
          S.TraceDispatches);
  uint64_t Entered = 0, Completed = 0;
  for (const NetTrace &T : VM.traces()) {
    Entered += T.Entered;
    Completed += T.Completed;
    A.check(T.Blocks.size() >= 2, "net-trace-min-blocks", "trace at head ",
            T.Head, ": ", T.Blocks.size(), " blocks");
    A.check(!T.Blocks.empty() && T.Blocks[0] == T.Head, "net-trace-head",
            "trace head ", T.Head, " is not its first block");
    A.check(T.Completed <= T.Entered, "net-trace-completion", "trace at ",
            T.Head, ": completed ", T.Completed, " > entered ", T.Entered);
  }
  A.check(Entered == S.TraceDispatches, "net-dispatch-reconcile",
          "trace Entered sums to ", Entered, ", VM dispatched ",
          S.TraceDispatches);
  A.check(Completed == S.TracesCompleted, "net-completion-reconcile",
          "trace Completed sums to ", Completed, ", VM completed ",
          S.TracesCompleted);
  A.check(VM.numLiveTraces() <= VM.traces().size(), "net-live-bound",
          VM.numLiveTraces(), " live of ", VM.traces().size());
  return std::move(A.Violations);
}

std::vector<Violation> fuzz::checkPersistRoundTrip(const TraceVM &VM) {
  // Nothing to persist when the adaptive machinery is off; captureSnapshot
  // would just hand back an empty seed.
  if (!VM.options().profiling())
    return {};

  Auditor A;

  persist::SnapshotData Donor = persist::captureSnapshot(VM);
  uint64_t DonorDigest = persist::seedDigest(Donor.Seed);

  std::vector<uint8_t> Bytes = persist::encodeSnapshot(Donor);
  persist::SnapshotData Decoded;
  persist::PersistError Err;
  if (!persist::decodeSnapshot(Bytes.data(), Bytes.size(), Decoded, Err)) {
    A.fail("persist-decode", "own encoding refused: ", Err.message());
    return std::move(A.Violations);
  }

  A.check(Decoded.Fingerprint == Donor.Fingerprint, "persist-fingerprint",
          "fingerprint changed across encode/decode: ", Donor.Fingerprint,
          " -> ", Decoded.Fingerprint);
  A.check(Decoded.DonorBlocks == Donor.DonorBlocks, "persist-donor-blocks",
          "donor maturity changed across encode/decode: ", Donor.DonorBlocks,
          " -> ", Decoded.DonorBlocks);
  if (!persist::validateSeed(Decoded.Seed, VM.prepared(), Err))
    A.fail("persist-revalidate", "decoded seed refused by validateSeed: ",
           Err.message());

  uint64_t DecodedDigest = persist::seedDigest(Decoded.Seed);
  A.check(DecodedDigest == DonorDigest, "persist-digest",
          "decoded seed digest ", DecodedDigest, " != donor digest ",
          DonorDigest);
  if (!A.Violations.empty())
    return std::move(A.Violations);

  // Reinstall into a fresh session over the same module and re-export: the
  // restored BCG + trace-cache state must digest-match the donor exactly.
  // Profile paths are cleared so the audit never touches the filesystem;
  // telemetry is off because this session never runs (and its ring would
  // dominate the audit's cost).
  VmOptions FreshOpts = VM.options();
  FreshOpts.loadProfilePath("").saveProfilePath("").telemetry(false);
  TraceVM Fresh(VM.prepared(), FreshOpts);
  Fresh.importSeed(Decoded.Seed);
  uint64_t Reinstalled = persist::seedDigest(Fresh.exportSeed());
  A.check(Reinstalled == DonorDigest, "persist-reinstall-digest",
          "seed re-exported after importSeed digests to ", Reinstalled,
          ", donor was ", DonorDigest);
  return std::move(A.Violations);
}

std::string fuzz::formatViolations(const std::vector<Violation> &Vs) {
  std::ostringstream OS;
  for (const Violation &V : Vs)
    OS << V.Rule << ": " << V.Detail << "\n";
  return OS.str();
}
