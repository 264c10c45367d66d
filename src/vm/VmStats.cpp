//===- vm/VmStats.cpp -----------------------------------------------------===//

#include "vm/VmStats.h"

#include "support/Json.h"

#include <string>

using namespace jtc;

const std::vector<VmStats::FieldInfo> &VmStats::fields() {
  // Print order. Entries with InPrint=false are JSON-only: the four
  // trace-attribution counters print() never showed (kept out to preserve
  // its historical byte-exact output) and the derived dispatch total.
  auto Counter = [](const char *Label, const char *Key,
                    uint64_t VmStats::*M, bool InPrint = true) {
    return FieldInfo{Label, Key, FieldFormat::Count, M, nullptr, nullptr, "",
                     InPrint};
  };
  auto Derived = [](const char *Label, const char *Key, FieldFormat Fmt,
                    double (VmStats::*M)() const, const char *Suffix = "") {
    return FieldInfo{Label, Key, Fmt, nullptr, M, nullptr, Suffix, true};
  };
  static const std::vector<FieldInfo> Fields = {
      Counter("instructions", "instructions", &VmStats::Instructions),
      Counter("blocks executed", "blocks_executed", &VmStats::BlocksExecuted),
      Counter("block dispatches", "block_dispatches",
              &VmStats::BlockDispatches),
      Counter("trace dispatches", "trace_dispatches",
              &VmStats::TraceDispatches),
      Counter("traces completed", "traces_completed",
              &VmStats::TracesCompleted),
      Counter("blocks in traces", "blocks_in_traces", &VmStats::BlocksInTraces,
              /*InPrint=*/false),
      Counter("blocks in completed traces", "blocks_in_completed_traces",
              &VmStats::BlocksInCompletedTraces, /*InPrint=*/false),
      Counter("instructions in traces", "instructions_in_traces",
              &VmStats::InstructionsInTraces, /*InPrint=*/false),
      Counter("instructions in completed traces",
              "instructions_in_completed_traces",
              &VmStats::InstructionsInCompletedTraces, /*InPrint=*/false),
      Derived("avg completed trace length", "avg_completed_trace_length",
              FieldFormat::Real, &VmStats::avgCompletedTraceLength, " blocks"),
      Derived("completed-trace coverage", "completed_coverage",
              FieldFormat::Percent, &VmStats::completedCoverage),
      Derived("any-trace coverage", "trace_coverage", FieldFormat::Percent,
              &VmStats::traceCoverage),
      Derived("trace completion rate", "completion_rate", FieldFormat::Percent,
              &VmStats::completionRate),
      Counter("profiler hooks", "hooks", &VmStats::Hooks),
      Counter("inline cache hits", "inline_cache_hits",
              &VmStats::InlineCacheHits),
      Counter("decay passes", "decay_passes", &VmStats::DecayPasses),
      Counter("state change signals", "signals", &VmStats::Signals),
      Counter("traces constructed", "traces_constructed",
              &VmStats::TracesConstructed),
      Counter("traces reused", "traces_reused", &VmStats::TracesReused),
      Counter("traces replaced", "traces_replaced", &VmStats::TracesReplaced),
      Counter("traces retired (completion)", "traces_retired",
              &VmStats::TracesRetired),
      Counter("traces seeded", "traces_seeded", &VmStats::TracesSeeded,
              /*InPrint=*/false),
      Counter("traces validated", "traces_validated", &VmStats::TracesValidated,
              /*InPrint=*/false),
      Counter("trace validation rejects", "trace_validation_rejects",
              &VmStats::TraceValidationRejects, /*InPrint=*/false),
      Counter("traces jit compiled", "traces_jit_compiled",
              &VmStats::TracesJitCompiled, /*InPrint=*/false),
      Counter("trace compile fallbacks", "trace_compile_fallbacks",
              &VmStats::TraceCompileFallbacks, /*InPrint=*/false),
      Counter("trace dispatches (jit)", "trace_dispatches_jit",
              &VmStats::TraceDispatchesJit, /*InPrint=*/false),
      Counter("trace dispatches (interp)", "trace_dispatches_interp",
              &VmStats::TraceDispatchesInterp, /*InPrint=*/false),
      Counter("jit code bytes", "jit_code_bytes", &VmStats::JitCodeBytes,
              /*InPrint=*/false),
      Counter("jit code instructions", "jit_code_instrs",
              &VmStats::JitCodeInstrs, /*InPrint=*/false),
      Counter("jit code reused", "jit_code_reused", &VmStats::JitCodeReused,
              /*InPrint=*/false),
      Counter("jit frame ops inline", "jit_frame_ops_inline",
              &VmStats::JitFrameOpsInline, /*InPrint=*/false),
      Counter("jit frame ops helper", "jit_frame_ops_helper",
              &VmStats::JitFrameOpsHelper, /*InPrint=*/false),
      Counter("mem elision sites", "mem_elision_sites",
              &VmStats::MemElisionSites, /*InPrint=*/false),
      Counter("mem checks elided", "mem_checks_elided",
              &VmStats::MemChecksElided, /*InPrint=*/false),
      Counter("live traces", "live_traces", &VmStats::LiveTraces),
      Counter("branch graph nodes", "graph_nodes", &VmStats::GraphNodes),
      Counter("graph arena bytes", "graph_arena_bytes",
              &VmStats::GraphArenaBytes, /*InPrint=*/false),
      Counter("telemetry events dropped", "events_dropped",
              &VmStats::EventsDropped, /*InPrint=*/false),
      Derived("dispatches per signal", "dispatches_per_signal",
              FieldFormat::Real, &VmStats::dispatchesPerSignal),
      Derived("dispatches per trace event", "dispatches_per_trace_event",
              FieldFormat::Real, &VmStats::dispatchesPerTraceEvent),
      FieldInfo{"total dispatches", "total_dispatches", FieldFormat::Count,
                nullptr, nullptr, &VmStats::totalDispatches, "",
                /*InPrint=*/false},
  };
  return Fields;
}

uint64_t VmStats::digest() const {
  // FNV-1a over the raw counters in field-table order. EventsDropped is
  // observability of the telemetry channel, not of the execution, and
  // depends on ring capacity; the validation counters likewise depend on
  // the --validate mode, which btrace replay reconstructs with defaults.
  // All are excluded so replay digests are configuration-independent.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  // The backend-tier counters are excluded for the same reason: which
  // tier ran a trace is a --backend choice, and interp/JIT runs are
  // bit-equivalent by contract.
  auto Excluded = [](uint64_t VmStats::*M) {
    return M == &VmStats::EventsDropped || M == &VmStats::TracesValidated ||
           M == &VmStats::TraceValidationRejects ||
           M == &VmStats::TracesJitCompiled ||
           M == &VmStats::TraceCompileFallbacks ||
           M == &VmStats::TraceDispatchesJit ||
           M == &VmStats::TraceDispatchesInterp ||
           M == &VmStats::JitCodeBytes || M == &VmStats::JitCodeInstrs ||
           M == &VmStats::JitCodeReused ||
           M == &VmStats::JitFrameOpsInline ||
           M == &VmStats::JitFrameOpsHelper ||
           // Elision accounting is configuration (--mem-elide) like the
           // tier counters; the elided checks were proved to pass, so the
           // execution semantics are identical either way.
           M == &VmStats::MemElisionSites || M == &VmStats::MemChecksElided ||
           // Memory layout, not execution: a change of the graph's
           // storage must not change the digest.
           M == &VmStats::GraphArenaBytes;
  };
  for (const FieldInfo &F : fields())
    if (F.Counter && !Excluded(F.Counter))
      Mix(this->*F.Counter);
  return H;
}

void VmStats::merge(const VmStats &Other) {
  // Every raw counter is in the field table; derived metrics recompute
  // from the summed counters, so the table drives merging too.
  for (const FieldInfo &F : fields())
    if (F.Counter)
      this->*F.Counter += Other.*F.Counter;
}

void VmStats::print(std::ostream &OS) const {
  // Values start at column 31, matching the historical hand-aligned dump.
  constexpr size_t ValueColumn = 31;
  for (const FieldInfo &F : fields()) {
    if (!F.InPrint)
      continue;
    std::string Label = std::string(F.Label) + ":";
    Label.resize(ValueColumn, ' ');
    OS << Label;
    switch (F.Format) {
    case FieldFormat::Count:
      OS << (F.Counter ? this->*F.Counter : (this->*F.DerivedCount)());
      break;
    case FieldFormat::Percent:
      OS << fieldValue(F) * 100 << "%";
      break;
    case FieldFormat::Real:
      OS << fieldValue(F);
      break;
    }
    OS << F.Suffix << "\n";
  }
}

void VmStats::writeJsonFields(JsonWriter &W) const {
  for (const FieldInfo &F : fields()) {
    if (F.Counter)
      W.fieldUInt(F.Key, this->*F.Counter);
    else if (F.DerivedCount)
      W.fieldUInt(F.Key, (this->*F.DerivedCount)());
    else
      W.fieldReal(F.Key, (this->*F.Derived)());
  }
}

void VmStats::toJson(std::ostream &OS) const {
  JsonWriter W(OS);
  W.beginObject();
  writeJsonFields(W);
  W.endObject();
}
