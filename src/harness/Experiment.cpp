//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "bytecode/Verifier.h"
#include "interp/ThreadedInterpreter.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace jtc;

const std::vector<double> &jtc::standardThresholds() {
  static const std::vector<double> Ts = {1.00, 0.99, 0.98, 0.97, 0.95};
  return Ts;
}

const std::vector<uint32_t> &jtc::standardDelays() {
  static const std::vector<uint32_t> Ds = {1, 64, 4096};
  return Ds;
}

VmStats jtc::runWorkload(const WorkloadInfo &W, const VmOptions &Options,
                         uint32_t ScaleOverride) {
  uint32_t Scale = ScaleOverride ? ScaleOverride : W.DefaultScale;
  Module M = W.Build(Scale);
  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::fprintf(stderr, "workload '%s' failed verification:\n%s", W.Name,
                 formatErrors(Errors).c_str());
    std::abort();
  }
  PreparedModule PM(M);
  TraceVM VM(PM, Options);
  RunResult R = VM.run();
  if (R.Status == RunStatus::Trapped) {
    std::fprintf(stderr, "workload '%s' trapped: %s\n", W.Name,
                 trapName(R.Trap));
    std::abort();
  }
  return VM.stats();
}

OverheadSample jtc::measureProfilerOverhead(const WorkloadInfo &W,
                                            uint32_t ScaleOverride,
                                            int Repeats) {
  uint32_t Scale = ScaleOverride ? ScaleOverride : W.DefaultScale;
  Module M = W.Build(Scale);
  PreparedModule PM(M);

  OverheadSample S;
  S.PlainSeconds = 1e100;
  S.ProfiledSeconds = 1e100;

  // The timed interpreter is the block executor -- the same substrate
  // class the paper measures against (a fast direct-threaded-inlining
  // SableVM) and the code TraceVM dispatches through; timing the slow
  // reference interpreter instead would understate the relative
  // profiling cost.
  ThreadedProgram TP(PM);
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    // Plain direct-threaded-inlining interpreter: no per-dispatch hook.
    {
      Timer T;
      ThreadedResult R = TP.run();
      double Sec = T.seconds();
      if (Sec < S.PlainSeconds)
        S.PlainSeconds = Sec;
      S.Dispatches = R.BlockDispatches;
      S.Instructions = R.Instructions;
    }
    // Profiled interpreter: the branch correlation graph hook runs at
    // every block dispatch (the paper's Table VI experiment). No trace
    // cache is attached, matching "we modified SableVM to include the
    // profiler code at the end of each basic block".
    {
      ProfilerConfig PC;
      BranchCorrelationGraph Graph(PC);
      Timer T;
      TP.runProfiled(Graph);
      double Sec = T.seconds();
      if (Sec < S.ProfiledSeconds)
        S.ProfiledSeconds = Sec;
    }
  }
  return S;
}

void jtc::writeBenchJson(std::ostream &OS, const std::string &Table,
                         const std::vector<BenchRecord> &Records) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("table", Table);
  W.key("records").beginArray();
  for (const BenchRecord &R : Records) {
    W.beginObject();
    W.field("workload", R.Workload);
    if (R.Threshold > 0)
      W.fieldReal("threshold", R.Threshold);
    if (R.Delay > 0)
      W.fieldUInt("delay", R.Delay);
    if (R.HasStats) {
      W.key("stats").beginObject();
      R.Stats.writeJsonFields(W);
      W.endObject();
    }
    if (R.HasOverhead) {
      W.key("overhead")
          .beginObject()
          .fieldReal("plain_seconds", R.Overhead.PlainSeconds)
          .fieldReal("profiled_seconds", R.Overhead.ProfiledSeconds)
          .fieldUInt("dispatches", R.Overhead.Dispatches)
          .fieldUInt("instructions", R.Overhead.Instructions)
          .fieldReal("overhead_per_million_dispatches",
                     R.Overhead.overheadPerMillionDispatches())
          .endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << "\n";
}

std::string jtc::parseBenchJsonArg(int Argc, char **Argv, const char *Tool) {
  std::string Path;
  ArgParser P;
  P.strOpt("json", &Path);
  if (!P.parse(Argc, Argv)) {
    std::fprintf(stderr, "usage: %s [--json=<file>]\n", Tool);
    std::exit(2);
  }
  return Path;
}

void jtc::maybeWriteBenchJson(const std::string &Path, const std::string &Table,
                              const std::vector<BenchRecord> &Records) {
  if (Path.empty())
    return;
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", Path.c_str());
    std::exit(1);
  }
  writeBenchJson(OS, Table, Records);
  std::fprintf(stderr, "wrote %zu records to %s\n", Records.size(),
               Path.c_str());
}
