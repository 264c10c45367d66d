//===- bench/validate_overhead.cpp - Translation-validation overhead ------===//
///
/// Table VI methodology applied to the translation validator: each paper
/// workload runs under the default adaptive configuration on the native
/// tier (--backend=auto) twice -- once with --validate=off and once with
/// --validate=on -- and each flavour is timed as the fastest of N
/// repeats to suppress scheduling noise. Every timed run gets a freshly
/// prepared module, whose static facts and trace proofs are still
/// unbuilt.
///
/// Validation runs when the JIT promotes a trace, once per trace shape
/// and module, so its cost is a promotion-time tax, not a steady-state
/// one: the overhead shrinks as the run length grows and the warmup
/// fraction falls, and a second session over the same module (the warm
/// column) finds every shape proved. The interp tier validates nothing;
/// on a host without the JIT every column reads zero validation work.
/// Reported per workload: wall-clock overhead (%) cold and warm, traces
/// checked, and rejections (which must be zero for the stock optimizer).
/// --json=<file> writes the CI artifact.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <fstream>
#include <iostream>

using namespace jtc;

namespace {

struct Sample {
  std::string Workload;
  double PlainSeconds = 0;
  double ValidatedSeconds = 0;
  /// The second validated session over the same module.
  double WarmSeconds = 0;
  uint64_t TracesChecked = 0;
  uint64_t TracesRejected = 0;

  double overheadPercent(double Seconds) const {
    return PlainSeconds > 0 ? (Seconds - PlainSeconds) / PlainSeconds * 100.0
                            : 0.0;
  }
};

/// The default configuration on the tier that validates.
VmOptions tierOptions() {
  return VmOptions().backend(backend::BackendKind::Auto);
}

double secondsOf(TraceVM &VM) {
  auto T0 = std::chrono::steady_clock::now();
  VM.run();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

Sample measure(const WorkloadInfo &W, int Repeats) {
  Sample S;
  S.Workload = W.Name;
  Module M = W.Build(W.DefaultScale);

  S.PlainSeconds = 1e100;
  for (int I = 0; I < Repeats; ++I) {
    PreparedModule PM(M);
    TraceVM VM(PM, tierOptions().validate(ValidateMode::Off));
    S.PlainSeconds = std::min(S.PlainSeconds, secondsOf(VM));
  }

  S.ValidatedSeconds = S.WarmSeconds = 1e100;
  for (int I = 0; I < Repeats; ++I) {
    PreparedModule PM(M);
    {
      TraceVM VM(PM, tierOptions().validate(ValidateMode::On));
      S.ValidatedSeconds = std::min(S.ValidatedSeconds, secondsOf(VM));
      S.TracesChecked = VM.stats().TracesValidated;
      S.TracesRejected = VM.stats().TraceValidationRejects;
    }
    TraceVM Warm(PM, tierOptions().validate(ValidateMode::On));
    S.WarmSeconds = std::min(S.WarmSeconds, secondsOf(Warm));
  }
  return S;
}

void writeJson(std::ostream &OS, const std::vector<Sample> &Samples) {
  JsonWriter W(OS);
  W.beginObject().field("table", "validate_overhead").key("records");
  W.beginArray();
  for (const Sample &S : Samples) {
    W.beginObject()
        .field("workload", S.Workload)
        .fieldReal("plain_seconds", S.PlainSeconds)
        .fieldReal("validated_seconds", S.ValidatedSeconds)
        .fieldReal("overhead_pct", S.overheadPercent(S.ValidatedSeconds))
        .fieldReal("warm_seconds", S.WarmSeconds)
        .fieldReal("warm_overhead_pct", S.overheadPercent(S.WarmSeconds))
        .fieldUInt("traces_checked", S.TracesChecked)
        .fieldUInt("traces_rejected", S.TracesRejected)
        .endObject();
  }
  W.endArray().endObject();
  OS << "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonOut = parseBenchJsonArg(argc, argv, "validate_overhead");
  std::cout << "Translation-validation overhead (Table VI methodology)\n"
            << "(--backend=auto, --validate=off vs --validate=on; "
               "validation runs once per JIT-promoted trace shape and "
               "module; warm = a second session over the module)\n\n";

  TablePrinter T({"benchmark", "off (s)", "on (s)", "overhead (%)",
                  "warm on (s)", "warm overhead (%)", "traces checked",
                  "rejected"});
  std::vector<Sample> Samples;
  double TotalPlain = 0, TotalValidated = 0, TotalWarm = 0;
  uint64_t TotalChecked = 0, TotalRejected = 0;
  for (const WorkloadInfo &W : allWorkloads()) {
    std::cerr << "  timing " << W.Name << "...\n";
    Sample S = measure(W, /*Repeats=*/3);
    T.addRow({S.Workload, TablePrinter::fmt(S.PlainSeconds, 3),
              TablePrinter::fmt(S.ValidatedSeconds, 3),
              TablePrinter::fmtPercent(
                  (S.ValidatedSeconds - S.PlainSeconds) / S.PlainSeconds, 1),
              TablePrinter::fmt(S.WarmSeconds, 3),
              TablePrinter::fmtPercent(
                  (S.WarmSeconds - S.PlainSeconds) / S.PlainSeconds, 1),
              std::to_string(S.TracesChecked),
              std::to_string(S.TracesRejected)});
    TotalPlain += S.PlainSeconds;
    TotalValidated += S.ValidatedSeconds;
    TotalWarm += S.WarmSeconds;
    TotalChecked += S.TracesChecked;
    TotalRejected += S.TracesRejected;
    Samples.push_back(std::move(S));
  }
  T.print(std::cout);
  std::cout << "\nacross all benchmarks: validation adds "
            << TablePrinter::fmtPercent(
                   (TotalValidated - TotalPlain) / TotalPlain, 1)
            << " wall-clock over " << TotalChecked << " checked traces ("
            << TotalRejected << " rejected); a warm session adds "
            << TablePrinter::fmtPercent((TotalWarm - TotalPlain) / TotalPlain,
                                        1)
            << "\n";

  if (!JsonOut.empty()) {
    std::ofstream OS(JsonOut);
    if (!OS) {
      std::cerr << "cannot open '" << JsonOut << "' for writing\n";
      return 1;
    }
    writeJson(OS, Samples);
    std::cerr << "wrote " << JsonOut << "\n";
  }
  return 0;
}
