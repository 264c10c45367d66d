//===- tools/jtcvm.cpp - Command-line driver ------------------------------===//
///
/// The command-line front end for the jtc virtual machine:
///
///   jtcvm run <program> [options]     run under the trace-dispatching VM
///   jtcvm interp <program>            run under the plain interpreters
///   jtcvm verify <program>            run the static verifier
///   jtcvm disasm <program>            print the decoded program
///   jtcvm emit <program>              print the program as .jasm text
///   jtcvm --merge-profiles <out.jtcp> <in.jtcp>...
///                                     merge profile snapshots (same
///                                     module) into one fleet snapshot
///
/// <program> is either a path to a .jasm file or "workload:<name>" for
/// one of the built-in benchmarks (workload:compress etc.).
///
/// Options for `run`:
///   --threshold=<0..1>   trace completion threshold   (default 0.97)
///   --delay=<n>          start-state delay            (default 64)
///   --decay=<n>          decay interval               (default 256)
///   --scale=<n>          workload scale               (default: builtin)
///   --max-instr=<n>      instruction budget
///   --no-traces          profile only, no trace dispatch
///   --no-profile         plain block interpreter
///   --stats              print the full statistics block
///   --dump-traces        print the live trace cache
///   --dump-graph         print the branch correlation graph (large!)
///   --quiet              suppress program output
///   --json[=<file>]      stats + run outcome as JSON (stdout if no file;
///                        implies --quiet on stdout)
///   --trace-out=<file>   telemetry as Chrome trace_event JSON (open in
///                        Perfetto / chrome://tracing)
///   --events-out=<file>  telemetry as JSONL, one event per line
///   --sample-interval=<n> snapshot stats deltas every n executed blocks
///   --telemetry-cap=<n>  event ring capacity (default 65536)
///   --load-profile=<f>   seed the session from a .jtcp snapshot (strictly
///                        re-validated against this program first)
///   --save-profile=<f>   write the session's profile + live traces as a
///                        .jtcp snapshot after the run
///   --btrace-out=<f>     capture the run as a compressed .btc branch
///                        trace (replayable with jtc-replay)
///   --btrace-sync-interval=<n>  blocks between .btc sync packets
///                        (default 4096; 0 = none)
///   --replay=<f>         do not execute: replay the .btc stream against
///                        <program> and verify the stats digest
///   --validate=<mode>    translation validation of each trace the JIT
///                        promotes: off, on (default) or strict (abort
///                        the process on any rejection)
///   --backend=<tier>     trace-execution backend: interp (default; the
///                        oracle tier), jit (x86-64 template JIT), or
///                        auto (jit when the host supports it). The
///                        JTC_BACKEND environment variable changes the
///                        default.
///   --mem-elide=<mode>   heap-access check elision from the trace-path
///                        alias analysis, in JIT-promoted code: on
///                        (default) or off. Digest-neutral either way
///                        (elided checks were proved to pass).
///
//===----------------------------------------------------------------------===//

#include "btrace/BtraceCapture.h"
#include "btrace/BtraceReplay.h"
#include "bytecode/Disassembler.h"
#include "bytecode/Verifier.h"
#include "interp/InstructionInterpreter.h"
#include "persist/Snapshot.h"
#include "persist/SnapshotMerge.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/TypedError.h"
#include "telemetry/Export.h"
#include "text/AsmParser.h"
#include "text/AsmWriter.h"
#include "validate/Validator.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace jtc;

namespace {

struct Options {
  std::string Command;
  std::string Program;
  double Threshold = 0.97;
  uint32_t Delay = 64;
  uint32_t Decay = 256;
  uint32_t Scale = 0;
  uint64_t MaxInstructions = ~0ull;
  bool NoTraces = false;
  bool NoProfile = false;
  bool Stats = false;
  bool DumpTraces = false;
  bool DumpGraph = false;
  bool Quiet = false;
  bool Json = false;
  std::string JsonOut;   ///< Empty with Json=true means stdout.
  std::string TraceOut;  ///< Chrome trace_event output file.
  std::string EventsOut; ///< JSONL event dump file.
  uint64_t SampleInterval = 0;
  uint32_t TelemetryCap = 1u << 16;
  std::string LoadProfile; ///< .jtcp snapshot to seed the session from.
  std::string SaveProfile; ///< .jtcp snapshot to write after the run.
  std::string BtraceOut;   ///< .btc branch-trace capture file.
  uint32_t BtraceSyncInterval = 4096;
  std::string Replay;       ///< .btc stream to replay instead of running.
  ValidateMode Validate = ValidateMode::On;
  bool MemElide = true; ///< Annotate traces with heap-check elisions.
  backend::BackendKind Backend = defaultBackendKind();
  uint32_t ResolvedScale = 1; ///< Actual workload scale (after defaults).

  /// Any flag that needs the event ring or phase sampler.
  bool wantsTelemetry() const {
    return !TraceOut.empty() || !EventsOut.empty() || SampleInterval > 0;
  }
};

int usage() {
  std::cerr
      << "usage: jtcvm <run|interp|verify|disasm|emit> <program> [options]\n"
         "  <program>: a .jasm file, or workload:<name> where name is one "
         "of:\n   ";
  for (const WorkloadInfo &W : allWorkloads())
    std::cerr << " " << W.Name;
  std::cerr << "\n  run options: --threshold=X --delay=N --decay=N "
               "--scale=N --max-instr=N\n"
               "               --no-traces --no-profile --stats "
               "--dump-traces --dump-graph --quiet\n"
               "               --json[=FILE] --trace-out=FILE "
               "--events-out=FILE\n"
               "               --sample-interval=N --telemetry-cap=N\n"
               "               --load-profile=FILE --save-profile=FILE\n"
               "               --btrace-out=FILE --btrace-sync-interval=N "
               "--replay=FILE\n"
               "               --validate=off|on|strict "
               "--backend=interp|jit|auto --mem-elide=on|off\n";
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.Program = Argv[2];
  ArgParser P;
  P.realOpt("threshold", &Opts.Threshold)
      .u32Opt("delay", &Opts.Delay)
      .u32Opt("decay", &Opts.Decay)
      .u32Opt("scale", &Opts.Scale)
      .uintOpt("max-instr", &Opts.MaxInstructions)
      .flag("no-traces", &Opts.NoTraces)
      .flag("no-profile", &Opts.NoProfile)
      .flag("stats", &Opts.Stats)
      .flag("dump-traces", &Opts.DumpTraces)
      .flag("dump-graph", &Opts.DumpGraph)
      .flag("quiet", &Opts.Quiet)
      .custom("json",
              [&Opts](const std::string &V) {
                Opts.Json = true;
                Opts.JsonOut = V;
                return true;
              })
      .strOpt("trace-out", &Opts.TraceOut)
      .strOpt("events-out", &Opts.EventsOut)
      .strOpt("load-profile", &Opts.LoadProfile)
      .strOpt("save-profile", &Opts.SaveProfile)
      .strOpt("btrace-out", &Opts.BtraceOut)
      .u32Opt("btrace-sync-interval", &Opts.BtraceSyncInterval)
      .strOpt("replay", &Opts.Replay)
      .choice("validate",
              {{"off", ValidateMode::Off},
               {"on", ValidateMode::On},
               {"strict", ValidateMode::Strict}},
              &Opts.Validate)
      .choice("mem-elide", {{"off", false}, {"on", true}}, &Opts.MemElide)
      .choice("backend",
              {{"interp", backend::BackendKind::Interp},
               {"jit", backend::BackendKind::Jit},
               {"auto", backend::BackendKind::Auto}},
              &Opts.Backend)
      .uintOpt("sample-interval", &Opts.SampleInterval)
      .custom(
          "telemetry-cap",
          [&Opts](const std::string &V) {
            Opts.TelemetryCap = static_cast<uint32_t>(std::atoi(V.c_str()));
            // Capacity 0 would silently disable the ring while
            // --events-out / --trace-out still look like they worked
            // (empty files).
            if (Opts.TelemetryCap == 0) {
              std::cerr << "invalid --telemetry-cap '" << V << "'\n";
              return false;
            }
            return true;
          },
          /*ValueRequired=*/true);
  return P.parse(Argc, Argv, 3);
}

/// Loads the program named by \p Opts: a workload or a .jasm file. Also
/// resolves the effective workload scale into Opts (btrace provenance).
std::optional<Module> loadProgram(Options &Opts) {
  if (Opts.Program.rfind("workload:", 0) == 0) {
    std::string Name = Opts.Program.substr(9);
    const WorkloadInfo *W = findWorkload(Name);
    if (!W) {
      std::cerr << "unknown workload '" << Name << "'\n";
      return std::nullopt;
    }
    Opts.ResolvedScale = Opts.Scale ? Opts.Scale : W->DefaultScale;
    return W->Build(Opts.ResolvedScale);
  }
  Opts.ResolvedScale = Opts.Scale ? Opts.Scale : 1;
  std::string Error;
  std::optional<Module> M = parseModuleFile(Opts.Program, Error);
  if (!M)
    std::cerr << "error: " << Error << "\n";
  return M;
}

void printOutput(const Machine &Mach, bool Quiet) {
  if (Quiet)
    return;
  for (int64_t V : Mach.output())
    std::cout << V << "\n";
}

int reportEnd(const RunResult &R) {
  switch (R.Status) {
  case RunStatus::Finished:
    return 0;
  case RunStatus::Trapped:
    std::cerr << "trap: " << trapName(R.Trap) << "\n";
    return 1;
  case RunStatus::BudgetExhausted:
    std::cerr << "instruction budget exhausted after " << R.Instructions
              << " instructions\n";
    return 1;
  }
  return 1;
}

/// The `--json` document: run outcome, configuration, the full stats
/// block, and the phase time-series when sampling was on.
void writeRunJson(std::ostream &OS, const Options &Opts, const TraceVM &VM,
                  const RunResult &R, const persist::LoadReport &Loaded,
                  const btrace::BtraceFileCapture *Capture) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("program", Opts.Program);
  W.field("status", runStatusName(R.Status));
  W.key("config")
      .beginObject()
      .fieldReal("threshold", Opts.Threshold)
      .fieldUInt("delay", Opts.Delay)
      .fieldUInt("decay", Opts.Decay)
      .fieldBool("traces", !Opts.NoTraces)
      .fieldBool("profiling", !Opts.NoProfile)
      // Requested knob and the tier actually executing (Auto resolved).
      .field("backend", backend::backendKindName(VM.options().backend()))
      .field("backend_tier", backend::backendKindName(VM.backendTier()))
      .endObject();
  if (!Opts.LoadProfile.empty()) {
    W.key("profile")
        .beginObject()
        .fieldUInt("nodes", Loaded.Nodes)
        .fieldUInt("traces", Loaded.Traces)
        .fieldUInt("dropped_by_completion", Loaded.TracesDroppedByCompletion)
        .fieldUInt("donor_blocks", Loaded.DonorBlocks)
        .endObject();
  }
  if (Capture) {
    const btrace::EncoderStats &ES = Capture->encoderStats();
    W.key("btrace")
        .beginObject()
        .field("path", Capture->path())
        .fieldUInt("bytes", ES.BytesWritten)
        .fieldUInt("blocks", ES.Blocks)
        .fieldReal("bytes_per_block",
                   ES.Blocks ? static_cast<double>(ES.BytesWritten) /
                                   static_cast<double>(ES.Blocks)
                             : 0.0)
        .fieldUInt("tnt_packets", ES.TntPackets)
        .fieldUInt("tip_packets", ES.TipPackets)
        .fieldUInt("sync_packets", ES.SyncPackets)
        .fieldBool("dropped", ES.Dropped)
        .endObject();
  }
  // The validation verdict breakdown: how many promoted traces the
  // translation validator checked (none on the interp tier), the
  // rejections by typed reason, and how many proofs the module's memo
  // answered. Omitted entirely with --validate=off (nothing ran).
  if (VM.options().validate() != ValidateMode::Off) {
    const VmStats &S = VM.stats();
    W.key("validation")
        .beginObject()
        .field("mode", validateModeName(VM.options().validate()))
        .fieldUInt("checked", S.TracesValidated)
        .fieldUInt("accepted", S.TracesValidated - S.TraceValidationRejects)
        .fieldUInt("rejected", S.TraceValidationRejects)
        .fieldUInt("reused", S.TraceProofsReused);
    W.key("rejected_by_reason").beginObject();
    if (const backend::BackendStats *BS = VM.backendStats())
      for (const auto &[Code, Count] : BS->RejectsByReason)
        W.fieldUInt(
            validate::reasonName(static_cast<validate::Reason>(Code)), Count);
    W.endObject();
    W.endObject();
  }
  W.key("stats").beginObject();
  VM.stats().writeJsonFields(W);
  W.endObject();
  if (!VM.sampler().empty()) {
    W.key("phases").beginArray();
    const PhaseSampler<VmStats> &Sampler = VM.sampler();
    for (size_t I = 0; I < Sampler.samples().size(); ++I) {
      const PhaseSample<VmStats> &S = Sampler.samples()[I];
      W.beginObject().fieldUInt("clock", S.Clock);
      W.key("delta").beginObject();
      Sampler.delta(I).writeJsonFields(W);
      W.endObject();
      W.key("cumulative").beginObject();
      S.Cumulative.writeJsonFields(W);
      W.endObject().endObject();
    }
    W.endArray();
  }
  W.endObject();
  OS << "\n";
}

/// Opens \p Path and writes with \p Fn; reports and fails on I/O errors.
template <typename Fn>
bool writeFileOr(const std::string &Path, Fn &&Write) {
  std::ofstream OS(Path);
  if (!OS) {
    std::cerr << "cannot open '" << Path << "' for writing\n";
    return false;
  }
  Write(OS);
  return true;
}

/// Reports a typed failure: one qualified line on stderr, and with --json
/// the repo-uniform error document ({"error": {"category", "code",
/// "detail"}}) shared by the persist, validate and backend taxonomies.
int failTyped(const Options &Opts, const char *Context, const TypedError &E) {
  std::cerr << Context << ": " << E.qualifiedMessage() << "\n";
  if (Opts.Json) {
    auto WriteErr = [&](std::ostream &OS) {
      JsonWriter W(OS);
      W.beginObject().field("context", Context);
      W.key("error").beginObject();
      E.writeJsonFields(W);
      W.endObject().endObject();
      OS << "\n";
    };
    if (Opts.JsonOut.empty())
      WriteErr(std::cout);
    else
      writeFileOr(Opts.JsonOut, WriteErr);
  }
  return 1;
}

/// `jtcvm run --replay=<f>`: replay a captured .btc stream against the
/// program instead of executing it, and verify the recorded digest.
int cmdReplay(const Options &Opts, const Module &M) {
  std::ifstream In(Opts.Replay, std::ios::binary);
  if (!In) {
    std::cerr << "cannot open btrace stream '" << Opts.Replay << "'\n";
    return 1;
  }
  std::vector<uint8_t> Data((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  PreparedModule PM(M);
  btrace::ReplayResult RR;
  persist::PersistError Err;
  if (!btrace::replayBtrace(Data.data(), Data.size(), PM, RR, Err))
    return failTyped(Opts, "replay failed", Err.typed());
  if (Opts.Stats)
    RR.Stats.print(std::cerr);
  std::cerr << "replayed " << RR.BlocksWalked << " blocks ("
            << runStatusName(RR.End.Status) << "); stats digest "
            << (RR.DigestMatch ? "matches" : "MISMATCH") << "\n";
  return RR.DigestMatch ? 0 : 1;
}

int cmdRun(const Options &Opts, const Module &M) {
  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::cerr << "verification failed:\n" << formatErrors(Errors);
    return 1;
  }
  if (!Opts.Replay.empty())
    return cmdReplay(Opts, M);
  if (Opts.wantsTelemetry() && !TelemetryCompiledIn) {
    std::cerr << "telemetry options require a build with -DJTC_TELEMETRY=ON\n";
    return 2;
  }
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions()
                     .completionThreshold(Opts.Threshold)
                     .startStateDelay(Opts.Delay)
                     .decayInterval(Opts.Decay)
                     .maxInstructions(Opts.MaxInstructions)
                     .traces(!Opts.NoTraces)
                     .profiling(!Opts.NoProfile)
                     .telemetry(Opts.wantsTelemetry())
                     .telemetryCapacity(Opts.TelemetryCap)
                     .sampleInterval(Opts.SampleInterval)
                     .loadProfilePath(Opts.LoadProfile)
                     .saveProfilePath(Opts.SaveProfile)
                     .btraceSyncInterval(Opts.BtraceSyncInterval)
                     .validate(Opts.Validate)
                     .memElide(Opts.MemElide)
                     .backend(Opts.Backend));
  persist::LoadReport Loaded;
  persist::PersistError PErr;
  if (!persist::applyProfileOptions(VM, Loaded, PErr))
    return failTyped(Opts, "cannot load profile", PErr.typed());
  if (!Opts.LoadProfile.empty() && !Opts.Quiet)
    std::cerr << "profile loaded: " << Loaded.Nodes << " nodes, "
              << Loaded.Traces << " traces ("
              << Loaded.TracesDroppedByCompletion
              << " dropped by completion history)\n";
  std::unique_ptr<btrace::BtraceFileCapture> Capture;
  if (!Opts.BtraceOut.empty()) {
    Capture = btrace::BtraceFileCapture::start(VM, Opts.BtraceOut,
                                               Opts.Program,
                                               Opts.ResolvedScale, PErr);
    if (!Capture)
      return failTyped(Opts, "cannot capture btrace", PErr.typed());
  }
  RunResult R = VM.run();
  if (Capture && !Capture->finish(PErr))
    return failTyped(Opts, "btrace capture failed", PErr.typed());
  if (!persist::finishProfileOptions(VM, PErr))
    return failTyped(Opts, "cannot save profile", PErr.typed());
  // --json to stdout owns the stream: program output is suppressed there
  // so the document stays parseable.
  bool JsonToStdout = Opts.Json && Opts.JsonOut.empty();
  printOutput(VM.machine(), Opts.Quiet || JsonToStdout);
  if (Opts.DumpTraces)
    VM.traceCache().dump(std::cerr);
  if (Opts.DumpGraph)
    VM.graph().dump(std::cerr);
  if (Opts.Stats)
    VM.stats().print(std::cerr);
  if (Capture && !Opts.Quiet) {
    const btrace::EncoderStats &ES = Capture->encoderStats();
    std::cerr << "btrace: " << ES.BytesWritten << " bytes for " << ES.Blocks
              << " blocks -> " << Opts.BtraceOut << "\n";
  }
  if (Opts.Json) {
    if (JsonToStdout)
      writeRunJson(std::cout, Opts, VM, R, Loaded, Capture.get());
    else if (!writeFileOr(Opts.JsonOut, [&](std::ostream &OS) {
               writeRunJson(OS, Opts, VM, R, Loaded, Capture.get());
             }))
      return 1;
  }
  if (!Opts.TraceOut.empty() &&
      !writeFileOr(Opts.TraceOut, [&](std::ostream &OS) {
        writeChromeTrace(OS, VM.events(), VM.sampler());
      }))
    return 1;
  if (!Opts.EventsOut.empty() &&
      !writeFileOr(Opts.EventsOut, [&](std::ostream &OS) {
        writeEventsJsonl(OS, VM.events());
      }))
    return 1;
  return reportEnd(R);
}

int cmdInterp(const Options &Opts, const Module &M) {
  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::cerr << "verification failed:\n" << formatErrors(Errors);
    return 1;
  }
  Machine Mach(M);
  RunResult R = runInstructions(Mach, Opts.MaxInstructions);
  printOutput(Mach, Opts.Quiet);
  if (Opts.Stats)
    std::cerr << "instructions: " << R.Instructions
              << "\ndispatches:   " << R.Dispatches << "\n";
  return reportEnd(R);
}

/// jtcvm --merge-profiles <out.jtcp> <in.jtcp>... -- the CLI face of the
/// fleet aggregation tier's snapshot merge.
int cmdMergeProfiles(int Argc, char **Argv) {
  if (Argc < 4) {
    std::cerr << "usage: jtcvm --merge-profiles <out.jtcp> <in.jtcp>...\n";
    return 2;
  }
  std::string OutPath = Argv[2];
  std::vector<std::string> InPaths(Argv + 3, Argv + Argc);
  persist::MergeReport Report;
  persist::PersistError Err;
  if (!persist::mergeSnapshotFiles(InPaths, OutPath, TraceConfig(), Report,
                                   Err)) {
    std::cerr << "merge failed: " << Err.message() << "\n";
    return 1;
  }
  std::cout << "merged " << Report.Inputs << " snapshots -> " << OutPath
            << ": " << Report.Nodes << " nodes, " << Report.Traces
            << " traces (" << Report.TracesDeduped << " deduped, "
            << Report.TracesDroppedByCompletion
            << " dropped by completion), epoch " << Report.Epoch << "\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "--merge-profiles") == 0)
    return cmdMergeProfiles(Argc, Argv);

  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();

  std::optional<Module> M = loadProgram(Opts);
  if (!M)
    return 1;

  if (Opts.Command == "run")
    return cmdRun(Opts, *M);
  if (Opts.Command == "interp")
    return cmdInterp(Opts, *M);
  if (Opts.Command == "verify") {
    std::vector<VerifyError> Errors = verifyModule(*M);
    if (Errors.empty()) {
      std::cout << "ok: " << M->Methods.size() << " methods, "
                << M->Classes.size() << " classes verify\n";
      return 0;
    }
    std::cerr << formatErrors(Errors);
    return 1;
  }
  if (Opts.Command == "disasm") {
    disassembleModule(std::cout, *M);
    return 0;
  }
  if (Opts.Command == "emit") {
    writeModule(std::cout, *M);
    return 0;
  }
  std::cerr << "unknown command '" << Opts.Command << "'\n";
  return usage();
}
