//===- tools/jtc_serve.cpp - Multi-session serving driver -----------------===//
///
/// Command-line front end for the VmService: registers built-in workloads,
/// submits a batch of run requests across a worker pool, and reports
/// service-level statistics -- requests/sec, warm vs cold session counts,
/// per-module snapshot state and the fleet-wide VmStats aggregate.
///
///   jtc-serve [options]
///     --workers=<n>        worker thread count            (default 4)
///     --requests=<n>       requests to submit             (default 64)
///     --workload=<names>   comma list of workloads, or "all"
///                          (default compress)
///     --scale=<n>          workload scale override        (default builtin)
///     --threshold=<0..1>   trace completion threshold     (default 0.97)
///     --delay=<n>          start-state delay              (default 64)
///     --decay=<n>          decay interval                 (default 256)
///     --max-instr=<n>      per-session instruction budget
///     --snapshot-min-blocks=<n>  donor maturity bar       (default 1024)
///     --save-profile=<dir> checkpoint published snapshots to
///                          <dir>/<module>.jtcp on drain/shutdown
///     --load-profile=<dir> pre-publish <dir>/<module>.jtcp at register
///                          (cross-process warm start)
///     --checkpoint-interval=<s>  also checkpoint every s seconds
///     --btrace-dir=<dir>   capture every session as a replayable
///                          <dir>/<module>-<seq>.btc branch trace
///     --btrace-sync-interval=<n>  blocks between .btc sync packets
///                          (default 4096)
///     --btrace-keep=<n>    keep at most n streams per module (default 4,
///                          0 = keep everything)
///     --validate=<mode>    trace translation validation: off, on
///                          (default) or strict (abort on rejection)
///     --backend=<tier>     trace-execution backend for every session:
///                          interp (default), jit or auto
///     --no-warm            disable trace-cache warm handoff
///     --no-traces          profile only, no trace dispatch
///     --no-profile         plain block interpreter sessions
///     --stats              print the aggregate statistics block
///     --json[=<file>]      service stats as JSON (stdout if no file)
///
//===----------------------------------------------------------------------===//

#include "server/VmService.h"
#include "support/ArgParse.h"
#include "support/Json.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace jtc;

namespace {

struct Options {
  uint32_t Workers = 4;
  uint32_t Requests = 64;
  std::string Workloads = "compress";
  uint32_t Scale = 0;
  double Threshold = 0.97;
  uint32_t Delay = 64;
  uint32_t Decay = 256;
  uint64_t MaxInstructions = ~0ull;
  uint64_t SnapshotMinBlocks = 1024;
  std::string SaveProfileDir; ///< Checkpoint directory (empty = off).
  std::string LoadProfileDir; ///< Startup-load directory (empty = off).
  double CheckpointInterval = 0;
  std::string BtraceDir; ///< Per-session capture directory (empty = off).
  uint32_t BtraceSyncInterval = 4096;
  uint32_t BtraceKeep = 4;
  ValidateMode Validate = ValidateMode::On;
  backend::BackendKind Backend = defaultBackendKind();
  bool NoWarm = false;
  bool NoTraces = false;
  bool NoProfile = false;
  bool Stats = false;
  bool Json = false;
  std::string JsonOut; ///< Empty with Json=true means stdout.
};

int usage() {
  std::cerr << "usage: jtc-serve [options]\n"
               "  --workers=N --requests=N --workload=NAME[,NAME...]|all "
               "--scale=N\n"
               "  --threshold=X --delay=N --decay=N --max-instr=N\n"
               "  --snapshot-min-blocks=N --no-warm --no-traces --no-profile\n"
               "  --save-profile=DIR --load-profile=DIR "
               "--checkpoint-interval=DURATION (30s, 5m; bare = seconds)\n"
               "  --btrace-dir=DIR --btrace-sync-interval=N --btrace-keep=N\n"
               "  --validate=off|on|strict --backend=interp|jit|auto\n"
               "  --stats --json[=FILE]\n"
               "  workloads:";
  for (const WorkloadInfo &W : allWorkloads())
    std::cerr << " " << W.Name;
  std::cerr << "\n";
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  ArgParser P;
  P.u32Opt("workers", &Opts.Workers)
      .u32Opt("requests", &Opts.Requests)
      .strOpt("workload", &Opts.Workloads)
      .u32Opt("scale", &Opts.Scale)
      .realOpt("threshold", &Opts.Threshold)
      .u32Opt("delay", &Opts.Delay)
      .u32Opt("decay", &Opts.Decay)
      .uintOpt("max-instr", &Opts.MaxInstructions)
      .uintOpt("snapshot-min-blocks", &Opts.SnapshotMinBlocks)
      .strOpt("save-profile", &Opts.SaveProfileDir)
      .strOpt("load-profile", &Opts.LoadProfileDir)
      .durationOpt("checkpoint-interval", &Opts.CheckpointInterval)
      .strOpt("btrace-dir", &Opts.BtraceDir)
      .u32Opt("btrace-sync-interval", &Opts.BtraceSyncInterval)
      .u32Opt("btrace-keep", &Opts.BtraceKeep)
      .choice("validate",
              {{"off", ValidateMode::Off},
               {"on", ValidateMode::On},
               {"strict", ValidateMode::Strict}},
              &Opts.Validate)
      .choice("backend",
              {{"interp", backend::BackendKind::Interp},
               {"jit", backend::BackendKind::Jit},
               {"auto", backend::BackendKind::Auto}},
              &Opts.Backend)
      .flag("no-warm", &Opts.NoWarm)
      .flag("no-traces", &Opts.NoTraces)
      .flag("no-profile", &Opts.NoProfile)
      .flag("stats", &Opts.Stats)
      .custom("json", [&Opts](const std::string &V) {
        Opts.Json = true;
        Opts.JsonOut = V;
        return true;
      });
  return P.parse(Argc, Argv);
}

/// Resolves --workload: a comma list of registry names, or "all".
bool resolveWorkloads(const std::string &Spec,
                      std::vector<const WorkloadInfo *> &Out) {
  if (Spec == "all") {
    for (const WorkloadInfo &W : allWorkloads())
      Out.push_back(&W);
    return true;
  }
  std::istringstream SS(Spec);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    const WorkloadInfo *W = findWorkload(Name);
    if (!W) {
      std::cerr << "unknown workload '" << Name << "'\n";
      return false;
    }
    Out.push_back(W);
  }
  return !Out.empty();
}

void writeServeJson(std::ostream &OS, const Options &Opts, const VmService &Svc,
                    const std::vector<const WorkloadInfo *> &Ws,
                    double WallSeconds) {
  ServiceStats S = Svc.stats();
  JsonWriter W(OS);
  W.beginObject();
  W.key("config")
      .beginObject()
      .fieldUInt("workers", Opts.Workers)
      .fieldUInt("requests", Opts.Requests)
      .fieldReal("threshold", Opts.Threshold)
      .fieldUInt("delay", Opts.Delay)
      .fieldUInt("decay", Opts.Decay)
      .fieldBool("warm_handoff", !Opts.NoWarm)
      .fieldBool("traces", !Opts.NoTraces)
      .fieldBool("profiling", !Opts.NoProfile)
      .field("validate", validateModeName(Opts.Validate))
      .field("backend", backend::backendKindName(Opts.Backend))
      .endObject();
  W.fieldReal("wall_seconds", WallSeconds);
  W.fieldReal("requests_per_second",
              WallSeconds > 0 ? static_cast<double>(S.Completed) / WallSeconds
                              : 0.0);
  W.key("service").beginObject();
  S.writeJsonFields(W);
  W.endObject();
  W.key("snapshots").beginObject();
  for (const WorkloadInfo *Info : Ws) {
    ProfileSnapshot Snap = Svc.snapshotFor(Info->Name);
    W.key(Info->Name).beginObject();
    Snap.writeJsonFields(W);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  OS << "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();
  std::vector<const WorkloadInfo *> Ws;
  if (!resolveWorkloads(Opts.Workloads, Ws))
    return usage();

  VmService Svc(ServiceOptions()
                    .workers(Opts.Workers)
                    .warmHandoff(!Opts.NoWarm)
                    .snapshotMinBlocks(Opts.SnapshotMinBlocks)
                    .checkpointDir(Opts.SaveProfileDir)
                    .loadDir(Opts.LoadProfileDir)
                    .checkpointIntervalSeconds(Opts.CheckpointInterval)
                    .btraceDir(Opts.BtraceDir)
                    .btraceKeepPerModule(Opts.BtraceKeep)
                    .vm(VmOptions()
                            .completionThreshold(Opts.Threshold)
                            .startStateDelay(Opts.Delay)
                            .decayInterval(Opts.Decay)
                            .maxInstructions(Opts.MaxInstructions)
                            .traces(!Opts.NoTraces)
                            .profiling(!Opts.NoProfile)
                            .btraceSyncInterval(Opts.BtraceSyncInterval)
                            .validate(Opts.Validate)
                            .backend(Opts.Backend)));
  for (const WorkloadInfo *W : Ws)
    Svc.registerWorkload(*W, Opts.Scale);

  std::vector<std::future<SessionResult>> Futures;
  Futures.reserve(Opts.Requests);
  auto T0 = std::chrono::steady_clock::now();
  for (uint32_t I = 0; I < Opts.Requests; ++I)
    Futures.push_back(Svc.submit({Ws[I % Ws.size()]->Name}));

  int Failures = 0;
  for (std::future<SessionResult> &F : Futures) {
    SessionResult R = F.get();
    if (R.Rejected || R.Run.Status != RunStatus::Finished) {
      ++Failures;
      std::cerr << "request failed: " << R.Module
                << (R.Rejected ? " (rejected)" : " (did not finish)") << "\n";
    }
  }
  auto T1 = std::chrono::steady_clock::now();
  double Wall = std::chrono::duration<double>(T1 - T0).count();

  // Every future has resolved, so this returns immediately -- but it also
  // triggers checkpoint-on-drain, so the stats below see the saved files.
  Svc.drain();

  ServiceStats S = Svc.stats();
  bool JsonToStdout = Opts.Json && Opts.JsonOut.empty();
  if (!JsonToStdout) {
    std::cout << "requests:  " << S.Completed << " completed, " << S.Rejected
              << " rejected\n"
              << "workers:   " << Svc.workers() << "\n"
              << "wall:      " << Wall << " s (" << (Wall > 0 ? static_cast<double>(S.Completed) / Wall : 0)
              << " req/s)\n"
              << "sessions:  " << S.WarmStarts << " warm, " << S.ColdStarts
              << " cold, " << S.SnapshotsPublished << " snapshots published\n";
    if (Opts.Validate != ValidateMode::Off)
      std::cout << "validation: " << S.Aggregate.TracesValidated
                << " traces checked, " << S.Aggregate.TraceValidationRejects
                << " rejected\n";
    if (!Opts.SaveProfileDir.empty() || !Opts.LoadProfileDir.empty())
      std::cout << "checkpoints: " << S.CheckpointsSaved << " saved, "
                << S.CheckpointsLoaded << " loaded, "
                << S.CheckpointLoadRejects << " rejected\n";
    if (!Opts.BtraceDir.empty())
      std::cout << "btrace:    " << S.BtraceStreams << " streams, "
                << S.BtraceBytes << " bytes, " << S.BtraceDrops
                << " dropped -> " << Opts.BtraceDir << "\n";
    for (const WorkloadInfo *Info : Ws) {
      ProfileSnapshot Snap = Svc.snapshotFor(Info->Name);
      if (!Snap.empty())
        std::cout << "snapshot:  " << Info->Name << ": " << Snap.numTraces()
                  << " traces, " << Snap.numNodes() << " nodes (donor ran "
                  << Snap.donorBlocks() << " blocks)\n";
    }
  }
  if (Opts.Stats)
    S.Aggregate.print(std::cerr);
  if (Opts.Json) {
    if (JsonToStdout) {
      writeServeJson(std::cout, Opts, Svc, Ws, Wall);
    } else {
      std::ofstream OS(Opts.JsonOut);
      if (!OS) {
        std::cerr << "cannot open '" << Opts.JsonOut << "' for writing\n";
        return 1;
      }
      writeServeJson(OS, Opts, Svc, Ws, Wall);
    }
  }
  return Failures == 0 ? 0 : 1;
}
