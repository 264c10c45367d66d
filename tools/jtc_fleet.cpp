//===- tools/jtc_fleet.cpp - Sharded serving fleet supervisor -------------===//
///
/// The fleet entry point, running in one of two modes:
///
///   jtc-fleet [options]          supervisor: binds the front-end and every
///                                shard's listening socket, forks N shard
///                                processes (each re-executing this binary
///                                in --shard mode with its socket inherited
///                                by fd), routes sessions by consistent
///                                hash, restarts crashed shards, and
///                                periodically merges shard checkpoints
///                                into a fleet profile aggregate.
///
///   jtc-fleet --shard ...        one shard process (spawned by the
///                                supervisor; not for direct use).
///
/// Supervisor options:
///   --shards=N                shard process count          (default 2)
///   --shard-workers=N         VmService workers per shard  (default 1)
///   --listen=PORT             front-end port (default 0 = kernel pick)
///   --workload=NAME[:SCALE]   register a workload (repeatable;
///                             default: every registry workload)
///   --scale=N                 default scale for --workload without one
///   --state-dir=DIR           checkpoints + fleet aggregate live here
///   --aggregate-interval=D    merge cadence ("30s", "5m"; 0 = only at
///                             exit)                        (default 0)
///   --checkpoint-interval=D   per-shard periodic checkpoint cadence
///   --max-queue-depth=N       admission bound per shard ("64", "1k")
///   --idle-timeout=D          close idle client connections
///   --run-for=D               serve for this long, then drain and exit
///   --sessions=N              drive N sessions through the front-end
///                             (round-robin workloads, distinct keys)
///   --backend=interp|jit|auto trace-execution tier of every shard's
///                             sessions (default: interp, or the
///                             JTC_BACKEND environment variable)
///   --stats                   human-readable fleet summary to stderr
///   --json[=FILE]             fleet + per-shard counters as JSON
///
//===----------------------------------------------------------------------===//

#include "fleet/Shard.h"
#include "fleet/Supervisor.h"
#include "net/Client.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "telemetry/Event.h"
#include "workloads/Workloads.h"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

using namespace jtc;
using namespace jtc::fleet;

namespace {

struct Options {
  bool Shard = false; ///< Shard mode (supervisor-spawned).
  uint64_t ListenFd = 0;
  uint32_t ShardId = 0;
  uint32_t Shards = 2;
  uint32_t ShardWorkers = 1;
  uint32_t Listen = 0;
  uint32_t Scale = 0;
  std::vector<std::pair<std::string, uint32_t>> Workloads;
  std::string StateDir;
  double AggregateInterval = 0;
  double CheckpointInterval = 0;
  uint64_t MaxQueueDepth = 64;
  double IdleTimeout = 0;
  double RunFor = 0;
  uint64_t Sessions = 0;
  uint64_t MaxInstructions = 0;
  backend::BackendKind Backend = defaultBackendKind();
  bool Stats = false;
  bool Json = false;
  std::string JsonOut;
};

int usage() {
  std::cerr
      << "usage: jtc-fleet [options]\n"
         "  --shards=N --shard-workers=N --listen=PORT\n"
         "  --workload=NAME[:SCALE] --scale=N --state-dir=DIR\n"
         "  --aggregate-interval=D --checkpoint-interval=D "
         "--max-queue-depth=N\n"
         "  --idle-timeout=D --run-for=D --sessions=N --max-instr=N\n"
         "  --backend=interp|jit|auto --stats --json[=FILE]\n"
         "  workloads:";
  for (const WorkloadInfo &W : allWorkloads())
    std::cerr << " " << W.Name;
  std::cerr << "\n";
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  bool HadListenFd = false;
  ArgParser P;
  P.flag("shard", &Opts.Shard)
      .custom(
          "listen-fd",
          [&Opts, &HadListenFd](const std::string &V) {
            HadListenFd = true;
            Opts.ListenFd = std::strtoull(V.c_str(), nullptr, 10);
            return true;
          },
          /*ValueRequired=*/true)
      .u32Opt("shard-id", &Opts.ShardId)
      .u32Opt("shards", &Opts.Shards)
      .u32Opt("shard-workers", &Opts.ShardWorkers)
      .u32Opt("listen", &Opts.Listen)
      .u32Opt("scale", &Opts.Scale)
      .custom(
          "workload",
          [&Opts](const std::string &V) {
            size_t Colon = V.find(':');
            std::string Name = V.substr(0, Colon);
            uint32_t Scale = 0;
            if (Colon != std::string::npos)
              Scale = static_cast<uint32_t>(
                  std::strtoul(V.c_str() + Colon + 1, nullptr, 10));
            Opts.Workloads.emplace_back(Name, Scale);
            return true;
          },
          /*ValueRequired=*/true)
      .strOpt("state-dir", &Opts.StateDir)
      .durationOpt("aggregate-interval", &Opts.AggregateInterval)
      .durationOpt("checkpoint-interval", &Opts.CheckpointInterval)
      .sizeOpt("max-queue-depth", &Opts.MaxQueueDepth)
      .durationOpt("idle-timeout", &Opts.IdleTimeout)
      .durationOpt("run-for", &Opts.RunFor)
      .uintOpt("sessions", &Opts.Sessions)
      .uintOpt("max-instr", &Opts.MaxInstructions)
      .choice("backend",
              {{"interp", backend::BackendKind::Interp},
               {"jit", backend::BackendKind::Jit},
               {"auto", backend::BackendKind::Auto}},
              &Opts.Backend)
      .flag("stats", &Opts.Stats)
      .custom("json", [&Opts](const std::string &V) {
        Opts.Json = true;
        Opts.JsonOut = V;
        return true;
      });
  if (!P.parse(Argc, Argv))
    return false;
  if (Opts.Shard && !HadListenFd) {
    std::cerr << "--shard requires --listen-fd\n";
    return false;
  }
  if (Opts.Workloads.empty())
    for (const WorkloadInfo &W : allWorkloads())
      Opts.Workloads.emplace_back(W.Name, 0);
  if (Opts.Scale)
    for (auto &[Name, Scale] : Opts.Workloads)
      if (Scale == 0)
        Scale = Opts.Scale;
  return true;
}

int runShard(const Options &Opts) {
  ShardOptions SO;
  SO.ListenFd = static_cast<int>(Opts.ListenFd);
  SO.ShardId = Opts.ShardId;
  SO.Workers = Opts.ShardWorkers;
  SO.StateDir = Opts.StateDir;
  SO.MaxQueueDepth = Opts.MaxQueueDepth;
  SO.IdleTimeoutSeconds = Opts.IdleTimeout;
  SO.CheckpointIntervalSeconds = Opts.CheckpointInterval;
  SO.Workloads = Opts.Workloads;
  SO.Backend = Opts.Backend;
  return runShardProcess(SO);
}

std::string selfExePath(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return Buf;
  }
  return Argv0;
}

/// Drives --sessions through the front-end on a separate thread (the
/// main thread keeps polling the supervisor loop). Round-robins the
/// workloads with distinct session keys so routing spreads by hash.
void driveSessions(uint16_t Port, const Options &Opts, uint64_t &Completed,
                   uint64_t &Failed) {
  std::string Err;
  auto Client = net::BlockingClient::connect(Port, Err);
  if (!Client) {
    std::cerr << "jtc-fleet: loadgen connect: " << Err << "\n";
    Failed = Opts.Sessions;
    return;
  }
  for (uint64_t I = 0; I < Opts.Sessions; ++I) {
    net::RunSessionMsg M;
    M.SessionKey = "session-" + std::to_string(I);
    M.Module = Opts.Workloads[I % Opts.Workloads.size()].first;
    M.MaxInstructions = Opts.MaxInstructions;
    net::Frame Reply;
    net::NetError NErr;
    if (Client->call(net::MessageType::RunSession, M.encode(), Reply, NErr) &&
        Reply.Type == net::MessageType::SessionDone)
      ++Completed;
    else
      ++Failed;
  }
}

void writeFleetJson(std::ostream &OS, const Options &Opts,
                    FleetSupervisor &Fleet,
                    const std::vector<ShardStatsReport> &PerShard,
                    uint64_t Completed, uint64_t Failed) {
  const FleetStats &FS = Fleet.stats();
  const net::NetCounters &NC = Fleet.netCounters();
  JsonWriter W(OS);
  W.beginObject();
  W.key("config")
      .beginObject()
      .fieldUInt("shards", Opts.Shards)
      .fieldUInt("shard_workers", Opts.ShardWorkers)
      .field("backend", backend::backendKindName(Opts.Backend))
      .fieldUInt("max_queue_depth", Opts.MaxQueueDepth)
      .fieldReal("aggregate_interval_seconds", Opts.AggregateInterval)
      .endObject();
  W.key("fleet")
      .beginObject()
      .fieldUInt(eventKindName(EventKind::ShardRestarted), FS.ShardRestarts)
      .fieldUInt(eventKindName(EventKind::AggregateMerged),
                 FS.AggregatesMerged)
      .fieldUInt("sessions-routed", FS.SessionsRouted)
      .fieldUInt("routed-shard-down", FS.RoutedShardDown)
      .fieldUInt(eventKindName(EventKind::ConnAccepted), NC.ConnsAccepted)
      .fieldUInt(eventKindName(EventKind::ConnClosed), NC.ConnsClosed)
      .fieldUInt("frames-in", NC.FramesIn)
      .fieldUInt("frames-out", NC.FramesOut)
      .fieldUInt("protocol-errors", NC.ProtocolErrors)
      .fieldUInt("idle-closed", NC.IdleClosed)
      .endObject();
  W.key("last_merge")
      .beginObject()
      .fieldUInt("inputs", FS.LastMerge.Inputs)
      .fieldUInt("nodes", FS.LastMerge.Nodes)
      .fieldUInt("traces", FS.LastMerge.Traces)
      .fieldUInt("traces_deduped", FS.LastMerge.TracesDeduped)
      .fieldUInt("traces_dropped_by_completion",
                 FS.LastMerge.TracesDroppedByCompletion)
      .fieldUInt("epoch", FS.LastMerge.Epoch)
      .endObject();
  if (Opts.Sessions)
    W.key("loadgen")
        .beginObject()
        .fieldUInt("sessions", Opts.Sessions)
        .fieldUInt("completed", Completed)
        .fieldUInt("failed", Failed)
        .endObject();
  W.key("per_shard").beginArray();
  for (const ShardStatsReport &R : PerShard) {
    W.beginObject().fieldUInt("shard", R.Shard);
    for (const auto &[Key, V] : R.Counters)
      W.fieldUInt(Key, V);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << "\n";
}

int runSupervisor(const Options &Opts, const char *Argv0) {
  std::signal(SIGPIPE, SIG_IGN);

  FleetOptions FO;
  FO.Shards = Opts.Shards;
  FO.Workers = Opts.ShardWorkers;
  FO.ListenPort = static_cast<uint16_t>(Opts.Listen);
  FO.StateDir = Opts.StateDir;
  FO.AggregateIntervalSeconds = Opts.AggregateInterval;
  FO.CheckpointIntervalSeconds = Opts.CheckpointInterval;
  FO.MaxQueueDepth = Opts.MaxQueueDepth;
  FO.IdleTimeoutSeconds = Opts.IdleTimeout;
  FO.ShardBinary = selfExePath(Argv0);
  FO.Workloads = Opts.Workloads;
  FO.Backend = Opts.Backend;

  FleetSupervisor Fleet(FO);
  std::string Err;
  if (!Fleet.start(Err)) {
    std::cerr << "jtc-fleet: " << Err << "\n";
    return 1;
  }
  std::cerr << "jtc-fleet: serving on 127.0.0.1:" << Fleet.frontPort()
            << " with " << Opts.Shards << " shards\n";

  uint64_t Completed = 0, Failed = 0;
  if (Opts.Sessions) {
    // The generator blocks on its own socket; the supervisor loop keeps
    // polling on this thread until it finishes.
    std::atomic<bool> Done{false};
    std::thread Gen([&] {
      driveSessions(Fleet.frontPort(), Opts, Completed, Failed);
      Done = true;
    });
    while (!Done)
      Fleet.poll(20);
    Gen.join();
  }
  if (Opts.RunFor > 0)
    Fleet.runFor(Opts.RunFor);

  if (!Opts.StateDir.empty() && !Fleet.aggregateNow(Err))
    std::cerr << "jtc-fleet: final aggregate: " << Err << "\n";

  std::vector<ShardStatsReport> PerShard;
  if ((Opts.Stats || Opts.Json) && !Fleet.fetchStats(PerShard, Err))
    std::cerr << "jtc-fleet: fetch stats: " << Err << "\n";

  if (Opts.Stats) {
    const FleetStats &FS = Fleet.stats();
    std::cerr << "fleet: " << FS.SessionsRouted << " sessions routed, "
              << FS.ShardRestarts << " shard restarts, "
              << FS.AggregatesMerged << " aggregates merged\n";
    for (const ShardStatsReport &R : PerShard) {
      std::cerr << "  shard " << R.Shard << ":";
      for (const auto &[Key, V] : R.Counters)
        if (V)
          std::cerr << " " << Key << "=" << V;
      std::cerr << "\n";
    }
  }
  if (Opts.Json) {
    if (Opts.JsonOut.empty()) {
      writeFleetJson(std::cout, Opts, Fleet, PerShard, Completed, Failed);
    } else {
      std::ofstream OS(Opts.JsonOut);
      if (!OS) {
        std::cerr << "jtc-fleet: cannot write " << Opts.JsonOut << "\n";
        return 1;
      }
      writeFleetJson(OS, Opts, Fleet, PerShard, Completed, Failed);
    }
  }

  Fleet.shutdown();
  return Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();
  if (Opts.Shard)
    return runShard(Opts);
  return runSupervisor(Opts, Argv[0]);
}
