//===- server/VmService.h - Concurrent multi-session VM service -*- C++ -*-===//
///
/// \file
/// The serving layer over the paper's per-session machinery: a pool of N
/// worker threads draining a queue of run requests against shared,
/// immutable PreparedModules. Each request gets its own TraceVM session,
/// so profiler and trace-cache state is thread-private and completely
/// unsynchronized on the hot dispatch path -- the only cross-thread
/// traffic is the request queue, the per-module snapshot slot, and the
/// service-level statistics fold, all of which sit outside block
/// dispatch.
///
/// Warm handoff amortizes the profile warmup the paper pays once per run:
/// the first mature session over a module publishes a ProfileSnapshot
/// (BCG counters + live traces), and every later session over the same
/// module starts from it -- traces dispatchable from the first block
/// transition, no start-state delay, no re-signaling. Under serving
/// traffic the warmup cost is paid once per module, not once per request.
///
/// Typical embedding:
///
///   VmService Svc(ServiceOptions().workers(8));
///   Svc.registerWorkload(*findWorkload("compress"), /*Scale=*/40);
///   std::future<SessionResult> F = Svc.submit({"compress"});
///   SessionResult R = F.get();          // or Svc.run(...) synchronously
///   Svc.stats();                        // fleet-wide aggregates
///
//===----------------------------------------------------------------------===//

#ifndef JTC_SERVER_VMSERVICE_H
#define JTC_SERVER_VMSERVICE_H

#include "server/ProfileSnapshot.h"
#include "workloads/Workloads.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace jtc {

class JsonWriter;

/// Service-wide configuration. The embedded VmOptions is the template for
/// every session; per-request budgets override maxInstructions().
class ServiceOptions {
public:
  ServiceOptions() = default;

  /// Worker thread count (>= 1).
  ServiceOptions &workers(unsigned N) {
    NumWorkers = N < 1 ? 1 : N;
    return *this;
  }

  /// Session template: threshold, delays, telemetry and so on.
  ServiceOptions &vm(VmOptions V) {
    Vm = V;
    return *this;
  }

  /// Publish and reuse ProfileSnapshots across sessions (default on).
  ServiceOptions &warmHandoff(bool On) {
    Warm = On;
    return *this;
  }

  /// A donor session must have executed at least this many blocks for its
  /// snapshot to be published (filters out runs too short to have built
  /// representative traces).
  ServiceOptions &snapshotMinBlocks(uint64_t N) {
    SnapMinBlocks = N;
    return *this;
  }

  /// Durable checkpointing: published snapshots are written to
  /// <dir>/<module>.jtcp on drain() and shutdown() (and periodically, see
  /// checkpointIntervalSeconds). Empty = off.
  ServiceOptions &checkpointDir(std::string Dir) {
    CheckpointTo = std::move(Dir);
    return *this;
  }

  /// Durable warm start: registerModule() looks for <dir>/<module>.jtcp
  /// and, when it decodes, fingerprint-matches and re-validates cleanly,
  /// pre-publishes it as the module's snapshot -- so the very first
  /// session after a restart runs warm. Empty = off.
  ServiceOptions &loadDir(std::string Dir) {
    LoadFrom = std::move(Dir);
    return *this;
  }

  /// Periodic checkpointing interval in seconds (0 = only on drain /
  /// shutdown). Needs checkpointDir().
  ServiceOptions &checkpointIntervalSeconds(double S) {
    CheckpointInterval = S < 0 ? 0 : S;
    return *this;
  }

  /// Per-session branch-trace capture: every session writes a replayable
  /// <dir>/<module>-<seq>.btc stream (seq counts sessions per module).
  /// Empty = off. The sync interval comes from the vm() template's
  /// btraceSyncInterval().
  ServiceOptions &btraceDir(std::string Dir) {
    BtraceTo = std::move(Dir);
    return *this;
  }

  /// Capture rotation: keep at most this many .btc streams per module,
  /// deleting the oldest as new sessions retire (0 = keep everything).
  ServiceOptions &btraceKeepPerModule(uint32_t N) {
    BtraceKeep = N;
    return *this;
  }

  unsigned workers() const { return NumWorkers; }
  const VmOptions &vm() const { return Vm; }
  bool warmHandoff() const { return Warm; }
  uint64_t snapshotMinBlocks() const { return SnapMinBlocks; }
  const std::string &checkpointDir() const { return CheckpointTo; }
  const std::string &loadDir() const { return LoadFrom; }
  double checkpointIntervalSeconds() const { return CheckpointInterval; }
  const std::string &btraceDir() const { return BtraceTo; }
  uint32_t btraceKeepPerModule() const { return BtraceKeep; }

private:
  unsigned NumWorkers = 1;
  VmOptions Vm;
  bool Warm = true;
  uint64_t SnapMinBlocks = 1024;
  std::string CheckpointTo;
  std::string LoadFrom;
  double CheckpointInterval = 0;
  std::string BtraceTo;
  uint32_t BtraceKeep = 4;
};

/// One unit of serving work: run the named module's entry method.
struct RunRequest {
  std::string Module;           ///< registerModule / registerWorkload name.
  uint64_t MaxInstructions = 0; ///< 0: use the service VmOptions budget.
};

/// Everything observable about one completed session.
struct SessionResult {
  std::string Module;
  RunResult Run;
  VmStats Stats;
  std::vector<int64_t> Output; ///< Values the program printed.
  uint64_t HeapDigest = 0;     ///< jtc::heapDigest of the final heap.
  bool WarmStart = false;      ///< Session was seeded from a snapshot.
  unsigned Worker = 0;         ///< Worker thread that ran it.
  double Seconds = 0;          ///< Wall-clock session latency.
  std::string BtracePath;      ///< Captured .btc stream (empty: no capture).

  /// True when the request was rejected before a VM ran (unknown module);
  /// Run.Trap holds TrapKind::None and Stats is empty.
  bool Rejected = false;
};

/// Fleet-wide aggregates, folded in as sessions retire.
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  uint64_t Rejected = 0;
  uint64_t WarmStarts = 0;
  uint64_t ColdStarts = 0;
  uint64_t SnapshotsPublished = 0;
  uint64_t CheckpointsSaved = 0;   ///< .jtcp files written.
  uint64_t CheckpointsLoaded = 0;  ///< .jtcp files pre-published at register.
  uint64_t CheckpointLoadRejects = 0; ///< Present but refused (typed error).
  uint64_t BtraceStreams = 0; ///< .btc captures completed cleanly.
  uint64_t BtraceBytes = 0;   ///< Total compressed bytes across captures.
  uint64_t BtraceDrops = 0;   ///< Captures lost to I/O failure.
  double BusySeconds = 0; ///< Sum of session wall-clock latencies.

  /// Every session's VmStats merged (see VmStats::merge).
  VmStats Aggregate;

  /// Telemetry events by kind, summed over every session's ring (all
  /// zero when telemetry is off or compiled out).
  uint64_t EventsByKind[NumEventKinds] = {};

  /// Aggregates as key/value pairs into an already-open JSON object.
  void writeJsonFields(JsonWriter &W) const;
};

/// The concurrent serving loop. Construction starts the workers;
/// destruction drains and joins them.
class VmService {
public:
  explicit VmService(ServiceOptions Options = ServiceOptions());
  ~VmService();

  VmService(const VmService &) = delete;
  VmService &operator=(const VmService &) = delete;

  /// Registers \p M under \p Name: verified callers only (preparation
  /// asserts on structural errors). The module is prepared once and
  /// shared, immutable, by every session over it. Re-registering a name
  /// replaces the module and drops any published snapshot. \p Spec and
  /// \p Scale are provenance recorded in .btc captures (a spec jtc-replay
  /// can resolve, e.g. "workload:compress"; empty = \p Name).
  void registerModule(const std::string &Name, Module M,
                      std::string Spec = "", uint32_t Scale = 0);

  /// Registers workload \p W (scale 0: the workload default) under its
  /// registry name.
  void registerWorkload(const WorkloadInfo &W, uint32_t Scale = 0);

  /// True when \p Name is registered.
  bool hasModule(const std::string &Name) const;

  /// The prepared form of \p Name that its sessions share, including its
  /// static analysis (PreparedModule::facts()); null when not registered.
  /// Valid for the service's lifetime, even after re-registration.
  const PreparedModule *preparedModule(const std::string &Name) const;

  /// Enqueues \p R; the future resolves when a worker retires the
  /// session. An unknown module name resolves to a Rejected result rather
  /// than throwing (the queue is asynchronous; there is nowhere to throw
  /// to).
  std::future<SessionResult> submit(RunRequest R);

  /// Callback form for event-loop embeddings (the fleet shard): \p Done
  /// runs on the worker thread that retired the session, exactly once,
  /// including when the pool is stopping (with a Rejected result). The
  /// callback must not block; hand off to your own loop (e.g. an outbox
  /// plus an eventfd wake).
  void submitAsync(RunRequest R, std::function<void(SessionResult)> Done);

  /// Convenience: submit + wait.
  SessionResult run(RunRequest R);

  /// Requests admitted but not yet retired (queued + in flight). The
  /// admission-control signal for the serving front-end.
  uint64_t queueDepth() const;

  /// Blocks until every submitted request has retired; then, when a
  /// checkpoint directory is configured, writes every published snapshot
  /// to disk (checkpoint-on-drain).
  void drain();

  /// Writes every published snapshot to <checkpointDir>/<module>.jtcp
  /// now; returns how many files were written. No-op (0) without a
  /// checkpoint directory.
  size_t checkpointAll();

  /// Stops accepting work, drains the queue and joins the workers
  /// (idempotent; the destructor calls it).
  void shutdown();

  unsigned workers() const { return Options.workers(); }
  const ServiceOptions &options() const { return Options; }

  /// Snapshot of the aggregates at this instant.
  ServiceStats stats() const;

  /// The published snapshot for \p Name (empty snapshot when none yet).
  ProfileSnapshot snapshotFor(const std::string &Name) const;

private:
  /// One registered module. The entry's address is stable for the
  /// service's lifetime (the registry stores unique_ptrs), so workers
  /// hold plain pointers while the registry mutex is released.
  struct ModuleEntry {
    ModuleEntry(Module Mod, std::string Spec, uint32_t Scale)
        : M(std::move(Mod)), PM(M), Spec(std::move(Spec)), Scale(Scale) {}

    const Module M;
    const PreparedModule PM;
    const std::string Spec; ///< Replayable provenance for .btc captures.
    const uint32_t Scale;

    /// Warm-handoff slot: null until the first mature cold session over
    /// this module publishes. Guarded by SnapMutex.
    std::shared_ptr<const ProfileSnapshot> Snap;
  };

  struct PendingRun {
    RunRequest Request;
    std::function<void(SessionResult)> Done; ///< Runs exactly once.
  };

  void workerLoop(unsigned WorkerId);

  /// Runs one request on \p WorkerId and returns the retired result.
  SessionResult runOne(const RunRequest &R, unsigned WorkerId);

  /// Tries to pre-publish <loadDir>/<Name>.jtcp into \p Entry. A missing
  /// file is silently fine; a present-but-refused one counts as a load
  /// reject and the module starts cold.
  void maybeLoadCheckpoint(ModuleEntry &Entry, const std::string &Name);

  /// Body of the periodic checkpoint thread.
  void checkpointLoop();

  ServiceOptions Options;

  mutable std::mutex RegistryMutex; ///< Guards Modules and Retired.
  std::map<std::string, std::unique_ptr<ModuleEntry>> Modules;
  /// Entries replaced by re-registration, kept alive because in-flight
  /// sessions may still reference them.
  std::vector<std::unique_ptr<ModuleEntry>> Retired;

  mutable std::mutex SnapMutex; ///< Guards every ModuleEntry::Snap.

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;    ///< Signals workers: work or stop.
  std::condition_variable IdleCv;     ///< Signals drain(): queue empty.
  std::deque<PendingRun> Queue;       ///< Guarded by QueueMutex.
  uint64_t InFlight = 0;              ///< Dequeued, not yet retired.
  bool Stopping = false;

  mutable std::mutex StatsMutex;
  ServiceStats Stats; ///< Guarded by StatsMutex.

  /// Per-module .btc sequence numbers (next to allocate). Guarded by
  /// BtraceMutex; only touched when a btrace directory is configured.
  std::mutex BtraceMutex;
  std::map<std::string, uint64_t> BtraceSeq;

  std::vector<std::thread> Workers;

  /// Periodic checkpointing (runs only with a checkpoint directory and a
  /// positive interval).
  std::mutex CheckpointMutex;
  std::condition_variable CheckpointCv;
  bool CheckpointStop = false; ///< Guarded by CheckpointMutex.
  std::thread CheckpointThread;
};

} // namespace jtc

#endif // JTC_SERVER_VMSERVICE_H
