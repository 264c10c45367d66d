//===- server/VmService.cpp -----------------------------------------------===//

#include "server/VmService.h"

#include "btrace/BtraceCapture.h"
#include "persist/Snapshot.h"
#include "runtime/Heap.h"
#include "support/Json.h"

#include <cassert>
#include <chrono>
#include <filesystem>

using namespace jtc;

void ServiceStats::writeJsonFields(JsonWriter &W) const {
  W.fieldUInt("submitted", Submitted)
      .fieldUInt("completed", Completed)
      .fieldUInt("rejected", Rejected)
      .fieldUInt("warm_starts", WarmStarts)
      .fieldUInt("cold_starts", ColdStarts)
      .fieldUInt("snapshots_published", SnapshotsPublished)
      .fieldUInt("checkpoints_saved", CheckpointsSaved)
      .fieldUInt("checkpoints_loaded", CheckpointsLoaded)
      .fieldUInt("checkpoint_load_rejects", CheckpointLoadRejects)
      .fieldUInt("btrace_streams", BtraceStreams)
      .fieldUInt("btrace_bytes", BtraceBytes)
      .fieldUInt("btrace_drops", BtraceDrops)
      .fieldReal("busy_seconds", BusySeconds);
  W.key("events").beginObject();
  for (unsigned K = 0; K < NumEventKinds; ++K)
    W.fieldUInt(eventKindName(static_cast<EventKind>(K)), EventsByKind[K]);
  W.endObject();
  W.key("aggregate").beginObject();
  Aggregate.writeJsonFields(W);
  W.endObject();
}

VmService::VmService(ServiceOptions Opts) : Options(Opts) {
  Workers.reserve(Options.workers());
  for (unsigned I = 0; I < Options.workers(); ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  if (!Options.checkpointDir().empty() &&
      Options.checkpointIntervalSeconds() > 0)
    CheckpointThread = std::thread([this] { checkpointLoop(); });
}

VmService::~VmService() { shutdown(); }

void VmService::registerModule(const std::string &Name, Module M,
                               std::string Spec, uint32_t Scale) {
  auto Entry = std::make_unique<ModuleEntry>(
      std::move(M), Spec.empty() ? Name : std::move(Spec), Scale);
  // Durable warm start: adopt a previous process's checkpoint before the
  // entry becomes visible to any worker.
  maybeLoadCheckpoint(*Entry, Name);
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::unique_ptr<ModuleEntry> &Slot = Modules[Name];
  if (Slot) // Keep the replaced entry alive for sessions already using it.
    Retired.push_back(std::move(Slot));
  Slot = std::move(Entry);
}

void VmService::registerWorkload(const WorkloadInfo &W, uint32_t Scale) {
  uint32_t S = Scale ? Scale : W.DefaultScale;
  registerModule(W.Name, W.Build(S), "workload:" + std::string(W.Name), S);
}

bool VmService::hasModule(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return Modules.count(Name) != 0;
}

const PreparedModule *VmService::preparedModule(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto It = Modules.find(Name);
  return It == Modules.end() ? nullptr : &It->second->PM;
}

std::future<SessionResult> VmService::submit(RunRequest R) {
  auto Promise = std::make_shared<std::promise<SessionResult>>();
  std::future<SessionResult> F = Promise->get_future();
  submitAsync(std::move(R), [Promise](SessionResult Result) {
    Promise->set_value(std::move(Result));
  });
  return F;
}

void VmService::submitAsync(RunRequest R,
                            std::function<void(SessionResult)> Done) {
  PendingRun P;
  P.Request = std::move(R);
  P.Done = std::move(Done);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping) {
      // The pool is gone; resolve rather than leave the caller hanging.
      SessionResult Dead;
      Dead.Module = P.Request.Module;
      Dead.Rejected = true;
      P.Done(std::move(Dead));
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Stats.Submitted;
      ++Stats.Rejected;
      return;
    }
    Queue.push_back(std::move(P));
  }
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Stats.Submitted;
  }
  QueueCv.notify_one();
}

SessionResult VmService::run(RunRequest R) { return submit(std::move(R)).get(); }

uint64_t VmService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Queue.size() + InFlight;
}

void VmService::drain() {
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    IdleCv.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
  }
  checkpointAll();
}

size_t VmService::checkpointAll() {
  const std::string &Dir = Options.checkpointDir();
  if (Dir.empty())
    return 0;
  // Snapshot pointers are immutable once published, so collect them under
  // the locks and do the (slow) file writes with no locks held.
  std::vector<std::pair<std::string, std::shared_ptr<const ProfileSnapshot>>>
      Work;
  {
    std::lock_guard<std::mutex> RLock(RegistryMutex);
    std::lock_guard<std::mutex> SLock(SnapMutex);
    for (const auto &KV : Modules)
      if (KV.second->Snap)
        Work.emplace_back(KV.first, KV.second->Snap);
  }
  if (Work.empty())
    return 0;
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  size_t Saved = 0;
  for (const auto &[Name, Snap] : Work) {
    persist::SnapshotData Data;
    Data.Fingerprint = Snap->fingerprint();
    Data.DonorBlocks = Snap->donorBlocks();
    Data.Seed = Snap->seed();
    persist::PersistError Err;
    if (persist::saveSnapshotFile(Data, Dir + "/" + Name + ".jtcp", Err))
      ++Saved;
  }
  if (Saved) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats.CheckpointsSaved += Saved;
  }
  return Saved;
}

void VmService::maybeLoadCheckpoint(ModuleEntry &Entry,
                                    const std::string &Name) {
  const std::string &Dir = Options.loadDir();
  if (Dir.empty())
    return;
  std::string Path = Dir + "/" + Name + ".jtcp";
  std::error_code Ec;
  if (!std::filesystem::exists(Path, Ec))
    return; // No checkpoint for this module yet: cold start, not an error.
  persist::SnapshotData Data;
  persist::PersistError Err;
  bool Ok = persist::loadSnapshotFile(Path, Data, Err);
  if (Ok && Data.Fingerprint != moduleFingerprint(Entry.PM)) {
    Err = persist::PersistError::make(
        persist::PersistErrorKind::FingerprintMismatch,
        "checkpoint was captured over a different module");
    Ok = false;
  }
  if (Ok)
    Ok = persist::validateSeed(Data.Seed, Entry.PM, Err);
  if (Ok) {
    // The entry is not yet visible to workers (registerModule publishes it
    // after this returns), so the slot can be written without SnapMutex.
    Entry.Snap =
        std::make_shared<const ProfileSnapshot>(ProfileSnapshot::fromParts(
            std::move(Data.Seed), Data.Fingerprint, Data.DonorBlocks));
  }
  std::lock_guard<std::mutex> Lock(StatsMutex);
  if (Ok)
    ++Stats.CheckpointsLoaded;
  else
    ++Stats.CheckpointLoadRejects;
}

void VmService::checkpointLoop() {
  const auto Interval =
      std::chrono::duration<double>(Options.checkpointIntervalSeconds());
  std::unique_lock<std::mutex> Lock(CheckpointMutex);
  for (;;) {
    if (CheckpointCv.wait_for(Lock, Interval,
                              [this] { return CheckpointStop; }))
      return;
    Lock.unlock();
    checkpointAll();
    Lock.lock();
  }
}

void VmService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(CheckpointMutex);
    CheckpointStop = true;
  }
  CheckpointCv.notify_all();
  if (CheckpointThread.joinable())
    CheckpointThread.join();
  bool WasRunning = false;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    WasRunning = !Stopping;
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
  // Final checkpoint exactly once, after every session has retired.
  if (WasRunning)
    checkpointAll();
}

void VmService::workerLoop(unsigned WorkerId) {
  for (;;) {
    PendingRun P;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping with a drained queue.
      P = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    SessionResult R = runOne(P.Request, WorkerId);
    P.Done(std::move(R));
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --InFlight;
      if (Queue.empty() && InFlight == 0)
        IdleCv.notify_all();
    }
  }
}

SessionResult VmService::runOne(const RunRequest &R, unsigned WorkerId) {
  SessionResult Out;
  Out.Module = R.Module;
  Out.Worker = WorkerId;

  ModuleEntry *Entry = nullptr;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    auto It = Modules.find(R.Module);
    if (It != Modules.end())
      Entry = It->second.get();
  }
  if (!Entry) {
    Out.Rejected = true;
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Rejected;
    return Out;
  }

  VmOptions VO = Options.vm();
  if (R.MaxInstructions)
    VO.maxInstructions(R.MaxInstructions);

  // The session itself: thread-private VM over the shared immutable
  // PreparedModule. No locks are held while it runs.
  TraceVM VM(Entry->PM, VO);

  if (Options.warmHandoff()) {
    std::shared_ptr<const ProfileSnapshot> Snap;
    {
      std::lock_guard<std::mutex> Lock(SnapMutex);
      Snap = Entry->Snap;
    }
    if (Snap && Snap->compatibleWith(Entry->PM)) {
      Snap->seed(VM);
      Out.WarmStart = true;
    }
  }

  // Per-session branch-trace capture. Attached after the warm seed so the
  // stream embeds the exact state this session starts from; an I/O
  // failure degrades to an uncaptured (but otherwise normal) session.
  std::unique_ptr<btrace::BtraceFileCapture> Capture;
  bool CaptureFailed = false;
  if (!Options.btraceDir().empty()) {
    uint64_t Seq;
    {
      std::lock_guard<std::mutex> Lock(BtraceMutex);
      Seq = BtraceSeq[R.Module]++;
    }
    std::error_code Ec;
    std::filesystem::create_directories(Options.btraceDir(), Ec);
    std::string Path = Options.btraceDir() + "/" + R.Module + "-" +
                       std::to_string(Seq) + ".btc";
    persist::PersistError Err;
    Capture = btrace::BtraceFileCapture::start(VM, Path, Entry->Spec,
                                               Entry->Scale, Err);
    if (Capture) {
      Out.BtracePath = Path;
      // Rotation: the stream Keep sessions back has aged out.
      uint32_t Keep = Options.btraceKeepPerModule();
      if (Keep && Seq >= Keep)
        std::filesystem::remove(Options.btraceDir() + "/" + R.Module + "-" +
                                    std::to_string(Seq - Keep) + ".btc",
                                Ec);
    } else {
      CaptureFailed = true;
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  Out.Run = VM.run();
  auto T1 = std::chrono::steady_clock::now();
  Out.Seconds = std::chrono::duration<double>(T1 - T0).count();
  Out.Stats = VM.stats();
  Out.Output = VM.machine().output();
  Out.HeapDigest = heapDigest(VM.machine().heap());

  uint64_t BtraceBytesOut = 0;
  if (Capture) {
    persist::PersistError Err;
    if (Capture->finish(Err))
      BtraceBytesOut = Capture->encoderStats().BytesWritten;
    else {
      CaptureFailed = true;
      Out.BtracePath.clear();
    }
  }

  // First mature cold session over the module becomes the donor. The
  // maturity bar keeps trivially short runs from publishing unrepresentative
  // profiles.
  bool Published = false;
  if (Options.warmHandoff() && !Out.WarmStart && Out.Stats.LiveTraces > 0 &&
      Out.Stats.BlocksExecuted >= Options.snapshotMinBlocks()) {
    std::lock_guard<std::mutex> Lock(SnapMutex);
    if (!Entry->Snap) {
      Entry->Snap = std::make_shared<const ProfileSnapshot>(
          ProfileSnapshot::capture(VM));
      Published = true;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Completed;
    if (Out.WarmStart)
      ++Stats.WarmStarts;
    else
      ++Stats.ColdStarts;
    if (Published)
      ++Stats.SnapshotsPublished;
    if (!Out.BtracePath.empty()) {
      ++Stats.BtraceStreams;
      Stats.BtraceBytes += BtraceBytesOut;
    }
    if (CaptureFailed)
      ++Stats.BtraceDrops;
    Stats.BusySeconds += Out.Seconds;
    Stats.Aggregate.merge(Out.Stats);
    VM.events().forEach([this](const Event &E) {
      ++Stats.EventsByKind[static_cast<unsigned>(E.Kind)];
    });
  }
  return Out;
}

ServiceStats VmService::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Stats;
}

ProfileSnapshot VmService::snapshotFor(const std::string &Name) const {
  std::shared_ptr<const ProfileSnapshot> Snap;
  {
    std::lock_guard<std::mutex> RLock(RegistryMutex);
    auto It = Modules.find(Name);
    if (It != Modules.end()) {
      std::lock_guard<std::mutex> SLock(SnapMutex);
      Snap = It->second->Snap;
    }
  }
  return Snap ? *Snap : ProfileSnapshot();
}
