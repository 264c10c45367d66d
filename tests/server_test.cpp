//===- tests/server_test.cpp - Concurrent VM service ----------------------===//
///
/// The serving layer's contract: concurrent sessions are bit-identical to
/// a single-threaded reference run, warm handoff installs the donor's
/// traces without re-signaling, and the service-level aggregates
/// reconcile with the per-session results.
///
//===----------------------------------------------------------------------===//

#include "server/VmService.h"

#include "SessionStats.h"
#include "backend/JitBackend.h"
#include "TestPrograms.h"
#include "runtime/Heap.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace jtc;
using testprog::promoteAll;

namespace {

/// The single-threaded reference: one cold TraceVM session.
struct Reference {
  RunResult Run;
  VmStats Stats;
  std::vector<int64_t> Output;
  uint64_t HeapDigest = 0;
};

Reference referenceRun(const Module &M, const VmOptions &VO = VmOptions()) {
  PreparedModule PM(M);
  TraceVM VM(PM, VO);
  Reference R;
  R.Run = VM.run();
  R.Stats = VM.stats();
  R.Output = VM.machine().output();
  R.HeapDigest = heapDigest(VM.machine().heap());
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism under concurrency
//===----------------------------------------------------------------------===//

TEST(VmServiceTest, ConcurrentSessionsMatchSingleThreadedReference) {
  // With warm handoff off, every session is a cold run: all of them --
  // and the single-threaded reference -- must agree bit for bit, down to
  // the dispatch counts.
  Module M = testprog::hotLoop(20000);
  Reference Ref = referenceRun(M);

  VmService Svc(ServiceOptions().workers(8).warmHandoff(false));
  Svc.registerModule("hot", testprog::hotLoop(20000));

  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 32; ++I)
    Fs.push_back(Svc.submit({"hot"}));
  for (std::future<SessionResult> &F : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    EXPECT_EQ(R.Run.Status, Ref.Run.Status);
    EXPECT_EQ(R.Run.Trap, Ref.Run.Trap);
    EXPECT_EQ(R.Run.Instructions, Ref.Run.Instructions);
    EXPECT_EQ(R.Run.Dispatches, Ref.Run.Dispatches);
    EXPECT_EQ(R.Output, Ref.Output);
    EXPECT_EQ(R.HeapDigest, Ref.HeapDigest);
    EXPECT_EQ(R.Stats.Signals, Ref.Stats.Signals);
    EXPECT_EQ(R.Stats.TracesConstructed, Ref.Stats.TracesConstructed);
    EXPECT_FALSE(R.WarmStart);
  }
}

TEST(VmServiceTest, ConcurrentFirstUseOfModuleFacts) {
  // Eight workers start together on a module whose static analysis is
  // still cold, so their promotions race to compute the same methods'
  // facts. Each method must be computed exactly once -- as many as one
  // single-threaded session computes -- and every session must still
  // match that session bit for bit.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  const WorkloadInfo *W = findWorkload("raytrace");
  ASSERT_NE(W, nullptr);
  uint32_t Scale = std::max(1u, W->DefaultScale / 20);
  Module M = W->Build(Scale);
  PreparedModule RefPM(M);
  TraceVM RefVM(RefPM, promoteAll());
  RefVM.run();
  uint32_t RefComputed = RefPM.facts().methodsComputed();
  ASSERT_GT(RefVM.stats().TracesValidated, 0u);
  ASSERT_GT(RefComputed, 1u);

  VmService Svc(
      ServiceOptions().workers(8).warmHandoff(false).vm(promoteAll()));
  Svc.registerWorkload(*W, Scale);
  const PreparedModule *PM = Svc.preparedModule(W->Name);
  ASSERT_NE(PM, nullptr);
  ASSERT_EQ(PM->facts().methodsComputed(), 0u);

  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Svc.submit({W->Name}));
  for (std::future<SessionResult> &F : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    EXPECT_EQ(R.Run.Status, RunStatus::Finished);
    EXPECT_EQ(R.Output, RefVM.machine().output());
    EXPECT_EQ(R.Stats.digest(), RefVM.stats().digest());
    EXPECT_EQ(R.Stats.TracesValidated, RefVM.stats().TracesValidated);
    EXPECT_EQ(R.Stats.MemElisionSites, RefVM.stats().MemElisionSites);
  }
  EXPECT_EQ(PM->facts().methodsComputed(), RefComputed);
}

TEST(VmServiceTest, WarmSessionsPreserveSemantics) {
  // Warm handoff changes how the work is executed (traces from the
  // first transition), never what it computes: output, heap and
  // instruction count stay identical to the reference.
  Module M = testprog::hotLoop(20000);
  Reference Ref = referenceRun(M);

  VmService Svc(ServiceOptions().workers(4));
  Svc.registerModule("hot", testprog::hotLoop(20000));

  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 24; ++I)
    Fs.push_back(Svc.submit({"hot"}));
  unsigned WarmSeen = 0;
  for (std::future<SessionResult> &F : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    EXPECT_EQ(R.Run.Status, Ref.Run.Status);
    EXPECT_EQ(R.Run.Instructions, Ref.Run.Instructions);
    EXPECT_EQ(R.Output, Ref.Output);
    EXPECT_EQ(R.HeapDigest, Ref.HeapDigest);
    WarmSeen += R.WarmStart;
  }
  // The donor publishes early in the batch; most of it runs warm.
  EXPECT_GT(WarmSeen, 0u);
}

//===----------------------------------------------------------------------===//
// Warm handoff
//===----------------------------------------------------------------------===//

TEST(VmServiceTest, WarmHandoffSeedsWithoutResignaling) {
  VmService Svc(ServiceOptions().workers(1));
  Svc.registerModule("hot", testprog::hotLoop(50000));

  SessionResult Cold = Svc.run({"hot"});
  ASSERT_FALSE(Cold.WarmStart);
  ASSERT_GT(Cold.Stats.TracesConstructed, 0u);
  ASSERT_GT(Cold.Stats.Signals, 0u);

  SessionResult Warm = Svc.run({"hot"});
  ASSERT_TRUE(Warm.WarmStart);
  // The donor's traces arrive installed, not re-derived from signals.
  EXPECT_GT(Warm.Stats.TracesSeeded, 0u);
  EXPECT_EQ(Warm.Stats.TracesConstructed, 0u);
  EXPECT_GT(Warm.Stats.TraceDispatches, 0u);
  EXPECT_LT(Warm.Stats.Signals, Cold.Stats.Signals);
  // Steady-state coverage from the first session: at least what the cold
  // session reached while also paying the warmup.
  EXPECT_GE(Warm.Stats.traceCoverage(), Cold.Stats.traceCoverage());

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.WarmStarts, 1u);
  EXPECT_EQ(S.ColdStarts, 1u);
  EXPECT_EQ(S.SnapshotsPublished, 1u);
}

TEST(VmServiceTest, SnapshotRequiresMaturity) {
  // A session below the maturity bar must not publish its profile.
  VmService Svc(ServiceOptions().workers(1).snapshotMinBlocks(1ull << 40));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  Svc.run({"hot"});
  Svc.run({"hot"});
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.SnapshotsPublished, 0u);
  EXPECT_EQ(S.WarmStarts, 0u);
  EXPECT_EQ(S.ColdStarts, 2u);
  EXPECT_TRUE(Svc.snapshotFor("hot").empty());
}

TEST(VmServiceTest, WarmHandoffDisabledNeverSeeds) {
  VmService Svc(ServiceOptions().workers(2).warmHandoff(false));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  for (int I = 0; I < 4; ++I) {
    SessionResult R = Svc.run({"hot"});
    EXPECT_FALSE(R.WarmStart);
    EXPECT_EQ(R.Stats.TracesSeeded, 0u);
  }
  EXPECT_EQ(Svc.stats().SnapshotsPublished, 0u);
}

//===----------------------------------------------------------------------===//
// Durable checkpointing
//===----------------------------------------------------------------------===//

namespace {

/// Fresh scratch directory under the system temp dir.
std::filesystem::path checkpointScratch(const char *Name) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "jtc-server-test" / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

TEST(VmServiceTest, CheckpointOnDrainThenColdRestartRunsWarm) {
  // The cross-process mirror of WarmHandoffSeedsWithoutResignaling: the
  // first service learns the profile and checkpoints it on drain; a
  // brand-new service -- a restarted process, as far as the state is
  // concerned -- loads it at registration and its very first session
  // runs warm, traces installed instead of re-signaled.
  std::filesystem::path Dir = checkpointScratch("drain-restart");

  uint64_t ColdSignals = 0;
  {
    VmService Svc(ServiceOptions().workers(1).checkpointDir(Dir.string()));
    Svc.registerModule("hot", testprog::hotLoop(50000));
    SessionResult Cold = Svc.run({"hot"});
    ASSERT_FALSE(Cold.WarmStart);
    ASSERT_GT(Cold.Stats.Signals, 0u);
    ColdSignals = Cold.Stats.Signals;
    Svc.drain();
    EXPECT_EQ(Svc.stats().CheckpointsSaved, 1u);
    EXPECT_TRUE(std::filesystem::exists(Dir / "hot.jtcp"));
  }

  VmService Restarted(ServiceOptions().workers(1).loadDir(Dir.string()));
  Restarted.registerModule("hot", testprog::hotLoop(50000));
  SessionResult First = Restarted.run({"hot"});
  EXPECT_TRUE(First.WarmStart);
  EXPECT_GT(First.Stats.TracesSeeded, 0u);
  EXPECT_EQ(First.Stats.TracesConstructed, 0u);
  EXPECT_LT(First.Stats.Signals, ColdSignals);

  ServiceStats S = Restarted.stats();
  EXPECT_EQ(S.CheckpointsLoaded, 1u);
  EXPECT_EQ(S.CheckpointLoadRejects, 0u);
  EXPECT_EQ(S.WarmStarts, 1u);
  EXPECT_EQ(S.ColdStarts, 0u);
  // The pre-published snapshot means no session needed to publish one.
  EXPECT_EQ(S.SnapshotsPublished, 0u);
}

TEST(VmServiceTest, ShutdownWritesFinalCheckpoint) {
  std::filesystem::path Dir = checkpointScratch("shutdown");
  {
    VmService Svc(ServiceOptions().workers(2).checkpointDir(Dir.string()));
    Svc.registerModule("hot", testprog::hotLoop(50000));
    Svc.run({"hot"});
    // No explicit drain: the destructor's shutdown must checkpoint.
  }
  EXPECT_TRUE(std::filesystem::exists(Dir / "hot.jtcp"));
}

TEST(VmServiceTest, CorruptCheckpointIsRejectedAndSessionRunsCold) {
  std::filesystem::path Dir = checkpointScratch("corrupt");
  {
    std::ofstream OS(Dir / "hot.jtcp", std::ios::binary);
    OS << "JTCPgarbage-that-is-not-a-snapshot";
  }
  VmService Svc(ServiceOptions().workers(1).loadDir(Dir.string()));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  SessionResult R = Svc.run({"hot"});
  EXPECT_FALSE(R.WarmStart);
  EXPECT_EQ(R.Run.Status, RunStatus::Finished);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.CheckpointsLoaded, 0u);
  EXPECT_EQ(S.CheckpointLoadRejects, 1u);
  EXPECT_EQ(S.ColdStarts, 1u);
}

TEST(VmServiceTest, PeriodicCheckpointThreadWrites) {
  std::filesystem::path Dir = checkpointScratch("periodic");
  VmService Svc(ServiceOptions()
                    .workers(1)
                    .checkpointDir(Dir.string())
                    .checkpointIntervalSeconds(0.02));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  Svc.run({"hot"});
  // Wait for at least one timer-driven checkpoint (generously bounded).
  for (int I = 0; I < 500 && !std::filesystem::exists(Dir / "hot.jtcp"); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(std::filesystem::exists(Dir / "hot.jtcp"));
  EXPECT_GE(Svc.stats().CheckpointsSaved, 1u);
}

TEST(VmServiceTest, SnapshotFingerprintGatesSeeding) {
  // A snapshot is tied to the module's block structure; a structurally
  // different module must not accept it.
  Module Hot = testprog::hotLoop(50000);
  PreparedModule HotPM(Hot);
  TraceVM Donor(HotPM);
  Donor.run();
  ProfileSnapshot Snap = ProfileSnapshot::capture(Donor);
  ASSERT_FALSE(Snap.empty());
  EXPECT_TRUE(Snap.compatibleWith(HotPM));

  Module Other = testprog::virtualDispatch();
  PreparedModule OtherPM(Other);
  EXPECT_FALSE(Snap.compatibleWith(OtherPM));

  // An identically built module has the same fingerprint.
  Module Twin = testprog::hotLoop(50000);
  PreparedModule TwinPM(Twin);
  EXPECT_TRUE(Snap.compatibleWith(TwinPM));
  EXPECT_EQ(moduleFingerprint(HotPM), moduleFingerprint(TwinPM));
}

//===----------------------------------------------------------------------===//
// Aggregates
//===----------------------------------------------------------------------===//

TEST(VmServiceTest, AggregatesReconcileWithSessions) {
  VmService Svc(ServiceOptions().workers(4));
  Svc.registerModule("hot", testprog::hotLoop(20000));
  Svc.registerModule("disp", testprog::virtualDispatch());

  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 10; ++I)
    Fs.push_back(Svc.submit({I % 2 ? "hot" : "disp"}));
  uint64_t Instructions = 0, Blocks = 0, Seeded = 0;
  for (std::future<SessionResult> &F : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    Instructions += R.Stats.Instructions;
    Blocks += R.Stats.BlocksExecuted;
    Seeded += R.Stats.TracesSeeded;
  }

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Submitted, 10u);
  EXPECT_EQ(S.Completed, 10u);
  EXPECT_EQ(S.Rejected, 0u);
  EXPECT_EQ(S.WarmStarts + S.ColdStarts, S.Completed);
  EXPECT_EQ(S.Aggregate.Instructions, Instructions);
  EXPECT_EQ(S.Aggregate.BlocksExecuted, Blocks);
  EXPECT_EQ(S.Aggregate.TracesSeeded, Seeded);
  EXPECT_GE(S.BusySeconds, 0.0);
}

#ifdef JTC_TELEMETRY
TEST(VmServiceTest, TelemetryRingsFoldIntoServiceEvents) {
  VmService Svc(
      ServiceOptions().workers(2).vm(VmOptions().telemetry(true)));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  for (int I = 0; I < 4; ++I)
    Svc.run({"hot"});
  ServiceStats S = Svc.stats();
  uint64_t Total = 0;
  for (unsigned K = 0; K < NumEventKinds; ++K)
    Total += S.EventsByKind[K];
  EXPECT_GT(Total, 0u);
  // The cold donor constructed traces; events saw them too.
  EXPECT_GT(
      S.EventsByKind[static_cast<unsigned>(EventKind::TraceConstructed)], 0u);
  EXPECT_GT(
      S.EventsByKind[static_cast<unsigned>(EventKind::TraceDispatched)], 0u);
}
#endif

//===----------------------------------------------------------------------===//
// Service mechanics
//===----------------------------------------------------------------------===//

TEST(VmServiceTest, UnknownModuleIsRejectedNotThrown) {
  VmService Svc(ServiceOptions().workers(2));
  SessionResult R = Svc.run({"no-such-module"});
  EXPECT_TRUE(R.Rejected);
  EXPECT_EQ(Svc.stats().Rejected, 1u);
}

TEST(VmServiceTest, PerRequestBudgetOverridesServiceBudget) {
  VmService Svc(ServiceOptions().workers(1));
  Svc.registerModule("hot", testprog::hotLoop(50000));
  SessionResult R = Svc.run({"hot", /*MaxInstructions=*/1000});
  EXPECT_EQ(R.Run.Status, RunStatus::BudgetExhausted);
  EXPECT_LE(R.Run.Instructions, 1000u);
}

TEST(VmServiceTest, DrainWaitsForAllSubmitted) {
  VmService Svc(ServiceOptions().workers(4));
  Svc.registerModule("hot", testprog::hotLoop(20000));
  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 16; ++I)
    Fs.push_back(Svc.submit({"hot"}));
  Svc.drain();
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Completed + S.Rejected, 16u);
  for (std::future<SessionResult> &F : Fs)
    EXPECT_TRUE(F.valid());
}

TEST(VmServiceTest, ShutdownDrainsQueueAndRejectsLateSubmits) {
  VmService Svc(ServiceOptions().workers(2));
  Svc.registerModule("hot", testprog::hotLoop(20000));
  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Svc.submit({"hot"}));
  Svc.shutdown();
  // Everything queued before shutdown still completed.
  for (std::future<SessionResult> &F : Fs)
    EXPECT_FALSE(F.get().Rejected);
  // A submit after shutdown resolves as rejected instead of hanging.
  SessionResult Late = Svc.submit({"hot"}).get();
  EXPECT_TRUE(Late.Rejected);
}

TEST(VmServiceTest, ReregisteringReplacesModuleAndDropsSnapshot) {
  VmService Svc(ServiceOptions().workers(1));
  Svc.registerModule("m", testprog::hotLoop(50000));
  Svc.run({"m"});
  ASSERT_FALSE(Svc.snapshotFor("m").empty());

  // A different program under the same name: the old snapshot must not
  // leak into sessions over the new module.
  Svc.registerModule("m", testprog::virtualDispatch());
  EXPECT_TRUE(Svc.snapshotFor("m").empty());
  SessionResult R = Svc.run({"m"});
  EXPECT_FALSE(R.WarmStart);
  EXPECT_EQ(R.Run.Status, RunStatus::Finished);
}

TEST(VmServiceTest, ConcurrentFirstUseOfTraceProofs) {
  // Eight workers start together on a module that holds no proved code
  // yet, so they race to prove, compile and publish the same shapes.
  // Every session must match a single-threaded one counter for counter,
  // and the module ends up holding the shapes that session proved.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  const WorkloadInfo *W = findWorkload("soot");
  ASSERT_NE(W, nullptr);
  uint32_t Scale = std::max(1u, W->DefaultScale / 20);
  Module M = W->Build(Scale);
  PreparedModule RefPM(M);
  TraceVM RefVM(RefPM, promoteAll());
  RefVM.run();
  ASSERT_GT(RefVM.stats().TracesValidated, 0u);

  VmService Svc(
      ServiceOptions().workers(8).warmHandoff(false).vm(promoteAll()));
  Svc.registerWorkload(*W, Scale);
  const PreparedModule *PM = Svc.preparedModule(W->Name);
  ASSERT_NE(PM, nullptr);
  const backend::ModuleCode &Code = backend::moduleCode(*PM);
  ASSERT_EQ(Code.installs(), 0u);

  std::vector<std::future<SessionResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Svc.submit({W->Name}));
  for (std::future<SessionResult> &F : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    EXPECT_EQ(R.Run.Status, RunStatus::Finished);
    EXPECT_EQ(R.Output, RefVM.machine().output());
    EXPECT_EQ(testprog::statsDiff(R.Stats, RefVM.stats()), "");
  }
  const backend::ModuleCode &RefCode = backend::moduleCode(RefPM);
  EXPECT_EQ(Code.tracesHeld(), RefCode.tracesHeld());
  EXPECT_GE(Code.installs(), RefCode.installs());
}

TEST(VmServiceTest, ConcurrentFirstUseOfJitCode) {
  // Four workers start together on modules that hold no native code yet,
  // so their promotions race to compile and publish the same shapes.
  // Every session must match a solo session counter for counter,
  // whichever of them compiled a shape, and each module ends up holding
  // the shapes that session compiled.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  VmService Svc(
      ServiceOptions().workers(4).warmHandoff(false).vm(promoteAll()));
  const char *Names[] = {"javac", "soot"};
  std::vector<Reference> Refs;
  std::vector<size_t> RefShapes;
  for (const char *Name : Names) {
    const WorkloadInfo *W = findWorkload(Name);
    ASSERT_NE(W, nullptr);
    uint32_t Scale = std::max(1u, W->DefaultScale / 20);
    Module M = W->Build(Scale);
    PreparedModule RefPM(M);
    TraceVM RefVM(RefPM, promoteAll());
    Reference R;
    R.Run = RefVM.run();
    R.Stats = RefVM.stats();
    R.Output = RefVM.machine().output();
    R.HeapDigest = heapDigest(RefVM.machine().heap());
    ASSERT_GT(R.Stats.TracesJitCompiled, 0u);
    Refs.push_back(std::move(R));
    RefShapes.push_back(backend::moduleCode(RefPM).tracesHeld());
    Svc.registerWorkload(*W, Scale);
  }

  std::vector<std::pair<size_t, std::future<SessionResult>>> Fs;
  for (int I = 0; I < 8; ++I)
    for (size_t K = 0; K < std::size(Names); ++K)
      Fs.emplace_back(K, Svc.submit({Names[K]}));
  uint64_t Reused = 0;
  for (auto &[K, F] : Fs) {
    SessionResult R = F.get();
    ASSERT_FALSE(R.Rejected);
    EXPECT_EQ(R.Run.Status, Refs[K].Run.Status);
    EXPECT_EQ(R.Output, Refs[K].Output);
    EXPECT_EQ(R.HeapDigest, Refs[K].HeapDigest);
    EXPECT_EQ(R.Stats.digest(), Refs[K].Stats.digest());
    EXPECT_EQ(testprog::statsDiff(R.Stats, Refs[K].Stats), "");
    Reused += R.Stats.JitCodeReused;
  }
  EXPECT_GT(Reused, 0u);
  for (size_t K = 0; K < std::size(Names); ++K) {
    const backend::ModuleCode &Code =
        backend::moduleCode(*Svc.preparedModule(Names[K]));
    EXPECT_EQ(Code.tracesHeld(), RefShapes[K]);
    EXPECT_GE(Code.installs(), Code.tracesHeld());
  }
}
