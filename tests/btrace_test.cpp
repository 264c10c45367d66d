//===- tests/btrace_test.cpp - Branch-trace pipeline contract -------------===//
///
/// The btrace subsystem's contract, from both sides:
///
///  - round trip: encode -> strict decode reproduces the *exact* block
///    sequence the VM dispatched, and replay through a fresh adaptive
///    engine reproduces the live session's stats digest bit-identically
///    (cold, warm-seeded, trapped and budget-cut runs, and all six paper
///    workloads). The live VM commits each trace run in bulk while replay
///    drives the engine block by block, so the budget, trap and finish
///    cases run on both execution tiers and end inside traces too;
///  - strictness: every truncation of a valid .btc and every single-byte
///    corruption is rejected with a typed PersistError -- never a crash,
///    never a silently wrong block stream. The checked-in corpus
///    fixtures pin the rejection kinds for the canonical failure modes;
///  - loss tolerance: sync packets are scannable from arbitrary offsets
///    and recoverTail() salvages a true suffix of the run from a torn
///    stream.
///
//===----------------------------------------------------------------------===//

#include "btrace/BtraceCapture.h"
#include "btrace/BtraceDecoder.h"
#include "btrace/BtraceReplay.h"
#include "fuzz/BtraceAudit.h"
#include "persist/Snapshot.h"
#include "vm/ModuleFingerprint.h"
#include "workloads/Workloads.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

using namespace jtc;
using namespace jtc::btrace;
using persist::PersistError;
using persist::PersistErrorKind;

namespace {

/// One captured session: ground-truth block sequence plus the encoded
/// in-memory stream (via the fuzzer's recorder). Owns its Module.
struct Captured {
  Module M;
  PreparedModule PM;
  TraceVM VM;
  fuzz::BtraceRecorder Rec;
  RunResult R;

  explicit Captured(Module Mod, VmOptions VO = VmOptions(),
                    uint32_t SyncInterval = 64)
      : M(std::move(Mod)), PM(M), VM(PM, VO), Rec(PM, VM, SyncInterval) {
    Rec.attach(VM);
    R = VM.run();
  }
};

std::filesystem::path scratchDir(const char *Name) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "jtc-btrace-test" / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::vector<uint8_t> readFileBytes(const std::filesystem::path &P) {
  std::ifstream IS(P, std::ios::binary);
  EXPECT_TRUE(IS.good()) << "missing fixture " << P;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(IS),
                              std::istreambuf_iterator<char>());
}

/// Both execution tiers, named explicitly so a JTC_BACKEND setting cannot
/// collapse them into one.
constexpr backend::BackendKind BothTiers[] = {backend::BackendKind::Interp,
                                              backend::BackendKind::Jit};

/// Whether the VM records telemetry events in this build; the checks of
/// where a run ended read them.
#ifdef JTC_TELEMETRY
constexpr bool EventsRecorded = true;
#else
constexpr bool EventsRecorded = false;
#endif

/// True when the run's last block was a trace block: the last trace
/// completion or early exit is stamped with the final clock (a divergence
/// is stamped one block before the block it diverged to). Needs telemetry
/// on; the ring keeps the newest events.
bool endedInsideTrace(const TraceVM &VM) {
  std::optional<uint64_t> LastLeave;
  VM.events().forEach([&](const Event &E) {
    if (E.Kind == EventKind::TraceCompleted ||
        E.Kind == EventKind::TraceEarlyExit)
      LastLeave = E.Clock;
  });
  return LastLeave == VM.stats().BlocksExecuted;
}

/// The run ended on the last block of a completed trace.
bool endedOnTraceCompletion(const TraceVM &VM) {
  std::optional<Event> Last;
  VM.events().forEach([&](const Event &E) {
    if (E.Kind == EventKind::TraceCompleted ||
        E.Kind == EventKind::TraceEarlyExit)
      Last = E;
  });
  return Last && Last->Kind == EventKind::TraceCompleted &&
         Last->Clock == VM.stats().BlocksExecuted;
}

/// The live digest, the END record's digest and the per-block replay's
/// digest agree, and the decoded stream is the dispatched one.
void expectReplayMatches(const Captured &C, const std::string &What) {
  std::vector<fuzz::Violation> Vs = checkBtraceRoundTrip(C.PM, C.Rec);
  EXPECT_TRUE(Vs.empty()) << What << ":\n" << fuzz::formatViolations(Vs);
  ReplayResult RR;
  PersistError Err;
  ASSERT_TRUE(replayBtrace(C.Rec.stream().data(), C.Rec.stream().size(),
                           C.PM, RR, Err))
      << What << ": " << Err.message();
  EXPECT_TRUE(RR.DigestMatch) << What;
  EXPECT_EQ(RR.ReplayDigest, C.VM.stats().digest()) << What;
  EXPECT_EQ(RR.End.Status, C.R.Status) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

namespace {

/// The capture (module build + full VM run + encode) dominates this
/// suite's wall clock, so the round-trip cases share sessions built once
/// in SetUpTestSuite rather than re-capturing per case. Builders are kept
/// alongside each session so the determinism case can re-capture and
/// compare streams byte for byte.
class SharedCaptureTest : public ::testing::Test {
protected:
  struct Session {
    std::string Name;
    std::function<Module()> Build;
    VmOptions Options;
    uint32_t SyncInterval;
    std::unique_ptr<Captured> C;
  };

  static void SetUpTestSuite() {
    Programs = new std::vector<Session>();
    const std::pair<const char *, std::function<Module()>> Specs[] = {
        {"countingLoop", [] { return testprog::countingLoop(500); }},
        {"recursiveFactorial", [] { return testprog::recursiveFactorial(12); }},
        {"virtualDispatch", [] { return testprog::virtualDispatch(); }},
        {"switchProgram", [] { return testprog::switchProgram(); }},
        {"arraySquares", [] { return testprog::arraySquares(64); }},
        {"hotLoop", [] { return testprog::hotLoop(5000); }},
    };
    for (const auto &[Name, Build] : Specs)
      Programs->push_back(
          {Name, Build, VmOptions(), 64, std::make_unique<Captured>(Build())});
    Workloads = new std::vector<Session>();
    for (const WorkloadInfo &W : allWorkloads()) {
      // Reduced scale keeps the suite fast; the CI smoke and the fuzz
      // audit cover full-scale streams.
      uint32_t Scale = W.DefaultScale / 20 ? W.DefaultScale / 20 : 1;
      auto Build = [&W, Scale] { return W.Build(Scale); };
      for (backend::BackendKind Tier : BothTiers) {
        VmOptions VO = VmOptions().backend(Tier);
        Workloads->push_back(
            {W.Name + std::string("/") + backend::backendKindName(Tier), Build,
             VO, 512,
             std::make_unique<Captured>(Build(), VO, /*SyncInterval=*/512)});
      }
    }
  }
  static void TearDownTestSuite() {
    delete Programs;
    Programs = nullptr;
    delete Workloads;
    Workloads = nullptr;
  }

  static std::vector<Session> *Programs;
  static std::vector<Session> *Workloads;
};

std::vector<SharedCaptureTest::Session> *SharedCaptureTest::Programs = nullptr;
std::vector<SharedCaptureTest::Session> *SharedCaptureTest::Workloads = nullptr;

} // namespace

TEST_F(SharedCaptureTest, ReproducesExactBlockStream) {
  for (const Session &P : *Programs) {
    const Captured &C = *P.C;
    EXPECT_EQ(C.R.Status, RunStatus::Finished) << P.Name;
    std::vector<fuzz::Violation> Vs = checkBtraceRoundTrip(C.PM, C.Rec);
    EXPECT_TRUE(Vs.empty()) << P.Name << ":\n" << fuzz::formatViolations(Vs);
  }
}

TEST_F(SharedCaptureTest, AllSixWorkloadsReplayBitIdentically) {
  uint64_t NativeRuns = 0;
  for (const Session &W : *Workloads) {
    const Captured &C = *W.C;
    EXPECT_EQ(C.R.Status, RunStatus::Finished) << W.Name;
    EXPECT_EQ(C.VM.backendTier(), W.Options.backend()) << W.Name;
    NativeRuns += C.VM.stats().TraceDispatchesJit;
    std::vector<fuzz::Violation> Vs = checkBtraceRoundTrip(C.PM, C.Rec);
    EXPECT_TRUE(Vs.empty()) << W.Name << ":\n" << fuzz::formatViolations(Vs);

    // The replayed digest equals the live session's digest directly, not
    // just the END record's copy of it.
    ReplayResult RR;
    PersistError Err;
    ASSERT_TRUE(replayBtrace(C.Rec.stream().data(), C.Rec.stream().size(),
                             C.PM, RR, Err))
        << W.Name << ": " << Err.message();
    EXPECT_EQ(RR.ReplayDigest, C.VM.stats().digest()) << W.Name;
    EXPECT_EQ(RR.BlocksWalked, C.Rec.blocks().size()) << W.Name;
  }
  // The jit sessions really committed native runs.
  if (backend::jitSupportedHost()) {
    EXPECT_GT(NativeRuns, 0u);
  }
}

TEST_F(SharedCaptureTest, RecaptureIsByteIdentical) {
  // Sharing sessions across cases (and running test binaries under
  // `ctest -j`) is sound only if capture is a pure function of the
  // program: a fresh capture of the same module must reproduce the
  // fixture's stream byte for byte, digest and all.
  for (const std::vector<Session> *Group : {Programs, Workloads}) {
    for (const Session &S : *Group) {
      Captured Again(S.Build(), S.Options, S.SyncInterval);
      EXPECT_EQ(Again.R.Status, S.C->R.Status) << S.Name;
      EXPECT_EQ(Again.Rec.stream(), S.C->Rec.stream())
          << S.Name << ": re-capture diverged from the shared session";
      EXPECT_EQ(Again.VM.stats().digest(), S.C->VM.stats().digest()) << S.Name;
    }
  }
}

TEST(BtraceRoundTripTest, TrappedRunRoundTrips) {
  for (backend::BackendKind Tier : BothTiers) {
    Captured C(testprog::divideByZero(), VmOptions().backend(Tier));
    ASSERT_EQ(C.R.Status, RunStatus::Trapped);
    expectReplayMatches(C, backend::backendKindName(Tier));

    ReplayResult RR;
    PersistError Err;
    ASSERT_TRUE(replayBtrace(C.Rec.stream().data(), C.Rec.stream().size(),
                             C.PM, RR, Err))
        << Err.message();
    EXPECT_EQ(RR.End.Trap, TrapKind::DivideByZero);
  }
}

TEST(BtraceRoundTripTest, TrapInsideTraceRoundTripsOnBothTiers) {
  for (backend::BackendKind Tier : BothTiers) {
    const char *Name = backend::backendKindName(Tier);
    Captured C(testprog::trapInHotLoop(6001),
               VmOptions().backend(Tier).telemetry(true));
    ASSERT_EQ(C.R.Status, RunStatus::Trapped) << Name;
    EXPECT_EQ(C.R.Trap, TrapKind::DivideByZero) << Name;
    EXPECT_TRUE(!EventsRecorded || endedInsideTrace(C.VM)) << Name;
    if (Tier == backend::BackendKind::Jit && backend::jitSupportedHost()) {
      EXPECT_GT(C.VM.stats().TraceDispatchesJit, 0u) << Name;
    }
    expectReplayMatches(C, Name);
  }
}

TEST(BtraceRoundTripTest, FinishInsideTraceRoundTripsOnBothTiers) {
  for (backend::BackendKind Tier : BothTiers) {
    const char *Name = backend::backendKindName(Tier);
    Captured C(testprog::recursiveMain(1500),
               VmOptions().backend(Tier).telemetry(true));
    ASSERT_EQ(C.R.Status, RunStatus::Finished) << Name;
    EXPECT_TRUE(!EventsRecorded || endedInsideTrace(C.VM)) << Name;
    if (Tier == backend::BackendKind::Jit && backend::jitSupportedHost()) {
      EXPECT_GT(C.VM.stats().TraceDispatchesJit, 0u) << Name;
    }
    expectReplayMatches(C, Name);
  }
}

TEST(BtraceRoundTripTest, BudgetCutRunRoundTrips) {
  for (backend::BackendKind Tier : BothTiers) {
    Captured C(testprog::countingLoop(1000000),
               VmOptions().backend(Tier).maxInstructions(20000));
    ASSERT_EQ(C.R.Status, RunStatus::BudgetExhausted);
    expectReplayMatches(C, backend::backendKindName(Tier));
  }
}

TEST(BtraceRoundTripTest, BudgetsEndingInsideTracesRoundTrip) {
  // Consecutive budgets land on every block of the loop's trace runs:
  // some end a run part-way (the native tier declines those runs and
  // block-steps them), some on the trace's last block (the native tier
  // runs those whole when the budget fits exactly).
  for (backend::BackendKind Tier : BothTiers) {
    const char *Name = backend::backendKindName(Tier);
    unsigned Inside = 0, OnCompletion = 0;
    for (uint64_t Budget = 20000; Budget < 20048; ++Budget) {
      Captured C(testprog::hotLoop(1000000), VmOptions()
                                                 .backend(Tier)
                                                 .telemetry(true)
                                                 .maxInstructions(Budget));
      ASSERT_EQ(C.R.Status, RunStatus::BudgetExhausted) << Name;
      Inside += endedInsideTrace(C.VM);
      OnCompletion += endedOnTraceCompletion(C.VM);
      expectReplayMatches(C, std::string(Name) + " budget " +
                                 std::to_string(Budget));
    }
    if (!EventsRecorded)
      continue;
    EXPECT_GT(Inside - OnCompletion, 0u) << Name << ": no budget ended mid-run";
    EXPECT_GT(OnCompletion, 0u) << Name << ": no budget ended a whole run";
  }
}

TEST(BtraceRoundTripTest, HeaderRoundTripsConfiguration) {
  BtraceHeader H;
  H.Fingerprint = 0xdeadbeefcafef00dull;
  H.Threshold = 0.93;
  H.Delay = 7;
  H.Decay = 123;
  H.Budget = 555555;
  H.SyncInterval = 64;
  H.Scale = 42;
  H.Spec = "workload:compress";
  H.EntryBlock = 3;
  H.Seed = {1, 2, 3, 4, 5};
  H.Flags |= FlagHasSeed;

  std::vector<uint8_t> Bytes = encodeHeader(H);
  BtraceHeader Out;
  size_t HeaderSize = 0;
  PersistError Err;
  ASSERT_TRUE(decodeHeader(Bytes.data(), Bytes.size(), Out, HeaderSize, Err))
      << Err.message();
  EXPECT_EQ(HeaderSize, Bytes.size());
  EXPECT_EQ(Out.Fingerprint, H.Fingerprint);
  EXPECT_DOUBLE_EQ(Out.Threshold, H.Threshold);
  EXPECT_EQ(Out.Delay, H.Delay);
  EXPECT_EQ(Out.Decay, H.Decay);
  EXPECT_EQ(Out.Budget, H.Budget);
  EXPECT_EQ(Out.SyncInterval, H.SyncInterval);
  EXPECT_EQ(Out.Scale, H.Scale);
  EXPECT_EQ(Out.Spec, H.Spec);
  EXPECT_EQ(Out.EntryBlock, H.EntryBlock);
  ASSERT_TRUE(Out.hasSeed());
  EXPECT_EQ(Out.Seed, H.Seed);
}

//===----------------------------------------------------------------------===//
// File capture and warm-seeded replay
//===----------------------------------------------------------------------===//

TEST(BtraceCaptureTest, WarmSeededFileCaptureReplays) {
  std::filesystem::path Dir = scratchDir("warm");
  std::string ProfilePath = (Dir / "donor.jtcp").string();
  std::string StreamPath = (Dir / "warm.btc").string();

  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  PersistError Err;
  {
    TraceVM Donor(PM, VmOptions());
    ASSERT_EQ(Donor.run().Status, RunStatus::Finished);
    ASSERT_GT(Donor.stats().LiveTraces, 0u);
    ASSERT_TRUE(persist::saveProfile(Donor, ProfilePath, Err))
        << Err.message();
  }

  TraceVM VM(PM, VmOptions().loadProfilePath(ProfilePath));
  persist::LoadReport Report;
  ASSERT_TRUE(persist::applyProfileOptions(VM, Report, Err))
      << Err.message();
  ASSERT_GT(Report.Traces, 0u);
  std::unique_ptr<BtraceFileCapture> Capture =
      BtraceFileCapture::start(VM, StreamPath, "test:hotLoop", 1, Err);
  ASSERT_TRUE(Capture) << Err.message();
  ASSERT_EQ(VM.run().Status, RunStatus::Finished);
  ASSERT_TRUE(Capture->finish(Err)) << Err.message();

  std::vector<uint8_t> Bytes = readFileBytes(StreamPath);
  ReplayResult RR;
  ASSERT_TRUE(replayBtrace(Bytes.data(), Bytes.size(), PM, RR, Err))
      << Err.message();
  EXPECT_TRUE(RR.Header.hasSeed());
  EXPECT_GT(RR.SeedNodes + RR.SeedTraces, 0u);
  EXPECT_TRUE(RR.DigestMatch);
  EXPECT_EQ(RR.ReplayDigest, VM.stats().digest());
  EXPECT_EQ(RR.Header.Spec, "test:hotLoop");
}

TEST(BtraceCaptureTest, UnwritablePathIsTypedIoError) {
  Module M = testprog::countingLoop(10);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions());
  PersistError Err;
  std::unique_ptr<BtraceFileCapture> Capture = BtraceFileCapture::start(
      VM, "/nonexistent-dir/x/y.btc", "test", 1, Err);
  EXPECT_EQ(Capture, nullptr);
  EXPECT_EQ(Err.Kind, PersistErrorKind::Io);
}

//===----------------------------------------------------------------------===//
// Strictness: truncation and corruption sweeps
//===----------------------------------------------------------------------===//

TEST(BtraceStrictnessTest, EveryTruncationIsRejectedTyped) {
  Captured C(testprog::countingLoop(60), VmOptions(), /*SyncInterval=*/16);
  const std::vector<uint8_t> &Stream = C.Rec.stream();
  ASSERT_GT(Stream.size(), 16u);
  SuccessorTable ST(C.PM);
  for (size_t N = 0; N < Stream.size(); ++N) {
    BtraceHeader H;
    BtraceEnd E;
    PersistError Err;
    EXPECT_FALSE(
        decodeBtrace(Stream.data(), N, C.PM, ST, H, E, [](BlockId) {}, Err))
        << "prefix of " << N << " bytes decoded";
    EXPECT_NE(Err.Kind, PersistErrorKind::None) << "untyped error at " << N;
  }
}

TEST(BtraceStrictnessTest, EverySingleByteCorruptionIsRejectedTyped) {
  Captured C(testprog::countingLoop(60), VmOptions(), /*SyncInterval=*/16);
  SuccessorTable ST(C.PM);
  std::vector<uint8_t> Mutant;
  for (size_t I = 0; I < C.Rec.stream().size(); ++I) {
    Mutant = C.Rec.stream();
    Mutant[I] ^= 0x01;
    BtraceHeader H;
    BtraceEnd E;
    PersistError Err;
    EXPECT_FALSE(decodeBtrace(Mutant.data(), Mutant.size(), C.PM, ST, H, E,
                              [](BlockId) {}, Err))
        << "bit flip at byte " << I << " decoded";
    EXPECT_NE(Err.Kind, PersistErrorKind::None) << "untyped error at " << I;
  }
}

TEST(BtraceStrictnessTest, WrongModuleIsFingerprintGated) {
  Captured C(testprog::countingLoop(100));
  Module Other = testprog::switchProgram();
  PreparedModule OtherPM(Other);
  SuccessorTable ST(OtherPM);
  BtraceHeader H;
  BtraceEnd E;
  PersistError Err;
  EXPECT_FALSE(decodeBtrace(C.Rec.stream().data(), C.Rec.stream().size(),
                            OtherPM, ST, H, E, [](BlockId) {}, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::FingerprintMismatch);
}

TEST(BtraceStrictnessTest, TrailingGarbageIsMalformed) {
  Captured C(testprog::countingLoop(100));
  std::vector<uint8_t> Stream = C.Rec.stream();
  Stream.push_back(0x00);
  SuccessorTable ST(C.PM);
  BtraceHeader H;
  BtraceEnd E;
  PersistError Err;
  EXPECT_FALSE(decodeBtrace(Stream.data(), Stream.size(), C.PM, ST, H, E,
                            [](BlockId) {}, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::Malformed);
}

//===----------------------------------------------------------------------===//
// Loss tolerance: sync packets and tail recovery
//===----------------------------------------------------------------------===//

TEST(BtraceRecoveryTest, SyncPointsAreScannable) {
  Captured C(testprog::hotLoop(20000), VmOptions(), /*SyncInterval=*/128);
  std::vector<SyncPoint> Syncs =
      scanSyncPoints(C.Rec.stream().data(), C.Rec.stream().size());
  ASSERT_FALSE(Syncs.empty());
  // Sync packets assert the walk state at exact multiples of the
  // interval, in stream order.
  uint64_t Prev = 0;
  for (const SyncPoint &S : Syncs) {
    EXPECT_EQ(S.BlocksExecuted % 128, 0u);
    EXPECT_GT(S.BlocksExecuted, Prev);
    Prev = S.BlocksExecuted;
    ASSERT_LE(S.BlocksExecuted, C.Rec.blocks().size());
    EXPECT_EQ(S.Cur, C.Rec.blocks()[S.BlocksExecuted - 1]);
  }
}

TEST(BtraceRecoveryTest, TornStreamRecoversTrueSuffix) {
  Captured C(testprog::hotLoop(20000), VmOptions(), /*SyncInterval=*/128);
  const std::vector<BlockId> &Truth = C.Rec.blocks();

  // Tear off the end: strict decode must refuse, recovery must salvage.
  std::vector<uint8_t> Torn(C.Rec.stream().begin(),
                            C.Rec.stream().end() - 5);
  SuccessorTable ST(C.PM);
  BtraceHeader H;
  BtraceEnd E;
  PersistError Err;
  ASSERT_FALSE(decodeBtrace(Torn.data(), Torn.size(), C.PM, ST, H, E,
                            [](BlockId) {}, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::Truncated);

  TailRecovery T = recoverTail(Torn.data(), Torn.size(), C.PM, ST);
  ASSERT_TRUE(T.Found);
  EXPECT_FALSE(T.SawEnd);
  ASSERT_FALSE(T.Blocks.empty());
  EXPECT_EQ(T.Blocks.front(), T.From.Cur);
  // The recovered walk is the true dispatch sequence from the sync point
  // on (possibly short of the very end, whose packets were torn off).
  ASSERT_GE(T.From.BlocksExecuted, 1u);
  size_t Start = static_cast<size_t>(T.From.BlocksExecuted) - 1;
  ASSERT_LE(Start + T.Blocks.size(), Truth.size());
  for (size_t I = 0; I < T.Blocks.size(); ++I)
    EXPECT_EQ(T.Blocks[I], Truth[Start + I]) << "at " << I;
}

TEST(BtraceRecoveryTest, FrontCorruptionStillRecoversTail) {
  Captured C(testprog::hotLoop(20000), VmOptions(), /*SyncInterval=*/128);
  const std::vector<BlockId> &Truth = C.Rec.blocks();
  std::vector<uint8_t> Damaged = C.Rec.stream();
  // Smash bytes shortly after the header -- upstream loss.
  ASSERT_GT(Damaged.size(), 300u);
  for (size_t I = 120; I < 140; ++I)
    Damaged[I] = 0xff;

  SuccessorTable ST(C.PM);
  TailRecovery T = recoverTail(Damaged.data(), Damaged.size(), C.PM, ST);
  ASSERT_TRUE(T.Found);
  ASSERT_FALSE(T.Blocks.empty());
  size_t Start = static_cast<size_t>(T.From.BlocksExecuted) - 1;
  ASSERT_LE(Start + T.Blocks.size(), Truth.size());
  for (size_t I = 0; I < T.Blocks.size(); ++I)
    ASSERT_EQ(T.Blocks[I], Truth[Start + I]) << "at " << I;
  // With the END packet intact the recovery reaches the stream's end.
  EXPECT_TRUE(T.SawEnd);
  EXPECT_EQ(Start + T.Blocks.size(), Truth.size());
}

//===----------------------------------------------------------------------===//
// Checked-in corpus fixtures
//===----------------------------------------------------------------------===//

TEST(BtraceCorpusTest, FixturesRejectWithTypedErrors) {
  const std::filesystem::path Dir = JTC_BTRACE_CORPUS_DIR;
  Module M = testprog::countingLoop(200);
  PreparedModule PM(M);
  SuccessorTable ST(PM);
  const struct {
    const char *File;
    PersistErrorKind Want;
  } Cases[] = {
      {"bad-magic.btc", PersistErrorKind::BadMagic},
      {"version-bump.btc", PersistErrorKind::VersionSkew},
      {"truncated.btc", PersistErrorKind::Truncated},
      {"bit-flip.btc", PersistErrorKind::ChecksumMismatch},
      {"wrong-module.btc", PersistErrorKind::FingerprintMismatch},
  };
  for (const auto &C : Cases) {
    std::vector<uint8_t> Bytes = readFileBytes(Dir / C.File);
    ASSERT_FALSE(Bytes.empty()) << C.File;
    BtraceHeader H;
    BtraceEnd E;
    PersistError Err;
    EXPECT_FALSE(decodeBtrace(Bytes.data(), Bytes.size(), PM, ST, H, E,
                              [](BlockId) {}, Err))
        << C.File << " decoded";
    EXPECT_EQ(Err.Kind, C.Want)
        << C.File << " rejected as " << persistErrorKindName(Err.Kind);
  }
}

TEST(BtraceCorpusTest, PristineFixtureReplays) {
  // pristine.btc is a valid capture of countingLoop(200): it must decode
  // and replay with a digest match on any build that speaks version 1.
  const std::filesystem::path Dir = JTC_BTRACE_CORPUS_DIR;
  std::vector<uint8_t> Bytes = readFileBytes(Dir / "pristine.btc");
  ASSERT_FALSE(Bytes.empty());
  Module M = testprog::countingLoop(200);
  PreparedModule PM(M);
  ReplayResult RR;
  PersistError Err;
  ASSERT_TRUE(replayBtrace(Bytes.data(), Bytes.size(), PM, RR, Err))
      << Err.message();
  EXPECT_TRUE(RR.DigestMatch);
}
