//===- tests/persist_test.cpp - Durable snapshot round trips --------------===//
///
/// The persist subsystem's contract, from both sides:
///
///  - round trip: capture -> encode -> decode -> reinstall into a fresh
///    session yields bit-identical adaptive state (seedDigest), and a
///    session warm-started from disk runs with the donor's traces
///    installed instead of reconstructing them;
///  - strictness: every truncation of a valid .jtcp and every single-byte
///    corruption must be rejected with a typed PersistError -- never a
///    crash, never a partial install. The checked-in corpus fixtures pin
///    the rejection kinds for the canonical failure modes.
///
//===----------------------------------------------------------------------===//

#include "persist/Snapshot.h"
#include "persist/SnapshotFormat.h"

#include "TestPrograms.h"
#include "vm/ModuleFingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace jtc;
using namespace jtc::persist;

namespace {

/// A finished donor session plus everything the tests compare against.
/// Owns its Module: PreparedModule and TraceVM reference it.
struct Donor {
  Module M;
  PreparedModule PM;
  TraceVM VM;
  SnapshotData Snap;
  uint64_t Digest = 0;

  explicit Donor(Module Mod, VmOptions VO = VmOptions())
      : M(std::move(Mod)), PM(M), VM(PM, VO) {
    EXPECT_EQ(VM.run().Status, RunStatus::Finished);
    Snap = captureSnapshot(VM);
    Digest = seedDigest(Snap.Seed);
  }
};

/// Fresh per-test scratch directory under the system temp dir.
std::filesystem::path scratchDir(const char *Name) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "jtc-persist-test" / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(PersistTest, EncodeDecodePreservesEverything) {
  Donor D(testprog::hotLoop(20000));
  ASSERT_FALSE(D.Snap.empty());
  ASSERT_GT(D.Snap.Seed.Traces.size(), 0u);

  std::vector<uint8_t> Bytes = encodeSnapshot(D.Snap);
  SnapshotData Back;
  PersistError Err;
  ASSERT_TRUE(decodeSnapshot(Bytes.data(), Bytes.size(), Back, Err))
      << Err.message();
  EXPECT_EQ(Back.Fingerprint, D.Snap.Fingerprint);
  EXPECT_EQ(Back.DonorBlocks, D.Snap.DonorBlocks);
  EXPECT_EQ(seedDigest(Back.Seed), D.Digest);
  // The digest excludes donor history; check those fields directly.
  ASSERT_EQ(Back.Seed.Traces.size(), D.Snap.Seed.Traces.size());
  for (size_t I = 0; I < Back.Seed.Traces.size(); ++I) {
    EXPECT_EQ(Back.Seed.Traces[I].Entered, D.Snap.Seed.Traces[I].Entered);
    EXPECT_EQ(Back.Seed.Traces[I].Completed, D.Snap.Seed.Traces[I].Completed);
  }
}

TEST(PersistTest, EncodingIsDeterministic) {
  Donor D(testprog::hotLoop(20000));
  EXPECT_EQ(encodeSnapshot(D.Snap), encodeSnapshot(D.Snap));
}

TEST(PersistTest, ReinstallIntoFreshSessionDigestsIdentically) {
  Donor D(testprog::hotLoop(20000));
  std::vector<uint8_t> Bytes = encodeSnapshot(D.Snap);
  SnapshotData Back;
  PersistError Err;
  ASSERT_TRUE(decodeSnapshot(Bytes.data(), Bytes.size(), Back, Err));
  ASSERT_TRUE(validateSeed(Back.Seed, D.PM, Err)) << Err.message();

  TraceVM Fresh(D.PM, VmOptions());
  Fresh.importSeed(Back.Seed);
  EXPECT_EQ(seedDigest(Fresh.exportSeed()), D.Digest);
}

TEST(PersistTest, FileRoundTripWarmRunSkipsConstruction) {
  Donor D(testprog::hotLoop(20000));
  std::filesystem::path Dir = scratchDir("file-round-trip");
  std::string Path = (Dir / "hot.jtcp").string();

  PersistError Err;
  ASSERT_TRUE(saveSnapshotFile(D.Snap, Path, Err)) << Err.message();

  TraceVM Warm(D.PM, VmOptions());
  LoadReport Report;
  ASSERT_TRUE(loadProfile(Warm, Path, Report, Err)) << Err.message();
  EXPECT_EQ(Report.Nodes, D.Snap.Seed.Nodes.size());
  EXPECT_EQ(Report.Traces, D.Snap.Seed.Traces.size());
  EXPECT_EQ(Report.TracesDroppedByCompletion, 0u);
  EXPECT_EQ(Report.DonorBlocks, D.Snap.DonorBlocks);

  ASSERT_EQ(Warm.run().Status, RunStatus::Finished);
  VmStats S = Warm.stats();
  EXPECT_GT(S.TracesSeeded, 0u);
  EXPECT_EQ(S.TracesSeeded, D.Snap.Seed.Traces.size());
  // The donor's traces serve the hot region; nothing is rebuilt and the
  // program's output is unchanged.
  EXPECT_EQ(S.TracesConstructed, 0u);
  EXPECT_EQ(Warm.machine().output(), D.VM.machine().output());
}

TEST(PersistTest, SaveProfileAndOptionHooks) {
  std::filesystem::path Dir = scratchDir("option-hooks");
  std::string Path = (Dir / "prof.jtcp").string();

  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  {
    TraceVM VM(PM, VmOptions().saveProfilePath(Path));
    LoadReport Report;
    PersistError Err;
    ASSERT_TRUE(applyProfileOptions(VM, Report, Err)); // Load path unset.
    ASSERT_EQ(VM.run().Status, RunStatus::Finished);
    ASSERT_TRUE(finishProfileOptions(VM, Err)) << Err.message();
    ASSERT_TRUE(std::filesystem::exists(Path));
  }
  {
    TraceVM VM(PM, VmOptions().loadProfilePath(Path));
    LoadReport Report;
    PersistError Err;
    ASSERT_TRUE(applyProfileOptions(VM, Report, Err)) << Err.message();
    EXPECT_GT(Report.Traces, 0u);
    ASSERT_EQ(VM.run().Status, RunStatus::Finished);
    EXPECT_GT(VM.stats().TracesSeeded, 0u);
    EXPECT_EQ(VM.stats().TracesConstructed, 0u);
  }
}

TEST(PersistTest, EmptySnapshotRoundTrips) {
  SnapshotData S;
  S.Fingerprint = 0x1234;
  std::vector<uint8_t> Bytes = encodeSnapshot(S);
  SnapshotData Back;
  PersistError Err;
  ASSERT_TRUE(decodeSnapshot(Bytes.data(), Bytes.size(), Back, Err))
      << Err.message();
  EXPECT_TRUE(Back.empty());
  EXPECT_EQ(Back.Fingerprint, 0x1234u);
}

//===----------------------------------------------------------------------===//
// Strict rejection of malformed input
//===----------------------------------------------------------------------===//

namespace {

/// Decodes \p Bytes expecting failure; returns the error kind.
PersistErrorKind expectReject(const std::vector<uint8_t> &Bytes) {
  SnapshotData Out;
  PersistError Err;
  EXPECT_FALSE(decodeSnapshot(Bytes.data(), Bytes.size(), Out, Err));
  EXPECT_NE(Err.Kind, PersistErrorKind::None);
  EXPECT_TRUE(Out.empty()); // Nothing may be partially installed.
  return Err.Kind;
}

/// A small valid snapshot to mutate (kept small so the exhaustive sweeps
/// stay fast even under sanitizers).
std::vector<uint8_t> smallSnapshotBytes() {
  Donor D(testprog::countingLoop(2000));
  return encodeSnapshot(D.Snap);
}

} // namespace

TEST(PersistTest, EveryTruncationIsRejected) {
  std::vector<uint8_t> Bytes = smallSnapshotBytes();
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    SnapshotData Out;
    PersistError Err;
    EXPECT_FALSE(decodeSnapshot(Cut.data(), Cut.size(), Out, Err))
        << "prefix of length " << Len << " decoded";
  }
}

TEST(PersistTest, EverySingleByteCorruptionIsRejected) {
  std::vector<uint8_t> Bytes = smallSnapshotBytes();
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<uint8_t> Mut = Bytes;
    Mut[I] ^= 0xff;
    SnapshotData Out;
    PersistError Err;
    EXPECT_FALSE(decodeSnapshot(Mut.data(), Mut.size(), Out, Err))
        << "byte " << I << " flipped, still decoded";
  }
}

TEST(PersistTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> Bytes = smallSnapshotBytes();
  Bytes.push_back(0);
  EXPECT_EQ(expectReject(Bytes), PersistErrorKind::Malformed);
}

TEST(PersistTest, HeaderFailureKindsAreTyped) {
  std::vector<uint8_t> Bytes = smallSnapshotBytes();
  {
    std::vector<uint8_t> Mut = Bytes;
    Mut[0] = 'X';
    EXPECT_EQ(expectReject(Mut), PersistErrorKind::BadMagic);
  }
  {
    std::vector<uint8_t> Mut = Bytes; // Version u16 little-endian at [4].
    Mut[4] = static_cast<uint8_t>(FormatVersion + 1);
    EXPECT_EQ(expectReject(Mut), PersistErrorKind::VersionSkew);
  }
  {
    std::vector<uint8_t> Mut = Bytes; // Layout u16 little-endian at [6].
    Mut[6] |= 0x80;
    EXPECT_EQ(expectReject(Mut), PersistErrorKind::LayoutUnsupported);
  }
  {
    std::vector<uint8_t> Mut = Bytes; // Section count u32 at [8].
    Mut[8] = NumSections + 1;
    EXPECT_EQ(expectReject(Mut), PersistErrorKind::Malformed);
  }
  {
    // A payload byte flip must surface as a checksum mismatch before the
    // payload is ever interpreted. The meta section's payload starts
    // after the header and its 5-byte section frame.
    std::vector<uint8_t> Mut = Bytes;
    Mut[HeaderSize + 5] ^= 0x01;
    EXPECT_EQ(expectReject(Mut), PersistErrorKind::ChecksumMismatch);
  }
}

TEST(PersistTest, LoadProfileRejectsWrongModule) {
  // A perfectly valid snapshot of one program is refused -- before any
  // state lands -- when loaded over a structurally different one.
  Donor D(testprog::hotLoop(20000));
  std::filesystem::path Dir = scratchDir("wrong-module");
  std::string Path = (Dir / "hot.jtcp").string();
  PersistError Err;
  ASSERT_TRUE(saveSnapshotFile(D.Snap, Path, Err));

  Module Other = testprog::switchProgram();
  PreparedModule OtherPM(Other);
  ASSERT_NE(moduleFingerprint(OtherPM), D.Snap.Fingerprint);
  TraceVM VM(OtherPM, VmOptions());
  LoadReport Report;
  EXPECT_FALSE(loadProfile(VM, Path, Report, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::FingerprintMismatch);
  ASSERT_EQ(VM.run().Status, RunStatus::Finished);
  EXPECT_EQ(VM.stats().TracesSeeded, 0u);
}

TEST(PersistTest, LoadProfileReportsMissingFile) {
  Module M = testprog::countingLoop(100);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions());
  LoadReport Report;
  PersistError Err;
  EXPECT_FALSE(loadProfile(VM, "/nonexistent/dir/none.jtcp", Report, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::Io);
}

TEST(PersistTest, ValidateSeedRejectsForeignBlockIds) {
  Donor D(testprog::hotLoop(20000));
  PersistError Err;
  ASSERT_TRUE(validateSeed(D.Snap.Seed, D.PM, Err));

  {
    VmSeed Bad = D.Snap.Seed;
    ASSERT_FALSE(Bad.Nodes.empty());
    Bad.Nodes[0].From = static_cast<BlockId>(D.PM.numBlocks() + 7);
    EXPECT_FALSE(validateSeed(Bad, D.PM, Err));
    EXPECT_EQ(Err.Kind, PersistErrorKind::IncompatibleSeed);
  }
  {
    VmSeed Bad = D.Snap.Seed;
    ASSERT_FALSE(Bad.Traces.empty());
    Bad.Traces[0].Blocks.back() = static_cast<BlockId>(D.PM.numBlocks());
    EXPECT_FALSE(validateSeed(Bad, D.PM, Err));
    EXPECT_EQ(Err.Kind, PersistErrorKind::IncompatibleSeed);
  }
  {
    VmSeed Bad = D.Snap.Seed;
    ASSERT_GE(Bad.Nodes.size(), 2u);
    Bad.Nodes[1] = Bad.Nodes[0]; // Duplicate (From, To) pair.
    EXPECT_FALSE(validateSeed(Bad, D.PM, Err));
    EXPECT_EQ(Err.Kind, PersistErrorKind::IncompatibleSeed);
  }
}

TEST(PersistTest, ValidateSeedRejectsTracePairsWithoutNodes) {
  // Traces hang off the profiler nodes of their block pairs, so a seed
  // whose snapshot lacks one of those nodes cannot be installed.
  Donor D(testprog::hotLoop(20000));
  ASSERT_FALSE(D.Snap.Seed.Traces.empty());
  const TraceCache::TraceSeed &T = D.Snap.Seed.Traces[0];
  auto WithoutNode = [&](BlockId X, BlockId Y) {
    VmSeed Bad = D.Snap.Seed;
    auto It = std::find_if(Bad.Nodes.begin(), Bad.Nodes.end(),
                           [&](const BcgNodeSnapshot &N) {
                             return N.From == X && N.To == Y;
                           });
    EXPECT_NE(It, Bad.Nodes.end()) << "donor lacks node " << X << "->" << Y;
    if (It != Bad.Nodes.end())
      Bad.Nodes.erase(It);
    return Bad;
  };
  PersistError Err;
  EXPECT_FALSE(validateSeed(WithoutNode(T.EntryFrom, T.Blocks[0]), D.PM, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::IncompatibleSeed);
  EXPECT_NE(Err.message().find("entry pair"), std::string::npos)
      << Err.message();
  EXPECT_FALSE(validateSeed(WithoutNode(T.Blocks[0], T.Blocks[1]), D.PM, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::IncompatibleSeed);
  EXPECT_NE(Err.message().find("block pair"), std::string::npos)
      << Err.message();
}

TEST(PersistTest, CompletionFilterDropsTracesThatFailedRetirement) {
  Donor D(testprog::hotLoop(20000));
  ASSERT_FALSE(D.Snap.Seed.Traces.empty());

  // Forge a donor history in which the first trace had already failed
  // retirement: plenty of entries, almost no completions.
  SnapshotData Forged = D.Snap;
  Forged.Seed.Traces[0].Entered = 1000;
  Forged.Seed.Traces[0].Completed = 0;

  std::filesystem::path Dir = scratchDir("completion-filter");
  std::string Path = (Dir / "forged.jtcp").string();
  PersistError Err;
  ASSERT_TRUE(saveSnapshotFile(Forged, Path, Err));

  TraceVM VM(D.PM, VmOptions());
  LoadReport Report;
  ASSERT_TRUE(loadProfile(VM, Path, Report, Err)) << Err.message();
  EXPECT_EQ(Report.TracesDroppedByCompletion, 1u);
  EXPECT_EQ(Report.Traces, D.Snap.Seed.Traces.size() - 1);
}

//===----------------------------------------------------------------------===//
// Checked-in corpus fixtures
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> readFileBytes(const std::filesystem::path &P) {
  std::ifstream IS(P, std::ios::binary);
  EXPECT_TRUE(IS.good()) << "missing fixture " << P;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(IS),
                              std::istreambuf_iterator<char>());
}

} // namespace

TEST(PersistCorpusTest, FixturesRejectWithTypedErrors) {
  const std::filesystem::path Dir = JTC_PERSIST_CORPUS_DIR;
  const struct {
    const char *File;
    PersistErrorKind Want;
  } Cases[] = {
      {"bad-magic.jtcp", PersistErrorKind::BadMagic},
      {"truncated.jtcp", PersistErrorKind::Truncated},
      {"bit-flip.jtcp", PersistErrorKind::ChecksumMismatch},
      {"version-bump.jtcp", PersistErrorKind::VersionSkew},
  };
  for (const auto &C : Cases) {
    std::vector<uint8_t> Bytes = readFileBytes(Dir / C.File);
    ASSERT_FALSE(Bytes.empty()) << C.File;
    SnapshotData Out;
    PersistError Err;
    EXPECT_FALSE(decodeSnapshot(Bytes.data(), Bytes.size(), Out, Err))
        << C.File << " decoded";
    EXPECT_EQ(Err.Kind, C.Want)
        << C.File << " rejected as " << persistErrorKindName(Err.Kind);
  }
}

TEST(PersistCorpusTest, WrongModuleFixtureIsFingerprintGated) {
  // wrong-module.jtcp is a *valid* snapshot -- of a different program. It
  // must decode cleanly and then be refused at the fingerprint gate.
  const std::filesystem::path Dir = JTC_PERSIST_CORPUS_DIR;
  std::vector<uint8_t> Bytes = readFileBytes(Dir / "wrong-module.jtcp");
  ASSERT_FALSE(Bytes.empty());
  SnapshotData Out;
  PersistError Err;
  ASSERT_TRUE(decodeSnapshot(Bytes.data(), Bytes.size(), Out, Err))
      << Err.message();

  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  ASSERT_NE(Out.Fingerprint, moduleFingerprint(PM));
  TraceVM VM(PM, VmOptions());
  LoadReport Report;
  std::string Path = (scratchDir("corpus-wrong") / "wrong.jtcp").string();
  ASSERT_TRUE(saveSnapshotFile(Out, Path, Err));
  EXPECT_FALSE(loadProfile(VM, Path, Report, Err));
  EXPECT_EQ(Err.Kind, PersistErrorKind::FingerprintMismatch);
}
