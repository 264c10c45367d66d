//===- persist/SnapshotCodec.cpp - .jtcp encode / decode ------------------===//
///
/// The codec proper. Encoding is straightforward; decoding is written
/// defensively throughout: every count is bounded by the bytes that could
/// plausibly back it before anything is allocated, every delta is
/// range-checked before the arithmetic that consumes it, and each section
/// must be consumed exactly. The rule is that arbitrary input bytes land
/// in a typed PersistError, never in UB or a partially filled result.
///
//===----------------------------------------------------------------------===//

#include "persist/ByteStream.h"
#include "persist/Crc32.h"
#include "persist/Snapshot.h"
#include "persist/SnapshotFormat.h"

#include "support/Ids.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_set>

using namespace jtc;
using namespace jtc::persist;

namespace {

bool fail(PersistError &Err, PersistErrorKind K, std::string Detail) {
  Err = PersistError::make(K, std::move(Detail));
  return false;
}

uint64_t doubleBits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

double bitsDouble(uint64_t B) {
  double V;
  std::memcpy(&V, &B, sizeof(V));
  return V;
}

/// Applies a decoded zigzag delta to a block-id base. Rejects deltas that
/// could overflow the arithmetic and results outside the valid id range
/// (InvalidBlockId is excluded: it never names a real block).
bool applyDelta(BlockId Base, int64_t Delta, BlockId &Out) {
  constexpr int64_t Bound = int64_t(1) << 33;
  if (Delta > Bound || Delta < -Bound)
    return false;
  int64_t V = static_cast<int64_t>(Base) + Delta;
  if (V < 0 || V >= static_cast<int64_t>(InvalidBlockId))
    return false;
  Out = static_cast<BlockId>(V);
  return true;
}

void writeSection(ByteWriter &W, uint8_t Tag, const ByteWriter &Payload) {
  W.u8(Tag);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.bytes(Payload.buffer().data(), Payload.size());
  W.u32(crc32(Payload.buffer().data(), Payload.size()));
}

} // namespace

std::vector<uint8_t> persist::encodeSnapshot(const SnapshotData &S) {
  // Meta.
  ByteWriter Meta;
  Meta.u64(S.Fingerprint);
  Meta.u64(S.DonorBlocks);
  Meta.varint(S.Seed.Nodes.size());
  Meta.varint(S.Seed.Traces.size());

  // Nodes: delta chains over (From) across nodes and (successor) within
  // a node's correlation list.
  ByteWriter Nodes;
  BlockId PrevFrom = 0;
  for (const BcgNodeSnapshot &N : S.Seed.Nodes) {
    Nodes.svarint(static_cast<int64_t>(N.From) -
                  static_cast<int64_t>(PrevFrom));
    Nodes.svarint(static_cast<int64_t>(N.To) - static_cast<int64_t>(N.From));
    Nodes.varint(N.StartDelayLeft);
    Nodes.varint(N.SinceDecay);
    Nodes.varint(N.Execs);
    Nodes.varint(N.Corrs.size());
    BlockId PrevSucc = N.To;
    for (const auto &[Succ, Count] : N.Corrs) {
      Nodes.svarint(static_cast<int64_t>(Succ) -
                    static_cast<int64_t>(PrevSucc));
      Nodes.varint(Count);
      PrevSucc = Succ;
    }
    PrevFrom = N.From;
  }

  // Traces: delta chains over (EntryFrom) across traces and (block)
  // within a trace's path.
  ByteWriter TracesW;
  BlockId PrevEntry = 0;
  for (const TraceCache::TraceSeed &T : S.Seed.Traces) {
    TracesW.svarint(static_cast<int64_t>(T.EntryFrom) -
                    static_cast<int64_t>(PrevEntry));
    TracesW.varint(T.Blocks.size());
    BlockId Prev = T.EntryFrom;
    for (BlockId B : T.Blocks) {
      TracesW.svarint(static_cast<int64_t>(B) - static_cast<int64_t>(Prev));
      Prev = B;
    }
    TracesW.u64(doubleBits(T.ExpectedCompletion));
    TracesW.varint(T.Entered);
    TracesW.varint(T.Completed);
    PrevEntry = T.EntryFrom;
  }

  ByteWriter Out;
  Out.bytes(Magic, sizeof(Magic));
  Out.u16(FormatVersion);
  Out.u16(LayoutVarintDelta);
  Out.u32(NumSections);
  writeSection(Out, SectionMeta, Meta);
  writeSection(Out, SectionNodes, Nodes);
  writeSection(Out, SectionTraces, TracesW);
  return Out.take();
}

namespace {

struct Section {
  const uint8_t *Data = nullptr;
  size_t Size = 0;
};

/// Reads one framed section: tag, length, payload, CRC. The CRC check
/// runs before any payload byte is interpreted.
bool readSection(ByteReader &R, uint8_t WantTag, Section &S,
                 PersistError &Err) {
  uint8_t Tag;
  uint32_t Len;
  if (!R.u8(Tag) || !R.u32(Len))
    return fail(Err, PersistErrorKind::Truncated, "section header cut short");
  if (Tag != WantTag) {
    std::ostringstream OS;
    OS << "expected section '" << static_cast<char>(WantTag) << "', found 0x"
       << std::hex << static_cast<unsigned>(Tag);
    return fail(Err, PersistErrorKind::Malformed, OS.str());
  }
  if (!R.span(Len, S.Data))
    return fail(Err, PersistErrorKind::Truncated,
                "section payload cut short");
  uint32_t Crc;
  if (!R.u32(Crc))
    return fail(Err, PersistErrorKind::Truncated, "section crc cut short");
  if (crc32(S.Data, Len) != Crc) {
    std::string D = "section '";
    D += static_cast<char>(WantTag);
    D += "'";
    return fail(Err, PersistErrorKind::ChecksumMismatch, std::move(D));
  }
  S.Size = Len;
  return true;
}

bool decodeNodes(const Section &S, uint64_t Count,
                 std::vector<BcgNodeSnapshot> &Out, PersistError &Err) {
  ByteReader R(S.Data, S.Size);
  // Each node costs at least 6 payload bytes, so a count exceeding the
  // payload size is corrupt -- checked before the reserve so a flipped
  // count byte cannot demand gigabytes.
  if (Count > S.Size)
    return fail(Err, PersistErrorKind::Malformed,
                "node count exceeds section size");
  Out.reserve(static_cast<size_t>(Count));
  BlockId PrevFrom = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    BcgNodeSnapshot N;
    int64_t DFrom, DTo;
    uint64_t Delay, Decay, Execs, NumCorrs;
    if (!R.svarint(DFrom) || !R.svarint(DTo) || !R.varint(Delay) ||
        !R.varint(Decay) || !R.varint(Execs) || !R.varint(NumCorrs))
      return fail(Err, PersistErrorKind::Truncated, "node record cut short");
    if (!applyDelta(PrevFrom, DFrom, N.From) ||
        !applyDelta(N.From, DTo, N.To))
      return fail(Err, PersistErrorKind::Malformed,
                  "node block id out of range");
    if (Delay > 0xffffffffu || Decay > 0xffffffffu)
      return fail(Err, PersistErrorKind::Malformed,
                  "node counter out of range");
    if (NumCorrs > R.remaining())
      return fail(Err, PersistErrorKind::Malformed,
                  "correlation count exceeds section size");
    N.StartDelayLeft = static_cast<uint32_t>(Delay);
    N.SinceDecay = static_cast<uint32_t>(Decay);
    N.Execs = Execs;
    N.Corrs.reserve(static_cast<size_t>(NumCorrs));
    BlockId PrevSucc = N.To;
    for (uint64_t C = 0; C < NumCorrs; ++C) {
      int64_t DSucc;
      uint64_t CountV;
      if (!R.svarint(DSucc) || !R.varint(CountV))
        return fail(Err, PersistErrorKind::Truncated,
                    "correlation record cut short");
      BlockId Succ;
      if (!applyDelta(PrevSucc, DSucc, Succ))
        return fail(Err, PersistErrorKind::Malformed,
                    "correlation successor out of range");
      if (CountV > 0xffffu)
        return fail(Err, PersistErrorKind::Malformed,
                    "correlation count exceeds 16 bits");
      N.Corrs.emplace_back(Succ, static_cast<uint16_t>(CountV));
      PrevSucc = Succ;
    }
    PrevFrom = N.From;
    Out.push_back(std::move(N));
  }
  if (!R.exhausted())
    return fail(Err, PersistErrorKind::Malformed,
                "trailing bytes in node section");
  return true;
}

bool decodeTraces(const Section &S, uint64_t Count,
                  std::vector<TraceCache::TraceSeed> &Out,
                  PersistError &Err) {
  ByteReader R(S.Data, S.Size);
  if (Count > S.Size)
    return fail(Err, PersistErrorKind::Malformed,
                "trace count exceeds section size");
  Out.reserve(static_cast<size_t>(Count));
  BlockId PrevEntry = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    TraceCache::TraceSeed T;
    int64_t DEntry;
    uint64_t NumBlocks;
    if (!R.svarint(DEntry) || !R.varint(NumBlocks))
      return fail(Err, PersistErrorKind::Truncated, "trace record cut short");
    if (!applyDelta(PrevEntry, DEntry, T.EntryFrom))
      return fail(Err, PersistErrorKind::Malformed,
                  "trace entry block out of range");
    if (NumBlocks < 2)
      return fail(Err, PersistErrorKind::Malformed,
                  "trace shorter than two blocks");
    if (NumBlocks > R.remaining())
      return fail(Err, PersistErrorKind::Malformed,
                  "trace block count exceeds section size");
    T.Blocks.reserve(static_cast<size_t>(NumBlocks));
    BlockId Prev = T.EntryFrom;
    for (uint64_t B = 0; B < NumBlocks; ++B) {
      int64_t DB;
      if (!R.svarint(DB))
        return fail(Err, PersistErrorKind::Truncated,
                    "trace block cut short");
      BlockId Block;
      if (!applyDelta(Prev, DB, Block))
        return fail(Err, PersistErrorKind::Malformed,
                    "trace block id out of range");
      T.Blocks.push_back(Block);
      Prev = Block;
    }
    uint64_t CompletionBits;
    if (!R.u64(CompletionBits) || !R.varint(T.Entered) ||
        !R.varint(T.Completed))
      return fail(Err, PersistErrorKind::Truncated, "trace record cut short");
    T.ExpectedCompletion = bitsDouble(CompletionBits);
    if (!std::isfinite(T.ExpectedCompletion) || T.ExpectedCompletion < 0.0 ||
        T.ExpectedCompletion > 1.0)
      return fail(Err, PersistErrorKind::Malformed,
                  "trace completion probability outside [0, 1]");
    if (T.Completed > T.Entered)
      return fail(Err, PersistErrorKind::Malformed,
                  "trace completed count exceeds entered count");
    PrevEntry = T.EntryFrom;
    Out.push_back(std::move(T));
  }
  if (!R.exhausted())
    return fail(Err, PersistErrorKind::Malformed,
                "trailing bytes in trace section");
  return true;
}

} // namespace

bool persist::decodeSnapshot(const uint8_t *Data, size_t Size,
                             SnapshotData &Out, PersistError &Err) {
  ByteReader R(Data, Size);

  const uint8_t *M;
  if (!R.span(sizeof(Magic), M))
    return fail(Err, PersistErrorKind::Truncated, "shorter than the magic");
  if (std::memcmp(M, Magic, sizeof(Magic)) != 0)
    return fail(Err, PersistErrorKind::BadMagic, "not a .jtcp file");

  uint16_t Version, Layout;
  uint32_t Sections;
  if (!R.u16(Version) || !R.u16(Layout) || !R.u32(Sections))
    return fail(Err, PersistErrorKind::Truncated, "header cut short");
  if (Version != FormatVersion) {
    std::ostringstream OS;
    OS << "format version " << Version << ", this build speaks "
       << FormatVersion;
    return fail(Err, PersistErrorKind::VersionSkew, OS.str());
  }
  if ((Layout & ~SupportedLayoutMask) != 0 ||
      (Layout & LayoutVarintDelta) == 0) {
    std::ostringstream OS;
    OS << "layout flags 0x" << std::hex << Layout << " unsupported";
    return fail(Err, PersistErrorKind::LayoutUnsupported, OS.str());
  }
  if (Sections != NumSections)
    return fail(Err, PersistErrorKind::Malformed,
                "unexpected section count");

  Section Meta, Nodes, Traces;
  if (!readSection(R, SectionMeta, Meta, Err) ||
      !readSection(R, SectionNodes, Nodes, Err) ||
      !readSection(R, SectionTraces, Traces, Err))
    return false;
  if (!R.exhausted())
    return fail(Err, PersistErrorKind::Malformed,
                "trailing bytes after the last section");

  SnapshotData S;
  uint64_t NodeCount, TraceCount;
  {
    ByteReader MR(Meta.Data, Meta.Size);
    if (!MR.u64(S.Fingerprint) || !MR.u64(S.DonorBlocks) ||
        !MR.varint(NodeCount) || !MR.varint(TraceCount))
      return fail(Err, PersistErrorKind::Truncated, "meta section cut short");
    if (!MR.exhausted())
      return fail(Err, PersistErrorKind::Malformed,
                  "trailing bytes in meta section");
    if (S.Fingerprint == 0)
      return fail(Err, PersistErrorKind::Malformed, "null module fingerprint");
  }

  if (!decodeNodes(Nodes, NodeCount, S.Seed.Nodes, Err) ||
      !decodeTraces(Traces, TraceCount, S.Seed.Traces, Err))
    return false;

  Out = std::move(S);
  return true;
}

bool persist::validateSeed(const VmSeed &Seed, const PreparedModule &PM,
                           PersistError &Err) {
  const uint64_t NumBlocks = PM.numBlocks();
  auto Bad = [&Err](std::string Detail) {
    return fail(Err, PersistErrorKind::IncompatibleSeed, std::move(Detail));
  };

  std::unordered_set<uint64_t> NodePairs;
  NodePairs.reserve(Seed.Nodes.size());
  for (const BcgNodeSnapshot &N : Seed.Nodes) {
    if (N.From >= NumBlocks || N.To >= NumBlocks)
      return Bad("node names a block the module does not have");
    if (!NodePairs.insert(pairKey(N.From, N.To)).second)
      return Bad("duplicate node for one block pair");
    std::unordered_set<BlockId> Succs;
    Succs.reserve(N.Corrs.size());
    for (const auto &[Succ, Count] : N.Corrs) {
      (void)Count;
      if (Succ >= NumBlocks)
        return Bad("correlation successor outside the module");
      if (!Succs.insert(Succ).second)
        return Bad("duplicate correlation successor in one node");
    }
  }

  std::unordered_set<uint64_t> Entries;
  Entries.reserve(Seed.Traces.size());
  for (const TraceCache::TraceSeed &T : Seed.Traces) {
    if (T.Blocks.size() < 2)
      return Bad("trace shorter than two blocks");
    if (!Entries.insert(pairKey(T.EntryFrom, T.Blocks[0])).second)
      return Bad("duplicate trace entry pair");
    // A trace hangs off the profiler contexts of its block pairs, so each
    // pair must be a node the snapshot restores (which also keeps every
    // trace block inside the module: node blocks were checked above).
    for (size_t K = 0; K < T.Blocks.size(); ++K)
      if (!NodePairs.count(
              pairKey(K ? T.Blocks[K - 1] : T.EntryFrom, T.Blocks[K])))
        return Bad(K ? "trace block pair has no profiler node"
                     : "trace entry pair has no profiler node");
    if (T.ExpectedCompletion < 0.0 || T.ExpectedCompletion > 1.0)
      return Bad("trace completion probability outside [0, 1]");
    if (T.Completed > T.Entered)
      return Bad("trace completed count exceeds entered count");
  }
  return true;
}

uint64_t persist::seedDigest(const VmSeed &Seed) {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  Mix(Seed.Nodes.size());
  for (const BcgNodeSnapshot &N : Seed.Nodes) {
    Mix(N.From);
    Mix(N.To);
    Mix(N.StartDelayLeft);
    Mix(N.SinceDecay);
    Mix(N.Execs);
    Mix(N.Corrs.size());
    for (const auto &[Succ, Count] : N.Corrs) {
      Mix(Succ);
      Mix(Count);
    }
  }
  Mix(Seed.Traces.size());
  for (const TraceCache::TraceSeed &T : Seed.Traces) {
    Mix(T.EntryFrom);
    Mix(T.Blocks.size());
    for (BlockId B : T.Blocks)
      Mix(B);
    Mix(doubleBits(T.ExpectedCompletion));
    // Entered / Completed intentionally excluded: seeding resets them.
  }
  return H;
}
