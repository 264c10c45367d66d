//===- persist/Snapshot.h - Durable profile snapshots -----------*- C++ -*-===//
///
/// \file
/// The persist subsystem: durable, validated serialization of a TraceVM's
/// adaptive state -- BCG edge counters with their decay phase, the live
/// trace set with its retirement bookkeeping, and the fingerprint of the
/// module it was all learned over -- as a versioned, checksummed binary
/// .jtcp file (SnapshotFormat.h). This is what lets a restarted process
/// resume hot: the warm handoff of the server layer survives only within
/// one process, while a .jtcp snapshot carries the same VmSeed across
/// process boundaries and machine reboots.
///
/// Loading never trusts the file. The pipeline is:
///
///   bytes --decode--> SnapshotData     strict structural parse: magic,
///                                      version, layout flags, per-section
///                                      CRC32, bounds-checked varints
///         --fingerprint--> gate        snapshot must match the module
///         --validateSeed--> gate       every block id in range, traces
///                                      well-formed, entries unique, every
///                                      trace pair a snapshot node
///         --completion filter-->       donor traces that had already
///                                      failed retirement are dropped
///         --importSeed--> installed    through the same VmSeed path the
///                                      in-process warm handoff uses
///
/// Any failure surfaces as a typed PersistError; nothing is partially
/// installed. Seeds are only ever installed over modules the bytecode
/// verifier (including the typed pass) has already accepted -- every
/// PreparedModule in the system is constructed from verified modules --
/// so a loaded trace can reference only blocks the verifier proved
/// well-formed.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_PERSIST_SNAPSHOT_H
#define JTC_PERSIST_SNAPSHOT_H

#include "persist/PersistError.h"
#include "vm/TraceVM.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jtc {
namespace persist {

/// Everything a .jtcp file carries, in memory: the portable VmSeed plus
/// the provenance tags (module fingerprint, donor maturity) the loader
/// gates on.
struct SnapshotData {
  uint64_t Fingerprint = 0; ///< moduleFingerprint of the donor's module.
  uint64_t DonorBlocks = 0; ///< Blocks the donor had executed at capture.
  VmSeed Seed;

  bool empty() const { return Seed.empty(); }
};

/// Captures \p VM's current adaptive state, tagged with its module's
/// fingerprint. Usable after (or during) the donor's run.
SnapshotData captureSnapshot(const TraceVM &VM);

/// Serializes \p S into .jtcp bytes (deterministic for a given input).
std::vector<uint8_t> encodeSnapshot(const SnapshotData &S);

/// Strictly parses .jtcp bytes. On success fills \p Out and returns true;
/// on any structural problem returns false with \p Err set and \p Out
/// untouched. Never exhibits undefined behaviour on arbitrary input.
bool decodeSnapshot(const uint8_t *Data, size_t Size, SnapshotData &Out,
                    PersistError &Err);

/// Re-validates a decoded seed against the module it is about to be
/// installed over: every node and trace block id must name a block of
/// \p PM, node pairs and trace entry pairs must be unique, every trace's
/// entry pair and consecutive block pairs must be nodes of the seed, and
/// per-trace bookkeeping must be internally consistent. Returns false
/// with \p Err (IncompatibleSeed) on the first violation.
bool validateSeed(const VmSeed &Seed, const PreparedModule &PM,
                  PersistError &Err);

/// Order-sensitive FNV-1a digest of a seed's installable state: node
/// counters and trace contents, excluding the donor-side Entered /
/// Completed history (which seeding intentionally resets). Equal digests
/// mean a fresh session seeded from either state installs identical
/// profiler and cache contents -- the round-trip property the fuzzer
/// audits.
uint64_t seedDigest(const VmSeed &Seed);

/// Writes \p S to \p Path atomically (temp file + rename), so a crash
/// mid-checkpoint can never leave a torn file where a good snapshot was.
bool saveSnapshotFile(const SnapshotData &S, const std::string &Path,
                      PersistError &Err);

/// Reads and strictly decodes \p Path.
bool loadSnapshotFile(const std::string &Path, SnapshotData &Out,
                      PersistError &Err);

/// What a successful loadProfile installed (for logs / JSON).
struct LoadReport {
  size_t Nodes = 0;
  size_t Traces = 0;
  /// Donor traces dropped by the completion filter: their observed
  /// completion had already fallen below threshold - margin over at
  /// least RetirementCheckEntries donor entries, so re-installing them
  /// would only re-run the retirement they already failed.
  size_t TracesDroppedByCompletion = 0;
  uint64_t DonorBlocks = 0;
};

/// The full load pipeline (see file comment) against \p VM, which must
/// not have run yet. On success installs the seed and records a
/// SnapshotLoaded telemetry event; on failure records SnapshotRejected
/// and installs nothing. Components disabled by the VM's options
/// (profiling / traces) are skipped exactly as importSeed does.
bool loadProfile(TraceVM &VM, const std::string &Path, LoadReport &Report,
                 PersistError &Err);

/// Captures \p VM and writes \p Path atomically; records a SnapshotSaved
/// telemetry event. \p VM is non-const only for the event ring.
bool saveProfile(TraceVM &VM, const std::string &Path, PersistError &Err);

/// Honours VmOptions::loadProfilePath() when set (no-op otherwise):
/// call between construction and run().
bool applyProfileOptions(TraceVM &VM, LoadReport &Report, PersistError &Err);

/// Honours VmOptions::saveProfilePath() when set (no-op otherwise):
/// call after run().
bool finishProfileOptions(TraceVM &VM, PersistError &Err);

} // namespace persist
} // namespace jtc

#endif // JTC_PERSIST_SNAPSHOT_H
