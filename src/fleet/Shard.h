//===- fleet/Shard.h - One serving shard process ----------------*- C++ -*-===//
///
/// \file
/// The body of a shard process: an EpollServer over a listening socket
/// *inherited from the supervisor* (socket-activation style -- the
/// supervisor binds and listens, so the port survives shard crashes and
/// the kernel queues connections across a restart window), wrapping a
/// VmService worker pool. The epoll loop is single-threaded; sessions
/// retire on VmService workers and re-enter the loop through an outbox
/// drained on the eventfd wake path, so no network state needs locks.
///
/// Admission control: once VmService::queueDepth() reaches the
/// configured bound, RunSession requests get a typed Backpressure reply
/// instead of queueing without bound -- the client sees the rejection
/// immediately, with the depth and bound, rather than a timeout.
///
/// Durability: the shard checkpoints its profiles to
/// <state>/shard-<id>/ and warm-boots from the fleet aggregate in
/// <state>/fleet/ -- so a restarted shard starts from the *fleet's*
/// collective profile, not cold.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FLEET_SHARD_H
#define JTC_FLEET_SHARD_H

#include "vm/VmOptions.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jtc {
namespace fleet {

struct ShardOptions {
  int ListenFd = -1;    ///< Inherited listening socket (required).
  uint32_t ShardId = 0;
  unsigned Workers = 1; ///< VmService worker threads.
  std::string StateDir; ///< Empty: no checkpointing / warm boot.
  uint64_t MaxQueueDepth = 64;
  double IdleTimeoutSeconds = 0;
  double CheckpointIntervalSeconds = 0;
  /// Workloads to register at boot: (registry name, scale; 0 = default).
  std::vector<std::pair<std::string, uint32_t>> Workloads;
  /// Trace-execution tier of every session.
  backend::BackendKind Backend = defaultBackendKind();
};

/// Per-shard checkpoint directory under \p StateDir.
std::string shardCheckpointDir(const std::string &StateDir, uint32_t ShardId);

/// Where the aggregation tier writes merged snapshots and shards
/// warm-boot from.
std::string fleetAggregateDir(const std::string &StateDir);

/// Runs the shard loop until SIGTERM/SIGINT, then drains, checkpoints
/// and returns the process exit code. Never returns on success paths
/// other than a requested stop.
int runShardProcess(const ShardOptions &O);

} // namespace fleet
} // namespace jtc

#endif // JTC_FLEET_SHARD_H
