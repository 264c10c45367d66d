//===- fleet/Supervisor.h - Fleet supervisor / router -----------*- C++ -*-===//
///
/// \file
/// The jtc-fleet supervisor: owns every shard's listening socket (bound
/// before the first fork, kept across restarts, passed by fd inheritance
/// so a respawned shard serves the same port), forks shard processes,
/// reaps and restarts them when they crash, and runs the client-facing
/// front-end that routes sessions by consistent hash on the session key.
///
/// Request multiplexing: every client session forwarded upstream gets a
/// fresh supervisor-allocated request id; a pending map keyed by
/// (upstream connection, upstream id) routes the shard's response back
/// to the originating client connection and its original id. Broadcast
/// operations (SubmitProgram, FetchStats, Checkpoint) fan out to every
/// live shard and fan back in -- counters summed, acks counted -- before
/// one reply goes to the client.
///
/// The aggregation tier rides the same machinery: on a timer (or on
/// demand) the supervisor broadcasts Checkpoint, waits for the acks,
/// then merges every shard's .jtcp files module-by-module into
/// <state>/fleet/ -- the directory newly started shards warm-boot from.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FLEET_SUPERVISOR_H
#define JTC_FLEET_SUPERVISOR_H

#include "fleet/ConsistentHash.h"
#include "net/EpollServer.h"
#include "persist/SnapshotMerge.h"
#include "vm/VmOptions.h"

#include <sys/types.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jtc {
namespace fleet {

struct FleetOptions {
  unsigned Shards = 2;
  unsigned Workers = 1;    ///< VmService workers per shard.
  uint16_t ListenPort = 0; ///< Front-end port (0 = kernel-assigned).
  std::string StateDir;    ///< Empty: no checkpoints / aggregation.
  double AggregateIntervalSeconds = 0; ///< 0: only aggregateNow().
  uint64_t MaxQueueDepth = 64;
  double IdleTimeoutSeconds = 0;
  double CheckpointIntervalSeconds = 0;
  std::string ShardBinary; ///< Path to jtc-fleet (re-executed --shard).
  /// Workloads every shard registers: (registry name, scale).
  std::vector<std::pair<std::string, uint32_t>> Workloads;
  /// Trace-execution tier every shard's sessions run on.
  backend::BackendKind Backend = defaultBackendKind();
};

struct FleetStats {
  uint64_t ShardRestarts = 0;
  uint64_t AggregatesMerged = 0; ///< Aggregation rounds completed.
  uint64_t SessionsRouted = 0;
  uint64_t RoutedShardDown = 0; ///< Sessions refused: target shard down.
  persist::MergeReport LastMerge;
};

/// One shard's counters as fetched over the protocol.
struct ShardStatsReport {
  unsigned Shard = 0;
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

class FleetSupervisor : public net::EpollServer::Handler {
public:
  explicit FleetSupervisor(FleetOptions O);
  ~FleetSupervisor() override;

  FleetSupervisor(const FleetSupervisor &) = delete;
  FleetSupervisor &operator=(const FleetSupervisor &) = delete;

  /// Binds every socket, spawns the shards, connects upstream. False
  /// with \p Err on any setup failure.
  bool start(std::string &Err);

  /// Front-end port clients connect to (valid after start()).
  uint16_t frontPort() const { return FrontPort; }

  /// One event-loop round: network traffic, child reaping/restarts,
  /// reconnects, keepalives, the aggregation timer.
  void poll(int TimeoutMs = 50);

  /// poll() until \p Seconds of wall clock pass.
  void runFor(double Seconds);

  /// Synchronous aggregation round: checkpoint every live shard, merge
  /// all shard .jtcp files into the fleet directory. False with \p Err
  /// when checkpointing or merging failed (partial merges keep going;
  /// the first error is reported).
  bool aggregateNow(std::string &Err, double TimeoutSeconds = 30);

  /// Synchronous per-shard counter fetch over the protocol.
  bool fetchStats(std::vector<ShardStatsReport> &Out, std::string &Err,
                  double TimeoutSeconds = 30);

  /// SIGTERMs every shard, waits for exits, closes every socket
  /// (idempotent; the destructor calls it).
  void shutdown();

  const FleetStats &stats() const { return Stats; }
  const net::NetCounters &netCounters() const;
  unsigned numShards() const { return static_cast<unsigned>(Slots.size()); }
  pid_t shardPid(unsigned Shard) const { return Slots[Shard].Pid; }
  bool shardConnected(unsigned Shard) const {
    return Slots[Shard].Conn != 0;
  }

  // EpollServer::Handler:
  void onFrame(uint64_t ConnId, net::Frame F) override;
  void onConnClosed(uint64_t ConnId) override;

private:
  struct ShardSlot {
    int ListenFd = -1;
    uint16_t Port = 0;
    pid_t Pid = -1;
    uint64_t Conn = 0; ///< Upstream ConnId (0 = down / reconnecting).
    unsigned Restarts = 0;
  };

  /// One forwarded request awaiting its upstream response, keyed
  /// externally by (upstream ConnId, upstream request id).
  struct Pending {
    uint64_t ClientConn = 0; ///< 0 = supervisor-internal.
    uint64_t ClientReqId = 0;
    unsigned Shard = 0;
    uint64_t FanIn = 0; ///< Fan-in id (0 = unicast forward).
  };

  /// An in-flight broadcast; replies accumulate until Remaining == 0.
  struct FanIn {
    uint64_t ClientConn = 0; ///< 0 = supervisor-internal (aggregation).
    uint64_t ClientReqId = 0;
    net::MessageType Request = net::MessageType::FetchStats;
    unsigned Remaining = 0;
    uint64_t SavedSum = 0; ///< CheckpointAck files written.
    std::vector<ShardStatsReport> PerShard;
    bool AnyError = false;
    std::string ErrorDetail;
    bool Done = false;
  };

  bool spawnShard(unsigned Shard, std::string &Err);
  void reapChildren();
  void reconnectShards();
  void handleClientFrame(uint64_t ConnId, net::Frame &F);
  void handleUpstreamFrame(unsigned Shard, uint64_t ConnId, net::Frame &F);
  void sendClientError(uint64_t ConnId, uint64_t RequestId,
                       net::RequestErrorCode Code, std::string Detail);
  /// Starts a broadcast of \p Type to every connected shard; returns the
  /// fan-in id, or 0 when no shard is connected.
  uint64_t startFanIn(net::MessageType Type,
                      const std::vector<uint8_t> &Payload,
                      uint64_t ClientConn, uint64_t ClientReqId);
  void finishFanIn(uint64_t Id);
  void failShardPendings(uint64_t ConnId);
  /// Merges every shard's checkpoints into the fleet directory.
  bool mergeAggregates(std::string &Err);
  void maybeAggregate();

  FleetOptions O;
  std::unique_ptr<net::EpollServer> Net;
  int FrontFd = -1;
  uint16_t FrontPort = 0;
  std::vector<ShardSlot> Slots;
  std::map<uint64_t, unsigned> ConnToShard; ///< Upstream conn -> shard.
  HashRing Ring;

  std::map<std::pair<uint64_t, uint64_t>, Pending> Pendings;
  std::map<uint64_t, FanIn> FanIns;
  uint64_t NextUpstreamId = 1;
  uint64_t NextFanInId = 1;

  FleetStats Stats;
  std::chrono::steady_clock::time_point LastAggregate;
  std::chrono::steady_clock::time_point LastKeepalive;
  uint64_t AggregateFanIn = 0; ///< Timer-driven round in flight (or 0).
  bool Started = false;
  bool ShuttingDown = false;
};

} // namespace fleet
} // namespace jtc

#endif // JTC_FLEET_SUPERVISOR_H
