//===- dist/Coordinator.h - Fork/relay hub for sharded runs -----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator of the multi-process sharded exploration (DESIGN.md
/// §10). distributedExplore() forks N worker processes — each running
/// exploreShard() over one socket pair — relays frontier batch frames
/// between them, detects distributed termination, and merges the per-
/// shard Verdicts into one RunResult that is bit-identical to the
/// in-process engine's for complete explorations.
///
/// Termination detection is Mattern-style counting adapted to the star
/// topology: the hub counts, per worker w, the configs it has received
/// from w (RecvFrom[w]) and the configs it has queued toward w
/// (RelayedTo[w]). The fleet has terminated when every worker's latest
/// report says Idle with SentConfigs == RecvFrom[w] and RecvConfigs ==
/// RelayedTo[w]. Soundness: sockets are FIFO and a worker flushes its
/// outboxes before the report that counts them, so when the equalities
/// hold there is no config in flight in either direction — every sent
/// config was relayed, every relayed config was injected, and every
/// injected config was either deduplicated or fully expanded (the worker
/// is idle). No new message can be generated, so idleness is stable.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_DIST_COORDINATOR_H
#define FCSL_DIST_COORDINATOR_H

#include "prog/Engine.h"

#include <array>

namespace fcsl {
namespace dist {

/// Per-shard exchange statistics of the most recent distributed run.
struct ShardExchange {
  uint32_t ShardId = 0;
  uint64_t Expanded = 0;
  uint64_t SentConfigs = 0;
  uint64_t RecvConfigs = 0;
  uint64_t SentBatches = 0;
  uint64_t SentBytes = 0;
  uint64_t SuppressedSends = 0; ///< re-sends the sender filter swallowed.
  uint64_t DictNodes = 0;       ///< distinct nodes in its send dictionaries.
  uint64_t DictDefBytes = 0;    ///< definition-stream bytes it shipped.
  uint64_t DictRefBytes = 0;    ///< reference-stream bytes it shipped.
  uint64_t MaxRssKb = 0; ///< the worker process's peak RSS (ru_maxrss).
};

/// Process-wide transport statistics over every distributed run so far
/// (reported by `fcsl-verify --shards=N --stats` and the benchmarks).
struct FleetStats {
  uint64_t Fleets = 0;   ///< distributed runs completed.
  uint64_t Configs = 0;  ///< frontier configs relayed between shards.
  uint64_t Messages = 0; ///< batch frames relayed.
  uint64_t Bytes = 0;    ///< relayed frame bytes.
  uint64_t CacheRecordsMerged = 0; ///< worker cache records folded into
                                   ///< the hub's obligation store.
  /// Frames/bytes the hub received, indexed by MsgType tag (1 ..
  /// MaxKnownMsgTag; index 0 unused). The full wire table `--stats`
  /// prints.
  std::array<uint64_t, 16> RecvFrames{};
  std::array<uint64_t, 16> RecvBytes{};
  /// Peak over runs of the *sum* of the run's child peak RSS values — the
  /// fleet's aggregate footprint — and of a single child's peak.
  uint64_t ChildRssKbSum = 0;
  uint64_t ChildRssKbMax = 0;
  std::vector<ShardExchange> LastRun; ///< per-shard view of the last run.
};
FleetStats fleetTotals();

/// Explores \p Root across \p NShards forked worker processes. Same
/// contract as fcsl::explore(); `Opts.Por` may still be Default (it is
/// resolved once, before forking, so every shard agrees). Falls back to
/// the in-process engine if workers cannot be forked. A worker that dies
/// before reporting a Verdict yields an *incomplete* result: Exhausted
/// is set and FailureNote names the lost shard, so verification sessions
/// fail loudly instead of trusting a partial exploration.
RunResult distributedExplore(const ProgRef &Root, const GlobalState &Initial,
                             const EngineOptions &Opts,
                             const VarEnv &InitialEnv, unsigned NShards);

/// Registers distributedExplore as the engine's sharded-exploration hook,
/// making `EngineOptions::Shards > 1` (or --shards / FCSL_SHARDS) take
/// effect on every explore() call.
void installDistributedEngine();

} // namespace dist
} // namespace fcsl

#endif // FCSL_DIST_COORDINATOR_H
