//===- dist/Shard.h - Worker-side transport for sharded runs ----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker-process side of the multi-process sharded exploration
/// (DESIGN.md §10, §14): a ShardIo implementation over one Unix-domain
/// socket to the coordinator. Non-owned successors accumulate in
/// per-destination outboxes — dictionary-encoded on the way in, so each
/// interned node crosses the connection once as a NodeDef and thereafter
/// as a varint reference — and are flushed as batch frames when a batch
/// grows past a size threshold, when the shard quiesces, or when the
/// oldest buffered config exceeds a small staleness bound (adaptive
/// coalescing: no more per-successor chatter). Status reports are sent
/// when the snapshot changes, rate-limited while busy but eagerly when
/// idle so the coordinator's termination detection converges.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_DIST_SHARD_H
#define FCSL_DIST_SHARD_H

#include "dist/Wire.h"

#include <chrono>

namespace fcsl {
namespace dist {

class SocketShardIo final : public ShardIo {
public:
  /// Takes ownership of \p Fd (the worker's end of the socket pair) and
  /// announces itself with a Hello frame.
  SocketShardIo(int Fd, unsigned ShardId, unsigned NShards);
  ~SocketShardIo() override;

  void send(unsigned Dest, FrontierConfig FC, uint64_t Fp) override;
  ShardCommand pump(const ShardStatus &Status,
                    std::vector<ShardDelivery> &Incoming) override;

  /// Flattens \p R into a Verdict carrying this transport's counters and
  /// shard id.
  VerdictMsg makeVerdict(const RunResult &R) const;

  /// Ships obligation-cache records this worker appended (drainPending on
  /// its store) so the coordinator can merge them. Call before
  /// sendVerdict; an empty delta is not sent.
  void sendCacheDelta(const CacheDeltaMsg &M);

  /// Flushes the outboxes and writes the final Verdict frame.
  void sendVerdict(const VerdictMsg &M);

private:
  /// One destination shard's pending batch plus its connection state: the
  /// send dictionary persists across batches (the peer's decoder replays
  /// every definition stream in order), the pending definition bytes ride
  /// in the next flushed frame.
  struct Outbox {
    FrontierBatchMsg Batch;
    size_t Bytes = 0;
    std::chrono::steady_clock::time_point Oldest{};
    NodeDictEncoder Dict;
    Encoder PendingDefs;
  };

  void flushOutbox(unsigned Dest);
  void flushAll();
  /// Blocking write of a whole buffer. A worker whose coordinator is gone
  /// has no one to report to: it exits with status 3 rather than explore
  /// an orphaned shard forever.
  void writeAll(const std::vector<uint8_t> &Bytes);

  int Fd;
  unsigned Id;
  std::vector<Outbox> Out;           ///< one per destination shard.
  std::vector<NodeDictDecoder> PeerDicts; ///< one per source shard.
  FrameBuffer In;
  bool DrainSeen = false;
  bool DrainExhausted = false;
  StatsReportMsg LastReport;
  bool Reported = false;
  std::chrono::steady_clock::time_point LastReportTime;
  uint64_t SentBatches = 0;
  uint64_t SentBytes = 0;
  uint64_t DictDefBytes = 0;
  uint64_t DictRefBytes = 0;
};

} // namespace dist
} // namespace fcsl

#endif // FCSL_DIST_SHARD_H
