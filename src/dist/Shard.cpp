//===- dist/Shard.cpp - Worker-side transport for sharded runs -------------===//
//
// Part of fcsl-cpp. See Shard.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "dist/Shard.h"

#include <cerrno>
#include <cstdlib>
#include <sys/socket.h>
#include <unistd.h>

using namespace fcsl;
using namespace fcsl::dist;

namespace {

/// Flush a destination's outbox once it holds this many configs...
constexpr size_t FlushConfigs = 64;
/// ...or this many payload bytes, whichever comes first.
constexpr size_t FlushBytes = 256u << 10;
/// A buffered config older than this is flushed on the next pump even if
/// the batch is small and the shard busy: bounds the latency a peer waits
/// on work we are sitting on, without reverting to per-successor frames.
constexpr auto FlushStaleness = std::chrono::microseconds(200);
/// Minimum interval between busy-state stats reports.
constexpr auto ReportInterval = std::chrono::milliseconds(20);

} // namespace

SocketShardIo::SocketShardIo(int Fd, unsigned ShardId, unsigned NShards)
    : Fd(Fd), Id(ShardId), Out(NShards), PeerDicts(NShards) {
  for (unsigned I = 0; I != NShards; ++I) {
    Out[I].Batch.Dest = I;
    Out[I].Batch.Src = ShardId;
  }
  HelloMsg Hello;
  Hello.ShardId = ShardId;
  writeAll(frameHello(Hello));
}

SocketShardIo::~SocketShardIo() {
  if (Fd >= 0)
    ::close(Fd);
}

void SocketShardIo::writeAll(const std::vector<uint8_t> &Bytes) {
  size_t Off = 0;
  while (Off != Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      // The coordinator is gone (EPIPE/ECONNRESET): an orphaned worker
      // has nobody to report to. Exit loudly; the coordinator-side EOF
      // handling (or the crash diagnostic) takes it from here.
      std::_Exit(3);
    }
    Off += static_cast<size_t>(N);
  }
}

void SocketShardIo::flushOutbox(unsigned Dest) {
  Outbox &O = Out[Dest];
  if (O.Batch.Configs.empty())
    return;
  O.Batch.Defs = O.PendingDefs.take();
  O.PendingDefs = Encoder();
  DictDefBytes += O.Batch.Defs.size();
  std::vector<uint8_t> Frame = frameBatch(O.Batch);
  ++SentBatches;
  SentBytes += Frame.size();
  writeAll(Frame);
  O.Batch.Configs.clear();
  O.Batch.Fps.clear();
  O.Batch.Defs.clear();
  O.Bytes = 0;
}

void SocketShardIo::flushAll() {
  for (unsigned I = 0; I != Out.size(); ++I)
    flushOutbox(I);
}

void SocketShardIo::send(unsigned Dest, FrontierConfig FC, uint64_t Fp) {
  Outbox &O = Out[Dest];
  // Encode against this connection's dictionary: nodes the peer has
  // already seen become references; new ones append to the pending
  // definition stream that rides in the next flushed frame.
  Encoder Refs;
  O.Dict.encodeConfig(O.PendingDefs, Refs, FC);
  std::vector<uint8_t> Body = Refs.take();
  DictRefBytes += Body.size();
  if (O.Batch.Configs.empty())
    O.Oldest = std::chrono::steady_clock::now();
  O.Bytes += Body.size();
  O.Batch.Fps.push_back(Fp);
  O.Batch.Configs.push_back(std::move(Body));
  if (O.Batch.Configs.size() >= FlushConfigs || O.Bytes >= FlushBytes ||
      O.PendingDefs.buffer().size() >= FlushBytes)
    flushOutbox(Dest);
}

ShardCommand SocketShardIo::pump(const ShardStatus &Status,
                                 std::vector<ShardDelivery> &Incoming) {
  // Adaptive coalescing: flush when the shard has quiesced (batches must
  // precede the idle stats report that counts them as sent — the socket
  // is FIFO, so the coordinator's received-counts catch up before it
  // weighs the report), on drain, or when a buffered config has waited
  // past the staleness bound. Otherwise let batches grow toward the size
  // thresholds instead of framing every successor.
  bool Quiesced = Status.Idle || Status.Failed || Status.Exhausted;
  if (Quiesced || DrainSeen) {
    flushAll();
  } else {
    auto Now = std::chrono::steady_clock::now();
    for (unsigned I = 0; I != Out.size(); ++I)
      if (!Out[I].Batch.Configs.empty() &&
          Now - Out[I].Oldest >= FlushStaleness)
        flushOutbox(I);
  }

  // Drain the socket without blocking.
  uint8_t Buf[64 << 10];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      In.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    // EOF or hard error: coordinator gone. Stop exploring; the Verdict
    // write will fail and exit the worker.
    DrainSeen = true;
    break;
  }

  while (std::optional<std::vector<uint8_t>> Payload = In.next()) {
    std::optional<WireMsg> M = decodeFrame(*Payload);
    if (!M) {
      // Frames on a fleet socket come from this same binary, so one that
      // does not decode — a bad header, a truncated body, the retired
      // tag 2, or a tag from a newer protocol — means protocol traffic
      // was lost. Surface it as a malformed delivery so the run fails
      // loudly instead of silently dropping it.
      ShardDelivery Delivery;
      Delivery.Malformed = true;
      Incoming.push_back(std::move(Delivery));
      continue;
    }
    if (M->Type == MsgType::FrontierBatchDict) {
      FrontierBatchMsg &B = M->Batch;
      // The definition stream extends the (Src -> here) connection
      // dictionary; a malformed stream poisons it permanently, so every
      // config in this and later batches from Src is undeliverable —
      // surface each as Malformed (the engine fails the run; per-config
      // entries keep received-counts balanced).
      NodeDictDecoder *Dict =
          B.Src < PeerDicts.size() ? &PeerDicts[B.Src] : nullptr;
      bool BatchBad = !Dict || !Dict->feedDefs(B.Defs.data(), B.Defs.size());
      for (size_t I = 0; I != B.Configs.size(); ++I) {
        ShardDelivery Delivery;
        if (BatchBad) {
          Delivery.Malformed = true;
        } else {
          Decoder D(B.Configs[I]);
          Delivery.Config = Dict->decodeConfig(D);
          Delivery.Malformed = D.failed() || !D.atEnd();
        }
        Incoming.push_back(std::move(Delivery));
      }
    } else if (M->Type == MsgType::Drain) {
      DrainSeen = true;
      DrainExhausted |= M->Drain.Exhausted;
    }
  }
  if (In.corrupt())
    DrainSeen = true;

  // Report status when it changed: eagerly when quiescent (termination
  // detection is waiting on it), rate-limited while busy.
  StatsReportMsg Report;
  Report.ShardId = Id;
  Report.Idle = Status.Idle;
  Report.Failed = Status.Failed;
  Report.Exhausted = Status.Exhausted;
  Report.Expanded = Status.Expanded;
  Report.SentConfigs = Status.SentConfigs;
  Report.RecvConfigs = Status.RecvConfigs;
  Report.SentBatches = SentBatches;
  Report.SentBytes = SentBytes;
  Report.SuppressedSends = Status.SuppressedSends;
  auto Now = std::chrono::steady_clock::now();
  bool Changed = !Reported || !(Report == LastReport);
  bool Due = !Reported || Report.Idle || Report.Failed || Report.Exhausted ||
             Now - LastReportTime >= ReportInterval;
  if (Changed && Due && !DrainSeen) {
    writeAll(frameStats(Report));
    LastReport = Report;
    Reported = true;
    LastReportTime = Now;
  }

  if (DrainSeen)
    return DrainExhausted ? ShardCommand::DrainExhausted
                          : ShardCommand::Drain;
  return ShardCommand::Continue;
}

VerdictMsg SocketShardIo::makeVerdict(const RunResult &R) const {
  VerdictMsg V;
  V.ShardId = Id;
  V.Safe = R.Safe;
  V.Exhausted = R.Exhausted;
  V.FailureNote = R.FailureNote;
  V.FailureTrace = R.FailureTrace;
  V.Terminals = R.Terminals;
  V.ConfigsExplored = R.ConfigsExplored;
  V.ActionSteps = R.ActionSteps;
  V.EnvSteps = R.EnvSteps;
  V.DedupHits = R.DedupHits;
  V.VisitedNodes = R.VisitedNodes;
  V.VisitedBytes = R.VisitedBytes;
  V.FrontierAtAbort = R.FrontierAtAbort;
  // The engine's exchange counters live in its status snapshots; the last
  // reported one is exact once the fleet has quiesced (stats only).
  V.SentConfigs = LastReport.SentConfigs;
  V.RecvConfigs = LastReport.RecvConfigs;
  V.SentBatches = SentBatches;
  V.SentBytes = SentBytes;
  V.SuppressedSends = LastReport.SuppressedSends;
  for (const Outbox &O : Out)
    V.DictNodes += O.Dict.size();
  V.DictDefBytes = DictDefBytes;
  V.DictRefBytes = DictRefBytes;
  return V;
}

void SocketShardIo::sendCacheDelta(const CacheDeltaMsg &M) {
  if (M.Records.empty())
    return;
  writeAll(frameCacheDelta(M));
}

void SocketShardIo::sendVerdict(const VerdictMsg &M) {
  flushAll();
  writeAll(frameVerdict(M));
}
