//===- dist/Wire.h - Frame protocol for sharded exploration -----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer of the multi-process sharded exploration (DESIGN.md
/// §10): a length-prefixed frame protocol over `support/Codec`. Every
/// frame is a u32 little-endian payload length followed by the payload —
/// the codec header (magic + version), a message-type tag, and the typed
/// body. Decoding is fail-soft end to end: a malformed payload yields
/// `std::nullopt`, never a crash, and an implausible frame length latches
/// the stream as corrupt.
///
/// Message flow (coordinator C, workers W0..Wn-1, one socket pair each):
///
///   W -> C   Hello              once, immediately after fork
///   W -> C   FrontierBatchDict  non-owned successors, addressed by shard
///   C -> W   FrontierBatchDict  relayed to the owning shard
///   W -> C   StatsReport        idle/failed/exhausted + sent/received counts
///   C -> W   Drain              stop exploring and report
///   W -> C   CacheDelta         obligation-cache records appended worker-side
///   W -> C   Verdict            the shard's RunResult, then exit
///
/// The verification service (src/service/, DESIGN.md §15) speaks the same
/// frame protocol over a client connection (client L, daemon S):
///
///   L -> S   Hello          handshake; the codec header is the version
///                           guard — a peer from another codec version
///                           fails decode and is rejected up front
///   S -> L   Hello          handshake acknowledgement
///   L -> S   SubmitSession  run a registered session under request flags
///   S -> L   Progress       one frame per completed obligation
///   S -> L   Report         the SessionReport (or a loud reject)
///   L -> S   CacheStats     query the daemon's serving counters
///   S -> L   CacheStats     the counters
///   L -> S   Shutdown       drain in-flight sessions and exit
///   S -> L   Shutdown       drained; the daemon is about to exit
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_DIST_WIRE_H
#define FCSL_DIST_WIRE_H

#include "cache/Store.h"
#include "prog/Engine.h"
#include "spec/Session.h"
#include "support/Codec.h"

#include <optional>

namespace fcsl {
namespace dist {

enum class MsgType : uint8_t {
  Hello = 1,
  // 2 was the standalone (dictionary-free) frontier batch. It is retired
  // but never reused: a tag-2 frame is malformed (see classifyFrame).
  StatsReport = 3,
  Drain = 4,
  Verdict = 5,
  CacheDelta = 6,
  /// A dictionary-compressed frontier batch (DESIGN.md §14): a routing
  /// envelope plus a NodeDef stream; config bodies are varint references
  /// into the sender's per-connection dictionary.
  FrontierBatchDict = 7,
  // -- Verification-service frames (src/service/, DESIGN.md §15) --
  SubmitSession = 8,
  Progress = 9,
  Report = 10,
  CacheStats = 11,
  Shutdown = 12,
};

/// The highest tag decodeFrame understands; anything above is an unknown
/// (but possibly well-framed) message from a newer peer.
inline constexpr uint8_t MaxKnownMsgTag =
    static_cast<uint8_t>(MsgType::Shutdown);

/// How a received frame payload classifies, *before* a full body decode.
/// The split matters for error handling (see the satellite contract in
/// dist_test.cpp): a malformed frame means the stream cannot be trusted,
/// while an unknown-but-well-framed type means a versioned peer sent a
/// message this build does not speak — the service path rejects that one
/// frame loudly and keeps the connection; the shard path surfaces it as a
/// malformed delivery so the run fails loudly instead of silently
/// dropping protocol traffic.
enum class FrameClass : uint8_t {
  Malformed,   ///< bad codec header, no tag byte, or the retired tag 2.
  UnknownType, ///< valid header, tag outside [Hello, Shutdown].
  Known,       ///< valid header and a tag this build decodes.
};

/// Classifies a frame payload from its header and tag alone (the body is
/// not decoded — a Known frame can still fail decodeFrame on a truncated
/// body).
FrameClass classifyFrame(const std::vector<uint8_t> &Payload);

/// Does nothing. The dictionary-compressed frontier encoding is the only
/// one; the switch that once selected a standalone encoding is kept so
/// existing callers still build.
void setDistCompress(bool Enabled);

/// Announces a worker's shard id on its channel.
struct HelloMsg {
  uint32_t ShardId = 0;

  friend bool operator==(const HelloMsg &A, const HelloMsg &B) {
    return A.ShardId == B.ShardId;
  }
};

/// A batch of encoded frontier configs sent by shard \p Src and addressed
/// to shard \p Dest, with one ownership fingerprint per config (so the
/// coordinator can dedup relays without decoding bodies). \p Defs carries
/// the NodeDef stream extending the (Src, Dest) connection dictionary and
/// each config blob is a NodeDictEncoder reference stream.
struct FrontierBatchMsg {
  uint32_t Dest = 0;
  uint32_t Src = 0;
  std::vector<uint64_t> Fps;
  std::vector<uint8_t> Defs;
  std::vector<std::vector<uint8_t>> Configs;

  friend bool operator==(const FrontierBatchMsg &A,
                         const FrontierBatchMsg &B) {
    return A.Dest == B.Dest && A.Src == B.Src && A.Fps == B.Fps &&
           A.Defs == B.Defs && A.Configs == B.Configs;
  }
};

/// A shard's status snapshot, feeding the coordinator's termination
/// detection (see Coordinator.h for the argument).
struct StatsReportMsg {
  uint32_t ShardId = 0;
  bool Idle = false;
  bool Failed = false;
  bool Exhausted = false;
  uint64_t Expanded = 0;
  uint64_t SentConfigs = 0;
  uint64_t RecvConfigs = 0;
  uint64_t SentBatches = 0;
  uint64_t SentBytes = 0;
  uint64_t SuppressedSends = 0;

  friend bool operator==(const StatsReportMsg &A, const StatsReportMsg &B) {
    return A.ShardId == B.ShardId && A.Idle == B.Idle &&
           A.Failed == B.Failed && A.Exhausted == B.Exhausted &&
           A.Expanded == B.Expanded && A.SentConfigs == B.SentConfigs &&
           A.RecvConfigs == B.RecvConfigs &&
           A.SentBatches == B.SentBatches && A.SentBytes == B.SentBytes &&
           A.SuppressedSends == B.SuppressedSends;
  }
};

/// Coordinator -> worker: stop exploring and send a Verdict. With
/// \p Exhausted set the fleet hit the config bound, so the worker reports
/// an incomplete run.
struct DrainMsg {
  bool Exhausted = false;

  friend bool operator==(const DrainMsg &A, const DrainMsg &B) {
    return A.Exhausted == B.Exhausted;
  }
};

/// A shard's final RunResult, flattened for the wire, plus its transport
/// statistics.
struct VerdictMsg {
  uint32_t ShardId = 0;
  bool Safe = true;
  bool Exhausted = false;
  std::string FailureNote;
  std::vector<std::string> FailureTrace;
  std::vector<Terminal> Terminals; ///< sorted ascending, like RunResult.
  uint64_t ConfigsExplored = 0;
  uint64_t ActionSteps = 0;
  uint64_t EnvSteps = 0;
  uint64_t DedupHits = 0;
  uint64_t VisitedNodes = 0;
  uint64_t VisitedBytes = 0;
  uint64_t FrontierAtAbort = 0;
  uint64_t SentConfigs = 0;
  uint64_t RecvConfigs = 0;
  uint64_t SentBatches = 0;
  uint64_t SentBytes = 0;
  uint64_t SuppressedSends = 0;
  uint64_t DictNodes = 0;    ///< distinct nodes in all send dictionaries.
  uint64_t DictDefBytes = 0; ///< definition-stream bytes shipped.
  uint64_t DictRefBytes = 0; ///< reference-stream bytes shipped.

  friend bool operator==(const VerdictMsg &A, const VerdictMsg &B) {
    if (A.Terminals.size() != B.Terminals.size())
      return false;
    for (size_t I = 0, N = A.Terminals.size(); I != N; ++I)
      if (A.Terminals[I] < B.Terminals[I] ||
          B.Terminals[I] < A.Terminals[I])
        return false;
    return A.ShardId == B.ShardId && A.Safe == B.Safe &&
           A.Exhausted == B.Exhausted &&
           A.FailureNote == B.FailureNote &&
           A.FailureTrace == B.FailureTrace &&
           A.ConfigsExplored == B.ConfigsExplored &&
           A.ActionSteps == B.ActionSteps && A.EnvSteps == B.EnvSteps &&
           A.DedupHits == B.DedupHits &&
           A.VisitedNodes == B.VisitedNodes &&
           A.VisitedBytes == B.VisitedBytes &&
           A.FrontierAtAbort == B.FrontierAtAbort &&
           A.SentConfigs == B.SentConfigs &&
           A.RecvConfigs == B.RecvConfigs &&
           A.SentBatches == B.SentBatches && A.SentBytes == B.SentBytes &&
           A.SuppressedSends == B.SuppressedSends &&
           A.DictNodes == B.DictNodes &&
           A.DictDefBytes == B.DictDefBytes &&
           A.DictRefBytes == B.DictRefBytes;
  }
};

/// Obligation-cache records a worker appended during its run, shipped to
/// the coordinator before the Verdict so the fleet shares one store (the
/// coordinator merges them into its own). The body carries the cache
/// record format version: a delta from a worker running a different
/// record layout decodes as empty, never as garbage records.
struct CacheDeltaMsg {
  uint32_t ShardId = 0;
  std::vector<cache::CacheRecord> Records;

  friend bool operator==(const CacheDeltaMsg &A, const CacheDeltaMsg &B) {
    return A.ShardId == B.ShardId && A.Records == B.Records;
  }
};

//===----------------------------------------------------------------------===//
// Verification-service frames (src/service/, DESIGN.md §15)
//===----------------------------------------------------------------------===//

/// Client -> daemon: run one registered session. The engine-relevant
/// request flags resolve into the same ObligationKey flag fingerprint the
/// cache uses (spec/Session.h engineFlagsFingerprintFor), so a request's
/// verdicts share the store with direct `fcsl-verify` runs under the same
/// modes. Mode bytes carry the raw enum values; `Default` (0) means "use
/// the daemon's startup default".
struct SubmitSessionMsg {
  std::string Session;          ///< registered case-study name.
  uint8_t Por = 0;              ///< PorMode, Default = daemon default.
  uint8_t Symmetry = 0;         ///< SymMode, Default = daemon default.
  uint8_t Cache = 0;            ///< cache::CacheMode, Default = daemon's.
  uint32_t Jobs = 0;            ///< discharge workers, 0 = daemon default.
  bool WantProgress = false;    ///< stream Progress frames while running.

  friend bool operator==(const SubmitSessionMsg &A,
                         const SubmitSessionMsg &B) {
    return A.Session == B.Session && A.Por == B.Por &&
           A.Symmetry == B.Symmetry && A.Cache == B.Cache &&
           A.Jobs == B.Jobs && A.WantProgress == B.WantProgress;
  }
};

/// Daemon -> client: one obligation of the submitted session completed.
/// Completion order follows the scheduler, not registration order (the
/// final Report aggregates in registration order regardless).
struct ProgressMsg {
  uint32_t Completed = 0; ///< completion ordinal, 1-based.
  uint32_t Total = 0;     ///< total obligations in the session.
  uint8_t Category = 0;   ///< ObCategory raw value.
  std::string Name;       ///< obligation name.
  bool Passed = true;
  bool FromCache = false; ///< replayed from the store, not discharged.
  uint64_t ElapsedUs = 0; ///< discharge time (0 for replayed hits).

  friend bool operator==(const ProgressMsg &A, const ProgressMsg &B) {
    return A.Completed == B.Completed && A.Total == B.Total &&
           A.Category == B.Category && A.Name == B.Name &&
           A.Passed == B.Passed && A.FromCache == B.FromCache &&
           A.ElapsedUs == B.ElapsedUs;
  }
};

/// Daemon -> client: the outcome of a request. With Ok false the request
/// was rejected (unknown session, unknown frame type, draining daemon,
/// full queue, malformed body) and Error names the reason loudly; the
/// SessionReport is meaningful only when Ok.
struct ReportMsg {
  bool Ok = true;
  std::string Error;
  bool ServedFromCache = false; ///< whole session answered by the warm
                                ///< fast path; the engine never ran.
  uint64_t ElapsedUs = 0;       ///< daemon-side handling time.
  SessionReport Report;

  friend bool operator==(const ReportMsg &A, const ReportMsg &B);
};

/// Daemon serving counters; the client sends one with Query set as the
/// request, the daemon answers with the fields filled. ServedFromCache /
/// SessionsRun are what the verify.sh service stage asserts on: a warm
/// corpus must be all fast-path serves with zero engine sessions.
struct CacheStatsMsg {
  bool Query = false;             ///< true on the client->daemon request.
  uint64_t RequestsServed = 0;    ///< submits answered with a Report.
  uint64_t SessionsRun = 0;       ///< sessions dispatched to the engine.
  uint64_t ServedFromCache = 0;   ///< sessions served by the warm fast path.
  uint64_t ObligationsReplayed = 0; ///< store hits inside fast-path serves.
  uint64_t Rejected = 0;          ///< loud rejects (any reason).
  uint64_t UnknownFrames = 0;     ///< unknown-type frames rejected.
  uint64_t MalformedFrames = 0;   ///< malformed/truncated frames seen.
  uint64_t StoreRecords = 0;      ///< records in the daemon's store.
  uint64_t StoreBytes = 0;        ///< bytes of the daemon's store log.
  uint64_t UptimeUs = 0;          ///< daemon uptime at answer time.

  friend bool operator==(const CacheStatsMsg &A, const CacheStatsMsg &B) {
    return A.Query == B.Query && A.RequestsServed == B.RequestsServed &&
           A.SessionsRun == B.SessionsRun &&
           A.ServedFromCache == B.ServedFromCache &&
           A.ObligationsReplayed == B.ObligationsReplayed &&
           A.Rejected == B.Rejected &&
           A.UnknownFrames == B.UnknownFrames &&
           A.MalformedFrames == B.MalformedFrames &&
           A.StoreRecords == B.StoreRecords &&
           A.StoreBytes == B.StoreBytes && A.UptimeUs == B.UptimeUs;
  }
};

/// Graceful shutdown: the client's frame has Ack false; the daemon drains
/// every in-flight and queued session, then answers with Ack true and
/// exits its serve loop.
struct ShutdownMsg {
  bool Ack = false;

  friend bool operator==(const ShutdownMsg &A, const ShutdownMsg &B) {
    return A.Ack == B.Ack;
  }
};

/// A decoded frame: the type tag plus the matching body (the other bodies
/// stay default-constructed).
struct WireMsg {
  MsgType Type = MsgType::Hello;
  HelloMsg Hello;
  FrontierBatchMsg Batch;
  StatsReportMsg Stats;
  DrainMsg Drain;
  VerdictMsg Verdict;
  CacheDeltaMsg Delta;
  SubmitSessionMsg Submit;
  ProgressMsg Prog;
  ReportMsg Rep;
  CacheStatsMsg CStats;
  ShutdownMsg Shut;
};

/// Frames larger than this are treated as stream corruption, not as a
/// request to allocate gigabytes.
inline constexpr uint32_t MaxFrameBytes = 1u << 30;

// Each framer returns the complete wire frame: u32 length + payload.
std::vector<uint8_t> frameHello(const HelloMsg &M);
std::vector<uint8_t> frameBatch(const FrontierBatchMsg &M);
std::vector<uint8_t> frameStats(const StatsReportMsg &M);
std::vector<uint8_t> frameDrain(const DrainMsg &M);
std::vector<uint8_t> frameVerdict(const VerdictMsg &M);
std::vector<uint8_t> frameCacheDelta(const CacheDeltaMsg &M);
std::vector<uint8_t> frameSubmitSession(const SubmitSessionMsg &M);
std::vector<uint8_t> frameProgress(const ProgressMsg &M);
std::vector<uint8_t> frameReport(const ReportMsg &M);
std::vector<uint8_t> frameCacheStats(const CacheStatsMsg &M);
std::vector<uint8_t> frameShutdown(const ShutdownMsg &M);

/// Decodes one frame payload (the bytes after the length prefix).
/// Returns nullopt on any malformation: bad header, unknown type tag,
/// truncated body, or trailing garbage.
std::optional<WireMsg> decodeFrame(const std::vector<uint8_t> &Payload);

/// The frame's type tag, without decoding the body (header is still
/// validated). The coordinator uses this to relay batch frames as raw
/// bytes instead of re-expanding them.
std::optional<MsgType> peekFrameTag(const std::vector<uint8_t> &Payload);

/// A batch frame's routing envelope — dest, src, per-config ownership
/// fingerprints — read without touching the config bodies.
struct BatchPeek {
  uint32_t Dest = 0;
  uint32_t Src = 0;
  std::vector<uint64_t> Fps;
};
std::optional<BatchPeek> peekBatch(const std::vector<uint8_t> &Payload);

/// Wraps a frame payload back into a complete wire frame (length prefix +
/// payload) for raw relay.
std::vector<uint8_t> frameFromPayload(const std::vector<uint8_t> &Payload);

/// Reassembles frames from a byte stream delivered in arbitrary chunks.
/// feed() appends bytes; next() yields the next complete frame payload,
/// or nullopt when none is buffered. An implausible length prefix
/// latches corrupt(): the stream cannot be resynchronized.
class FrameBuffer {
public:
  void feed(const uint8_t *Data, size_t N);
  std::optional<std::vector<uint8_t>> next();
  bool corrupt() const { return Corrupt; }

private:
  std::vector<uint8_t> Buf;
  size_t Consumed = 0;
  bool Corrupt = false;
};

} // namespace dist
} // namespace fcsl

#endif // FCSL_DIST_WIRE_H
