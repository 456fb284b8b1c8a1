//===- dist/Wire.h - Frame protocol of the verification service -*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frame protocol of the verification service (src/service/, DESIGN.md
/// §15): length-prefixed frames over `support/Codec`. Every frame is a u32
/// little-endian payload length followed by the payload — the codec header
/// (magic + version), a message-type tag, and the typed body. Decoding is
/// fail-soft end to end: a malformed payload yields `std::nullopt`, never
/// a crash, and an implausible frame length latches the stream as corrupt.
///
/// Message flow over a client connection (client L, daemon S):
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

#include "spec/Session.h"
#include "support/Codec.h"

#include <optional>

namespace fcsl {
namespace dist {

enum class MsgType : uint8_t {
  Hello = 1,
  // 2 to 7 carried the frontier exchange of the retired sharded
  // exploration (DESIGN.md §10). They are never reused: a frame with one
  // of these tags is malformed (see classifyFrame).
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
/// The split matters for error handling: a malformed frame means the
/// stream cannot be trusted, while an unknown-but-well-framed type means a
/// versioned peer sent a message this build does not speak — the service
/// rejects that one frame loudly and keeps the connection.
enum class FrameClass : uint8_t {
  Malformed,   ///< bad codec header, no tag byte, or a retired tag.
  UnknownType, ///< valid header, tag 0 or above Shutdown.
  Known,       ///< valid header and a tag this build decodes.
};

/// Classifies a frame payload from its header and tag alone (the body is
/// not decoded — a Known frame can still fail decodeFrame on a truncated
/// body).
FrameClass classifyFrame(const std::vector<uint8_t> &Payload);

/// Does nothing. It once selected the frontier encoding of the retired
/// sharded exploration; it is kept only because perfbench still calls it.
void setDistCompress(bool Enabled);

/// The service handshake, sent by each side once. The codec header is
/// the version guard; the body is one id neither side reads.
struct HelloMsg {
  uint32_t Id = 0;

  friend bool operator==(const HelloMsg &A, const HelloMsg &B) {
    return A.Id == B.Id;
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
std::vector<uint8_t> frameSubmitSession(const SubmitSessionMsg &M);
std::vector<uint8_t> frameProgress(const ProgressMsg &M);
std::vector<uint8_t> frameReport(const ReportMsg &M);
std::vector<uint8_t> frameCacheStats(const CacheStatsMsg &M);
std::vector<uint8_t> frameShutdown(const ShutdownMsg &M);

/// Decodes one frame payload (the bytes after the length prefix).
/// Returns nullopt on any malformation: bad header, unknown type tag,
/// truncated body, or trailing garbage.
std::optional<WireMsg> decodeFrame(const std::vector<uint8_t> &Payload);

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
