//===- dist/Wire.cpp - Frame protocol for sharded exploration --------------===//
//
// Part of fcsl-cpp. See Wire.h for the interface and frame layout.
//
//===----------------------------------------------------------------------===//

#include "dist/Wire.h"

using namespace fcsl;
using namespace fcsl::dist;

void dist::setDistCompress(bool) {}

namespace {

/// The tag of the retired standalone frontier batch (see MsgType).
constexpr uint8_t RetiredBatchTag = 2;

/// A tag decodeFrame has a body layout for.
bool knownTag(uint8_t Tag) {
  return Tag >= static_cast<uint8_t>(MsgType::Hello) &&
         Tag <= MaxKnownMsgTag && Tag != RetiredBatchTag;
}

Encoder startFrame(MsgType T) {
  Encoder E;
  encodeHeader(E);
  E.u8(static_cast<uint8_t>(T));
  return E;
}

std::vector<uint8_t> finishFrame(Encoder &&E) {
  std::vector<uint8_t> Payload = E.take();
  std::vector<uint8_t> Frame;
  Frame.reserve(4 + Payload.size());
  uint32_t N = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I != 4; ++I)
    Frame.push_back(static_cast<uint8_t>(N >> (8 * I)));
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

void encodeBlob(Encoder &E, const std::vector<uint8_t> &Blob) {
  E.u32(static_cast<uint32_t>(Blob.size()));
  for (uint8_t B : Blob)
    E.u8(B);
}

std::vector<uint8_t> decodeBlob(Decoder &D) {
  std::string S = D.str();
  return std::vector<uint8_t>(S.begin(), S.end());
}

} // namespace

std::vector<uint8_t> dist::frameHello(const HelloMsg &M) {
  Encoder E = startFrame(MsgType::Hello);
  E.u32(M.ShardId);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameBatch(const FrontierBatchMsg &M) {
  Encoder E = startFrame(MsgType::FrontierBatchDict);
  E.u32(M.Dest);
  E.u32(M.Src);
  E.u32(static_cast<uint32_t>(M.Configs.size()));
  for (size_t I = 0, N = M.Configs.size(); I != N; ++I)
    E.u64(I < M.Fps.size() ? M.Fps[I] : 0);
  encodeBlob(E, M.Defs);
  for (const std::vector<uint8_t> &C : M.Configs)
    encodeBlob(E, C);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameStats(const StatsReportMsg &M) {
  Encoder E = startFrame(MsgType::StatsReport);
  E.u32(M.ShardId);
  E.u8(M.Idle);
  E.u8(M.Failed);
  E.u8(M.Exhausted);
  E.u64(M.Expanded);
  E.u64(M.SentConfigs);
  E.u64(M.RecvConfigs);
  E.u64(M.SentBatches);
  E.u64(M.SentBytes);
  E.u64(M.SuppressedSends);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameDrain(const DrainMsg &M) {
  Encoder E = startFrame(MsgType::Drain);
  E.u8(M.Exhausted);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameVerdict(const VerdictMsg &M) {
  Encoder E = startFrame(MsgType::Verdict);
  E.u32(M.ShardId);
  E.u8(M.Safe);
  E.u8(M.Exhausted);
  E.str(M.FailureNote);
  E.u32(static_cast<uint32_t>(M.FailureTrace.size()));
  for (const std::string &S : M.FailureTrace)
    E.str(S);
  E.u32(static_cast<uint32_t>(M.Terminals.size()));
  for (const Terminal &T : M.Terminals) {
    encode(E, T.Result);
    encode(E, T.FinalView);
  }
  E.u64(M.ConfigsExplored);
  E.u64(M.ActionSteps);
  E.u64(M.EnvSteps);
  E.u64(M.DedupHits);
  E.u64(M.VisitedNodes);
  E.u64(M.VisitedBytes);
  E.u64(M.FrontierAtAbort);
  E.u64(M.SentConfigs);
  E.u64(M.RecvConfigs);
  E.u64(M.SentBatches);
  E.u64(M.SentBytes);
  E.u64(M.SuppressedSends);
  E.u64(M.DictNodes);
  E.u64(M.DictDefBytes);
  E.u64(M.DictRefBytes);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameCacheDelta(const CacheDeltaMsg &M) {
  Encoder E = startFrame(MsgType::CacheDelta);
  E.u32(M.ShardId);
  E.u32(cache::CacheRecordVersion);
  E.u32(static_cast<uint32_t>(M.Records.size()));
  for (const cache::CacheRecord &R : M.Records)
    cache::encode(E, R);
  return finishFrame(std::move(E));
}

namespace fcsl {
namespace dist {

bool operator==(const ReportMsg &A, const ReportMsg &B) {
  // Reports compare through the codec: two reports are equal exactly when
  // they are bit-identical on the wire, which is the service's contract.
  Encoder EA, EB;
  encode(EA, A.Report);
  encode(EB, B.Report);
  return A.Ok == B.Ok && A.Error == B.Error &&
         A.ServedFromCache == B.ServedFromCache &&
         A.ElapsedUs == B.ElapsedUs && EA.take() == EB.take();
}

} // namespace dist
} // namespace fcsl

std::vector<uint8_t> dist::frameSubmitSession(const SubmitSessionMsg &M) {
  Encoder E = startFrame(MsgType::SubmitSession);
  E.str(M.Session);
  E.u8(M.Por);
  E.u8(M.Symmetry);
  E.u8(M.Cache);
  E.u32(M.Jobs);
  E.u8(M.WantProgress);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameProgress(const ProgressMsg &M) {
  Encoder E = startFrame(MsgType::Progress);
  E.u32(M.Completed);
  E.u32(M.Total);
  E.u8(M.Category);
  E.str(M.Name);
  E.u8(M.Passed);
  E.u8(M.FromCache);
  E.u64(M.ElapsedUs);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameReport(const ReportMsg &M) {
  Encoder E = startFrame(MsgType::Report);
  E.u8(M.Ok);
  E.str(M.Error);
  E.u8(M.ServedFromCache);
  E.u64(M.ElapsedUs);
  encode(E, M.Report);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameCacheStats(const CacheStatsMsg &M) {
  Encoder E = startFrame(MsgType::CacheStats);
  E.u8(M.Query);
  E.u64(M.RequestsServed);
  E.u64(M.SessionsRun);
  E.u64(M.ServedFromCache);
  E.u64(M.ObligationsReplayed);
  E.u64(M.Rejected);
  E.u64(M.UnknownFrames);
  E.u64(M.MalformedFrames);
  E.u64(M.StoreRecords);
  E.u64(M.StoreBytes);
  E.u64(M.UptimeUs);
  return finishFrame(std::move(E));
}

std::vector<uint8_t> dist::frameShutdown(const ShutdownMsg &M) {
  Encoder E = startFrame(MsgType::Shutdown);
  E.u8(M.Ack);
  return finishFrame(std::move(E));
}

std::optional<WireMsg> dist::decodeFrame(const std::vector<uint8_t> &Payload) {
  Decoder D(Payload);
  if (!decodeHeader(D))
    return std::nullopt;
  uint8_t Tag = D.u8();
  if (!knownTag(Tag))
    return std::nullopt;
  WireMsg M;
  M.Type = static_cast<MsgType>(Tag);
  switch (M.Type) {
  case MsgType::Hello:
    M.Hello.ShardId = D.u32();
    break;
  case MsgType::FrontierBatchDict: {
    M.Batch.Dest = D.u32();
    M.Batch.Src = D.u32();
    uint32_t Count = D.u32();
    if (static_cast<uint64_t>(Count) * 8 > D.remaining()) {
      D.fail(); // Implausible count: don't reserve gigabytes.
      break;
    }
    for (uint32_t I = 0; I != Count && !D.failed(); ++I)
      M.Batch.Fps.push_back(D.u64());
    M.Batch.Defs = decodeBlob(D);
    for (uint32_t I = 0; I != Count && !D.failed(); ++I)
      M.Batch.Configs.push_back(decodeBlob(D));
    break;
  }
  case MsgType::StatsReport:
    M.Stats.ShardId = D.u32();
    M.Stats.Idle = D.u8() != 0;
    M.Stats.Failed = D.u8() != 0;
    M.Stats.Exhausted = D.u8() != 0;
    M.Stats.Expanded = D.u64();
    M.Stats.SentConfigs = D.u64();
    M.Stats.RecvConfigs = D.u64();
    M.Stats.SentBatches = D.u64();
    M.Stats.SentBytes = D.u64();
    M.Stats.SuppressedSends = D.u64();
    break;
  case MsgType::Drain:
    M.Drain.Exhausted = D.u8() != 0;
    break;
  case MsgType::Verdict: {
    M.Verdict.ShardId = D.u32();
    M.Verdict.Safe = D.u8() != 0;
    M.Verdict.Exhausted = D.u8() != 0;
    M.Verdict.FailureNote = D.str();
    uint32_t NumTrace = D.u32();
    for (uint32_t I = 0; I != NumTrace && !D.failed(); ++I)
      M.Verdict.FailureTrace.push_back(D.str());
    uint32_t NumTerm = D.u32();
    for (uint32_t I = 0; I != NumTerm && !D.failed(); ++I) {
      Terminal T;
      T.Result = decodeVal(D);
      T.FinalView = decodeView(D);
      M.Verdict.Terminals.push_back(std::move(T));
    }
    M.Verdict.ConfigsExplored = D.u64();
    M.Verdict.ActionSteps = D.u64();
    M.Verdict.EnvSteps = D.u64();
    M.Verdict.DedupHits = D.u64();
    M.Verdict.VisitedNodes = D.u64();
    M.Verdict.VisitedBytes = D.u64();
    M.Verdict.FrontierAtAbort = D.u64();
    M.Verdict.SentConfigs = D.u64();
    M.Verdict.RecvConfigs = D.u64();
    M.Verdict.SentBatches = D.u64();
    M.Verdict.SentBytes = D.u64();
    M.Verdict.SuppressedSends = D.u64();
    M.Verdict.DictNodes = D.u64();
    M.Verdict.DictDefBytes = D.u64();
    M.Verdict.DictRefBytes = D.u64();
    break;
  }
  case MsgType::CacheDelta: {
    M.Delta.ShardId = D.u32();
    if (D.u32() != cache::CacheRecordVersion)
      return std::nullopt; // Foreign record layout: drop the whole delta.
    uint32_t Count = D.u32();
    for (uint32_t I = 0; I != Count && !D.failed(); ++I)
      M.Delta.Records.push_back(cache::decodeCacheRecord(D));
    break;
  }
  case MsgType::SubmitSession:
    M.Submit.Session = D.str();
    M.Submit.Por = D.u8();
    M.Submit.Symmetry = D.u8();
    M.Submit.Cache = D.u8();
    M.Submit.Jobs = D.u32();
    M.Submit.WantProgress = D.u8() != 0;
    break;
  case MsgType::Progress:
    M.Prog.Completed = D.u32();
    M.Prog.Total = D.u32();
    M.Prog.Category = D.u8();
    M.Prog.Name = D.str();
    M.Prog.Passed = D.u8() != 0;
    M.Prog.FromCache = D.u8() != 0;
    M.Prog.ElapsedUs = D.u64();
    break;
  case MsgType::Report:
    M.Rep.Ok = D.u8() != 0;
    M.Rep.Error = D.str();
    M.Rep.ServedFromCache = D.u8() != 0;
    M.Rep.ElapsedUs = D.u64();
    M.Rep.Report = decodeSessionReport(D);
    break;
  case MsgType::CacheStats:
    M.CStats.Query = D.u8() != 0;
    M.CStats.RequestsServed = D.u64();
    M.CStats.SessionsRun = D.u64();
    M.CStats.ServedFromCache = D.u64();
    M.CStats.ObligationsReplayed = D.u64();
    M.CStats.Rejected = D.u64();
    M.CStats.UnknownFrames = D.u64();
    M.CStats.MalformedFrames = D.u64();
    M.CStats.StoreRecords = D.u64();
    M.CStats.StoreBytes = D.u64();
    M.CStats.UptimeUs = D.u64();
    break;
  case MsgType::Shutdown:
    M.Shut.Ack = D.u8() != 0;
    break;
  }
  if (D.failed() || !D.atEnd())
    return std::nullopt;
  return M;
}

std::optional<MsgType> dist::peekFrameTag(const std::vector<uint8_t> &Payload) {
  Decoder D(Payload);
  if (!decodeHeader(D))
    return std::nullopt;
  uint8_t Tag = D.u8();
  if (D.failed() || !knownTag(Tag))
    return std::nullopt;
  return static_cast<MsgType>(Tag);
}

FrameClass dist::classifyFrame(const std::vector<uint8_t> &Payload) {
  Decoder D(Payload);
  if (!decodeHeader(D))
    return FrameClass::Malformed;
  uint8_t Tag = D.u8();
  // Tag 2 is not a newer peer's message: no protocol version assigns it
  // any more, so a frame carrying it is malformed.
  if (D.failed() || Tag == RetiredBatchTag)
    return FrameClass::Malformed;
  if (Tag < static_cast<uint8_t>(MsgType::Hello) || Tag > MaxKnownMsgTag)
    return FrameClass::UnknownType;
  return FrameClass::Known;
}

std::optional<BatchPeek> dist::peekBatch(const std::vector<uint8_t> &Payload) {
  Decoder D(Payload);
  if (!decodeHeader(D))
    return std::nullopt;
  if (D.u8() != static_cast<uint8_t>(MsgType::FrontierBatchDict))
    return std::nullopt;
  BatchPeek P;
  P.Dest = D.u32();
  P.Src = D.u32();
  uint32_t Count = D.u32();
  if (D.failed() || static_cast<uint64_t>(Count) * 8 > D.remaining())
    return std::nullopt;
  for (uint32_t I = 0; I != Count && !D.failed(); ++I)
    P.Fps.push_back(D.u64());
  if (D.failed())
    return std::nullopt;
  return P;
}

std::vector<uint8_t>
dist::frameFromPayload(const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Frame;
  Frame.reserve(4 + Payload.size());
  uint32_t N = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I != 4; ++I)
    Frame.push_back(static_cast<uint8_t>(N >> (8 * I)));
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

void FrameBuffer::feed(const uint8_t *Data, size_t N) {
  if (Corrupt)
    return;
  Buf.insert(Buf.end(), Data, Data + N);
}

std::optional<std::vector<uint8_t>> FrameBuffer::next() {
  if (Corrupt)
    return std::nullopt;
  size_t Avail = Buf.size() - Consumed;
  if (Avail < 4)
    return std::nullopt;
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Buf[Consumed + I]) << (8 * I);
  if (Len > MaxFrameBytes) {
    Corrupt = true;
    return std::nullopt;
  }
  if (Avail - 4 < Len)
    return std::nullopt;
  std::vector<uint8_t> Payload(Buf.begin() + Consumed + 4,
                               Buf.begin() + Consumed + 4 + Len);
  Consumed += 4 + static_cast<size_t>(Len);
  // Compact once the consumed prefix dominates, so the buffer does not
  // grow without bound across a long exchange.
  if (Consumed == Buf.size()) {
    Buf.clear();
    Consumed = 0;
  } else if (Consumed > (1u << 20)) {
    Buf.erase(Buf.begin(), Buf.begin() + Consumed);
    Consumed = 0;
  }
  return Payload;
}
