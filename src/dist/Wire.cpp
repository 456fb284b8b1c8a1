//===- dist/Wire.cpp - Frame protocol of the verification service ----------===//
//
// Part of fcsl-cpp. See Wire.h for the interface and frame layout.
//
//===----------------------------------------------------------------------===//

#include "dist/Wire.h"

using namespace fcsl;
using namespace fcsl::dist;

void dist::setDistCompress(bool) {}

namespace {

/// The tags of the retired sharded exploration's frames (see MsgType).
bool retiredTag(uint8_t Tag) {
  return Tag > static_cast<uint8_t>(MsgType::Hello) &&
         Tag < static_cast<uint8_t>(MsgType::SubmitSession);
}

/// A tag decodeFrame has a body layout for.
bool knownTag(uint8_t Tag) {
  return Tag >= static_cast<uint8_t>(MsgType::Hello) &&
         Tag <= MaxKnownMsgTag && !retiredTag(Tag);
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

} // namespace

std::vector<uint8_t> dist::frameHello(const HelloMsg &M) {
  Encoder E = startFrame(MsgType::Hello);
  E.u32(M.Id);
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
    M.Hello.Id = D.u32();
    break;
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

FrameClass dist::classifyFrame(const std::vector<uint8_t> &Payload) {
  Decoder D(Payload);
  if (!decodeHeader(D))
    return FrameClass::Malformed;
  uint8_t Tag = D.u8();
  // A retired tag is not a newer peer's message: no protocol version
  // assigns it any more, so a frame carrying it is malformed.
  if (D.failed() || retiredTag(Tag))
    return FrameClass::Malformed;
  if (Tag < static_cast<uint8_t>(MsgType::Hello) || Tag > MaxKnownMsgTag)
    return FrameClass::UnknownType;
  return FrameClass::Known;
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
