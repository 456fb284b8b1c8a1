//===- tests/dist_test.cpp - Service frame protocol tests ------------------===//
//
// Part of fcsl-cpp. Checks src/dist: the frame protocol must round-trip
// every message type through arbitrarily chunked streams, reject
// malformed frames (the retired tags of the sharded exploration among
// them) and classify unknown ones; the entry points the retired sharded
// exploration left behind must run the in-process engine. Part of the
// ASan stage of scripts/verify.sh.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Wire.h"

#include "graph/GraphGen.h"
#include "structures/SpanTree.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

using namespace fcsl;
using namespace fcsl::dist;

namespace {

/// Feeds a wire frame to a FrameBuffer in chunks of \p ChunkSize bytes and
/// decodes the reassembled payload.
std::optional<WireMsg> throughBuffer(const std::vector<uint8_t> &Frame,
                                     size_t ChunkSize) {
  FrameBuffer In;
  for (size_t I = 0; I < Frame.size(); I += ChunkSize) {
    size_t N = std::min(ChunkSize, Frame.size() - I);
    In.feed(Frame.data() + I, N);
  }
  EXPECT_FALSE(In.corrupt());
  std::optional<std::vector<uint8_t>> Payload = In.next();
  if (!Payload)
    return std::nullopt;
  EXPECT_EQ(In.next(), std::nullopt) << "one frame in, one frame out";
  return decodeFrame(*Payload);
}

SessionReport sampleReport() {
  SessionReport R;
  R.Program = "ticket_lock";
  R.AllPassed = false;
  for (int I = 0; I != 5; ++I) {
    R.PerCategory[I].Obligations = 3 + I;
    R.PerCategory[I].Checks = 100 * I + 7;
    R.PerCategory[I].ElapsedMs = 1.5 * I;
  }
  R.TotalMs = 123.25;
  R.Failures = {"ticket_lock/unlock: stability violated"};
  R.Cache.Hits = 4;
  R.Cache.Misses = 2;
  R.Cache.Stores = 2;
  R.Cache.ReplayedChecks = 321;
  R.Cache.ReplayedUs = 17;
  return R;
}

} // namespace

TEST(DistWire, RoundTripsEveryMessageType) {
  // Reassembly must not depend on chunking: byte-by-byte, odd chunks, and
  // one whole write all yield the same frame. ServiceFramesRoundTrip
  // repeats this with every field of the service bodies set.
  HelloMsg Hello;
  Hello.Id = 2;
  const std::pair<std::vector<uint8_t>, MsgType> Frames[] = {
      {frameHello(Hello), MsgType::Hello},
      {frameSubmitSession(SubmitSessionMsg{}), MsgType::SubmitSession},
      {frameProgress(ProgressMsg{}), MsgType::Progress},
      {frameReport(ReportMsg{}), MsgType::Report},
      {frameCacheStats(CacheStatsMsg{}), MsgType::CacheStats},
      {frameShutdown(ShutdownMsg{}), MsgType::Shutdown},
  };
  for (size_t Chunk : {size_t{1}, size_t{7}, size_t{1 << 20}})
    for (const auto &[Frame, Type] : Frames) {
      std::optional<WireMsg> M = throughBuffer(Frame, Chunk);
      ASSERT_TRUE(M);
      EXPECT_EQ(M->Type, Type);
      if (Type == MsgType::Hello) {
        EXPECT_EQ(M->Hello, Hello);
      }
    }
}

TEST(DistWire, InterleavedFramesComeOutInOrder) {
  HelloMsg Hello;
  Hello.Id = 7;
  std::vector<uint8_t> Stream = frameHello(Hello);
  std::vector<uint8_t> Second = frameShutdown(ShutdownMsg{});
  Stream.insert(Stream.end(), Second.begin(), Second.end());

  FrameBuffer In;
  // Split in the middle of the second frame's length prefix.
  size_t Cut = frameHello(Hello).size() + 2;
  In.feed(Stream.data(), Cut);
  std::optional<std::vector<uint8_t>> P1 = In.next();
  ASSERT_TRUE(P1);
  EXPECT_EQ(In.next(), std::nullopt);
  In.feed(Stream.data() + Cut, Stream.size() - Cut);
  std::optional<std::vector<uint8_t>> P2 = In.next();
  ASSERT_TRUE(P2);

  std::optional<WireMsg> M1 = decodeFrame(*P1);
  std::optional<WireMsg> M2 = decodeFrame(*P2);
  ASSERT_TRUE(M1 && M2);
  EXPECT_EQ(M1->Type, MsgType::Hello);
  EXPECT_EQ(M1->Hello, Hello);
  EXPECT_EQ(M2->Type, MsgType::Shutdown);
}

TEST(DistWire, RejectsMalformedFrames) {
  // Truncation anywhere in the payload must fail the decode, not crash.
  ReportMsg Rep;
  Rep.Report = sampleReport();
  std::vector<uint8_t> Frame = frameReport(Rep);
  std::vector<uint8_t> Payload(Frame.begin() + 4, Frame.end());
  for (size_t Len : {size_t{0}, size_t{3}, Payload.size() - 1})
    EXPECT_EQ(decodeFrame(std::vector<uint8_t>(Payload.begin(),
                                               Payload.begin() + Len)),
              std::nullopt)
        << "truncated to " << Len;

  // Trailing garbage after a well-formed body.
  std::vector<uint8_t> Padded = Payload;
  Padded.push_back(0);
  EXPECT_EQ(decodeFrame(Padded), std::nullopt);

  // Unknown message tag (right after the codec header).
  std::vector<uint8_t> BadTag(Frame.begin() + 4, Frame.end());
  Encoder Hdr;
  encodeHeader(Hdr);
  BadTag[Hdr.buffer().size()] = 99;
  EXPECT_EQ(decodeFrame(BadTag), std::nullopt);

  // Wrong codec magic.
  std::vector<uint8_t> BadMagic = Payload;
  BadMagic[0] ^= 0xFF;
  EXPECT_EQ(decodeFrame(BadMagic), std::nullopt);
}

TEST(DistWire, ImplausibleLengthLatchesCorruption) {
  FrameBuffer In;
  Encoder E;
  E.u32(MaxFrameBytes + 1);
  std::vector<uint8_t> Bytes = E.take();
  In.feed(Bytes.data(), Bytes.size());
  EXPECT_EQ(In.next(), std::nullopt);
  EXPECT_TRUE(In.corrupt());

  // A partial length prefix is just "not yet", not corruption.
  FrameBuffer Fresh;
  uint8_t Two[2] = {1, 0};
  Fresh.feed(Two, 2);
  EXPECT_EQ(Fresh.next(), std::nullopt);
  EXPECT_FALSE(Fresh.corrupt());
}

TEST(DistWire, RetiredBatchTagIsMalformed) {
  // Tags 2 to 7 carried the retired sharded exploration's frames. A frame
  // with one of them is soundly framed, so the stream stays usable, but
  // no message owns the tag any more: every reader refuses it, and it is
  // malformed rather than a newer peer's unknown type.
  for (uint8_t Tag = 2; Tag <= 7; ++Tag) {
    SCOPED_TRACE(testing::Message() << "tag " << unsigned(Tag));
    Encoder Body;
    encodeHeader(Body);
    Body.u8(Tag);
    Body.u32(0);
    Body.u32(1);
    Encoder Frame;
    Frame.u32(static_cast<uint32_t>(Body.buffer().size()));
    Frame.raw(Body.buffer());
    std::vector<uint8_t> Bytes = Frame.take();
    FrameBuffer In;
    In.feed(Bytes.data(), Bytes.size());
    std::optional<std::vector<uint8_t>> Payload = In.next();
    ASSERT_TRUE(Payload);
    EXPECT_FALSE(In.corrupt());
    EXPECT_EQ(classifyFrame(*Payload), FrameClass::Malformed);
    EXPECT_EQ(decodeFrame(*Payload), std::nullopt);
  }
}

TEST(DistWire, ServiceFramesRoundTrip) {
  SubmitSessionMsg Submit;
  Submit.Session = "Ticketed lock";
  Submit.Por = 3;
  Submit.Symmetry = 2;
  Submit.Cache = 2;
  Submit.Jobs = 4;
  Submit.WantProgress = true;

  ProgressMsg Prog;
  Prog.Completed = 3;
  Prog.Total = 17;
  Prog.Category = 1;
  Prog.Name = "lock_acquire";
  Prog.Passed = true;
  Prog.FromCache = true;
  Prog.ElapsedUs = 0;

  ReportMsg Rep;
  Rep.Ok = true;
  Rep.ServedFromCache = true;
  Rep.ElapsedUs = 812;
  Rep.Report = sampleReport();

  CacheStatsMsg Stats;
  Stats.Query = false;
  Stats.RequestsServed = 12;
  Stats.SessionsRun = 2;
  Stats.ServedFromCache = 10;
  Stats.ObligationsReplayed = 170;
  Stats.Rejected = 1;
  Stats.UnknownFrames = 1;
  Stats.MalformedFrames = 2;
  Stats.StoreRecords = 99;
  Stats.StoreBytes = 4096;
  Stats.UptimeUs = 1000000;

  ShutdownMsg Shut;
  Shut.Ack = true;

  for (size_t Chunk : {size_t{1}, size_t{7}, size_t{1 << 20}}) {
    std::optional<WireMsg> M = throughBuffer(frameSubmitSession(Submit), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::SubmitSession);
    EXPECT_EQ(M->Submit, Submit);

    M = throughBuffer(frameProgress(Prog), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Progress);
    EXPECT_EQ(M->Prog, Prog);

    M = throughBuffer(frameReport(Rep), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Report);
    EXPECT_EQ(M->Rep, Rep);

    M = throughBuffer(frameCacheStats(Stats), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::CacheStats);
    EXPECT_EQ(M->CStats, Stats);

    M = throughBuffer(frameShutdown(Shut), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Shutdown);
    EXPECT_EQ(M->Shut, Shut);
  }
}

TEST(DistWire, ReportEqualityIsWireBitIdentity) {
  ReportMsg A;
  A.Report = sampleReport();
  ReportMsg B = A;
  EXPECT_EQ(A, B);
  B.Report.Cache.Hits++; // any payload drift must break equality.
  EXPECT_FALSE(A == B);
}

TEST(DistWire, ClassifiesFramesByHeaderAndTag) {
  // A well-formed known frame.
  std::vector<uint8_t> Frame = frameShutdown(ShutdownMsg{});
  std::vector<uint8_t> Payload(Frame.begin() + 4, Frame.end());
  EXPECT_EQ(classifyFrame(Payload), FrameClass::Known);

  // Valid header, tag one past the known range: well-framed but unknown.
  Encoder Hdr;
  encodeHeader(Hdr);
  std::vector<uint8_t> Unknown = Payload;
  Unknown[Hdr.buffer().size()] = MaxKnownMsgTag + 1;
  EXPECT_EQ(classifyFrame(Unknown), FrameClass::UnknownType);
  // decodeFrame still refuses it — classification never loosens decoding.
  EXPECT_EQ(decodeFrame(Unknown), std::nullopt);

  // A known-but-truncated body stays Known (classification reads only the
  // header and tag; the decode failure is the body's problem).
  std::vector<uint8_t> Truncated(Payload.begin(), Payload.end() - 1);
  EXPECT_EQ(classifyFrame(Truncated), FrameClass::Known);

  // Bad magic or an empty payload: malformed, the stream is untrusted.
  std::vector<uint8_t> BadMagic = Payload;
  BadMagic[0] ^= 0xFF;
  EXPECT_EQ(classifyFrame(BadMagic), FrameClass::Malformed);
  EXPECT_EQ(classifyFrame(std::vector<uint8_t>{}), FrameClass::Malformed);
}

namespace {

bool sameTerminals(const std::vector<Terminal> &A,
                   const std::vector<Terminal> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, N = A.size(); I != N; ++I)
    if (A[I] < B[I] || B[I] < A[I])
      return false;
  return true;
}

Heap diamondOf(unsigned Layers) {
  std::vector<GraphNode> Nodes;
  uint32_t Id = 1;
  for (unsigned L = 0; L < Layers; ++L) {
    Nodes.push_back(GraphNode{Ptr(Id), Ptr(Id + 1), Ptr(Id + 2)});
    Nodes.push_back(GraphNode{Ptr(Id + 1), Ptr(Id + 3), Ptr::null()});
    Nodes.push_back(GraphNode{Ptr(Id + 2), Ptr(Id + 3), Ptr::null()});
    Id += 3;
  }
  Nodes.push_back(GraphNode{Ptr(Id), Ptr::null(), Ptr::null()});
  return buildGraph(Nodes);
}

} // namespace

TEST(DistEngine, DistributedExploreRunsTheInProcessEngine) {
  // The retired fleet's entry point is kept for perfbench: at any shard
  // count it returns explore()'s verdict, terminals and counters, and it
  // starts no fleet.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState S0 = spanRootState(Case, diamondOf(2));
  RunResult Base = explore(Main, S0, Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  for (unsigned Shards : {2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << Shards);
    RunResult R = distributedExplore(Main, S0, Opts, {}, Shards);
    EXPECT_EQ(R.Safe, Base.Safe);
    EXPECT_EQ(R.Exhausted, Base.Exhausted);
    EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals));
    EXPECT_EQ(R.counters(), Base.counters());
  }
  EXPECT_EQ(fleetTotals().Fleets, 0u);
}

TEST(DistEngine, DirectCallReportsInProcessProvenance) {
  // A direct distributedExplore resolves its modes like explore(), since
  // it is explore(): a reduced call reports its resolved reduction (the
  // dynamic spelling reports On), never an unreduced run.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState GS = spanRootState(Case, diamondOf(1));
  for (PorMode Por : {PorMode::Off, PorMode::On, PorMode::Dynamic}) {
    for (SymMode Sym : {SymMode::Off, SymMode::On}) {
      Opts.Por = Por;
      Opts.Symmetry = Sym;
      RunResult Local = explore(Main, GS, Opts);
      RunResult Fleet = distributedExplore(Main, GS, Opts, {}, 2);
      std::string Tag = std::string("por=") + porModeName(Por) +
                        " symmetry=" + symModeName(Sym);
      EXPECT_EQ(Fleet.Reduction.Por, resolveModes(Por, Sym).Por) << Tag;
      EXPECT_EQ(Fleet.Reduction.Sym, Sym) << Tag;
      EXPECT_EQ(Fleet.Reduction.Por, Local.Reduction.Por) << Tag;
      EXPECT_EQ(Fleet.Reduction.Sym, Local.Reduction.Sym) << Tag;
      EXPECT_FALSE(Fleet.Reduction.Oracle.Ran) << Tag;
      EXPECT_EQ(Fleet.ConfigsExplored, Local.ConfigsExplored) << Tag;
    }
  }
}
