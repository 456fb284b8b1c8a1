//===- tests/dist_test.cpp - Multi-process sharded exploration tests -------===//
//
// Part of fcsl-cpp. Checks the src/dist subsystem: the wire protocol must
// round-trip every message type through arbitrarily chunked streams and
// reject malformed frames; the identity prefix of an encoded frontier
// config must exclude sleep footprints; distributedExplore() must return
// bit-identical verdicts, terminals and counters to the in-process engine
// at every shard count (with POR off and on); verification sessions run
// through the installed hook must agree with their in-process baseline;
// a crashed worker must fail the run loudly instead of hanging; and a
// shard must reject a received config whose indices do not resolve.
// Part of the ASan stage of scripts/verify.sh.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Shard.h"
#include "dist/Wire.h"

#include "cache/Store.h"
#include "spec/Session.h"
#include "structures/CgIncrement.h"
#include "structures/SpanTree.h"
#include "structures/SpinLock.h"
#include "structures/TicketLock.h"
#include "structures/TreiberStack.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <sys/socket.h>

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

View sampleView() {
  View S;
  S.addLabel(1, LabelSlice{PCMVal::ofHeap(Heap::singleton(
                               Ptr(4), Val::ofInt(7))),
                           Heap(), PCMVal::ofHeap(Heap())});
  S.addLabel(2, LabelSlice{PCMVal::ofNat(1),
                           Heap::singleton(Ptr(1), Val::ofBool(true)),
                           PCMVal::ofNat(2)});
  return S;
}

VerdictMsg sampleVerdict() {
  VerdictMsg V;
  V.ShardId = 3;
  V.Safe = false;
  V.Exhausted = true;
  V.FailureNote = "probe applied outside its safe states";
  V.FailureTrace = {"thread 1: incr -> 0", "thread 1: probe UNSAFE"};
  V.Terminals.push_back(Terminal{Val::ofInt(1), sampleView()});
  V.Terminals.push_back(Terminal{Val::ofInt(2), sampleView()});
  V.ConfigsExplored = 101;
  V.ActionSteps = 55;
  V.EnvSteps = 17;
  V.DedupHits = 9;
  V.VisitedNodes = 101;
  V.VisitedBytes = 4096;
  V.FrontierAtAbort = 5;
  V.SentConfigs = 40;
  V.RecvConfigs = 38;
  V.SentBatches = 6;
  V.SentBytes = 3000;
  V.SuppressedSends = 4;
  V.DictNodes = 123;
  V.DictDefBytes = 456;
  V.DictRefBytes = 78;
  return V;
}

} // namespace

TEST(DistWire, RoundTripsEveryMessageType) {
  HelloMsg Hello;
  Hello.ShardId = 2;
  FrontierBatchMsg Batch;
  Batch.Dest = 1;
  Batch.Src = 0;
  Batch.Fps = {11, 0, 0x1234567890abcdef};
  Batch.Defs = {9, 8, 7, 6};
  Batch.Configs = {{1, 2, 3}, {}, {0xFF, 0x00, 0x7F}};
  StatsReportMsg Stats;
  Stats.ShardId = 1;
  Stats.Idle = true;
  Stats.Expanded = 12;
  Stats.SentConfigs = 3;
  Stats.RecvConfigs = 4;
  Stats.SentBatches = 2;
  Stats.SentBytes = 512;
  Stats.SuppressedSends = 6;
  DrainMsg Drain;
  Drain.Exhausted = true;
  VerdictMsg Verdict = sampleVerdict();

  // Reassembly must not depend on chunking: byte-by-byte, odd chunks, and
  // one whole write all yield the same frame.
  for (size_t Chunk : {size_t{1}, size_t{7}, size_t{1 << 20}}) {
    std::optional<WireMsg> M = throughBuffer(frameHello(Hello), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Hello);
    EXPECT_EQ(M->Hello, Hello);

    M = throughBuffer(frameBatch(Batch), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::FrontierBatchDict);
    EXPECT_EQ(M->Batch, Batch);

    M = throughBuffer(frameStats(Stats), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::StatsReport);
    EXPECT_EQ(M->Stats, Stats);

    M = throughBuffer(frameDrain(Drain), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Drain);
    EXPECT_EQ(M->Drain, Drain);

    M = throughBuffer(frameVerdict(Verdict), Chunk);
    ASSERT_TRUE(M);
    EXPECT_EQ(M->Type, MsgType::Verdict);
    EXPECT_EQ(M->Verdict, Verdict);
  }
}

TEST(DistWire, InterleavedFramesComeOutInOrder) {
  HelloMsg Hello;
  Hello.ShardId = 7;
  DrainMsg Drain;
  std::vector<uint8_t> Stream = frameHello(Hello);
  std::vector<uint8_t> Second = frameDrain(Drain);
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
  EXPECT_EQ(M2->Type, MsgType::Drain);
}

TEST(DistWire, RejectsMalformedFrames) {
  // Truncation anywhere in the payload must fail the decode, not crash.
  std::vector<uint8_t> Frame = frameVerdict(sampleVerdict());
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

namespace {

GlobalState smallState() {
  GlobalState GS;
  GS.addLabel(1, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(2, PCMType::nat(), Heap::singleton(Ptr(1), Val::ofInt(0)),
              PCMVal::ofNat(0), /*EnvClosed=*/false);
  return GS;
}

FrontierConfig smallConfig() {
  FrontierConfig C;
  C.GS = smallState();
  FrontierThread T;
  T.Id = 1;
  FrontierFrame F;
  F.Kind = 0;
  F.Node = 3;
  F.Env = {{"x", Val::ofInt(5)}};
  T.Frames.push_back(F);
  C.Threads.push_back(T);
  FrontierSleep S;
  S.IsEnv = false;
  S.T = 1;
  S.ActNode = 4;
  S.Fp = Footprint::none().read(FpAtom::selfAux(1));
  C.Sleep.push_back(S);
  C.EnvCloseMask = 0x3;
  return C;
}

} // namespace

TEST(DistWire, MalformedDictionaryReferenceIsSurfaced) {
  // A dict batch whose second config references past the end of the
  // connection dictionary: the transport must deliver the good config,
  // flag the bad one as Malformed (so the engine fails the run loudly),
  // and never crash.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  {
    SocketShardIo Io(Fds[0], /*ShardId=*/0, /*NShards=*/2);
    NodeDictEncoder Enc;
    Encoder Defs, Refs;
    Enc.encodeConfig(Defs, Refs, smallConfig());
    FrontierBatchMsg B;
    B.Dest = 0;
    B.Src = 1;
    B.Defs = Defs.take();
    B.Fps = {1, 2};
    B.Configs.push_back(Refs.take());
    Encoder BadRefs;
    BadRefs.vu(1);               // one label
    BadRefs.vu(1);               // label id
    BadRefs.vu(Enc.size() + 50); // dangling dictionary reference
    B.Configs.push_back(BadRefs.take());
    std::vector<uint8_t> Frame = frameBatch(B);
    ASSERT_EQ(::send(Fds[1], Frame.data(), Frame.size(), 0),
              static_cast<ssize_t>(Frame.size()));

    ShardStatus Busy;
    std::vector<ShardDelivery> Incoming;
    for (int I = 0; I != 100 && Incoming.empty(); ++I)
      Io.pump(Busy, Incoming);
    ASSERT_EQ(Incoming.size(), 2u);
    EXPECT_FALSE(Incoming[0].Malformed);
    EXPECT_EQ(Incoming[0].Config, smallConfig());
    EXPECT_TRUE(Incoming[1].Malformed);

    // A corrupt definition stream poisons the peer dictionary: every
    // config in that and later batches from the peer is Malformed.
    FrontierBatchMsg Bad;
    Bad.Dest = 0;
    Bad.Src = 1;
    Bad.Defs = {0xff, 0xff, 0xff}; // unknown definition tag
    Bad.Fps = {3};
    Bad.Configs.push_back({0x00});
    std::vector<uint8_t> BadFrame = frameBatch(Bad);
    ASSERT_EQ(::send(Fds[1], BadFrame.data(), BadFrame.size(), 0),
              static_cast<ssize_t>(BadFrame.size()));
    Incoming.clear();
    for (int I = 0; I != 100 && Incoming.empty(); ++I)
      Io.pump(Busy, Incoming);
    ASSERT_EQ(Incoming.size(), 1u);
    EXPECT_TRUE(Incoming[0].Malformed);
  }
  ::close(Fds[1]);
}

namespace {

/// A well-framed frame (length prefix + payload) in the retired tag-2
/// layout: the standalone frontier batch, whose envelope had no
/// definition stream. No build of this protocol version sends one.
std::vector<uint8_t> retiredBatchFrame() {
  Encoder Body;
  encodeHeader(Body);
  Body.u8(2);
  Body.u32(0);  // dest
  Body.u32(1);  // src
  Body.u32(1);  // one config
  Body.u64(42); // its ownership fingerprint
  Body.u32(3);  // the config blob
  Body.raw({1, 2, 3});
  Encoder Frame;
  Frame.u32(static_cast<uint32_t>(Body.buffer().size()));
  Frame.raw(Body.buffer());
  return Frame.take();
}

} // namespace

TEST(DistWire, RetiredBatchTagIsMalformed) {
  // The framing is sound, so the stream stays usable...
  std::vector<uint8_t> Frame = retiredBatchFrame();
  FrameBuffer In;
  In.feed(Frame.data(), Frame.size());
  std::optional<std::vector<uint8_t>> Payload = In.next();
  ASSERT_TRUE(Payload);
  EXPECT_FALSE(In.corrupt());
  // ...but tag 2 belongs to no message any more: every reader refuses it,
  // and it is malformed rather than a newer peer's unknown type.
  EXPECT_EQ(classifyFrame(*Payload), FrameClass::Malformed);
  EXPECT_EQ(decodeFrame(*Payload), std::nullopt);
  EXPECT_EQ(peekFrameTag(*Payload), std::nullopt);
  EXPECT_FALSE(peekBatch(*Payload));
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

/// Runs the same exploration through distributedExplore at 2 and 4 shards
/// (and through the public hook path at 1 shard) and checks bit-identity
/// against the in-process baseline, with POR off and on.
void expectShardIdentity(const ProgRef &P, const GlobalState &Initial,
                         EngineOptions Opts) {
  for (PorMode Mode : {PorMode::Off, PorMode::On}) {
    Opts.Por = Mode;
    Opts.Shards = 1;
    RunResult Base = explore(P, Initial, Opts);
    ASSERT_TRUE(Base.complete()) << Base.FailureNote;
    EXPECT_FALSE(Base.Terminals.empty());
    for (unsigned Shards : {2u, 4u}) {
      RunResult R = distributedExplore(P, Initial, Opts, {}, Shards);
      EXPECT_EQ(R.Safe, Base.Safe) << "shards=" << Shards;
      EXPECT_EQ(R.Exhausted, Base.Exhausted) << "shards=" << Shards;
      EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals))
          << "shards=" << Shards;
      EXPECT_EQ(R.ConfigsExplored, Base.ConfigsExplored)
          << "shards=" << Shards;
      EXPECT_EQ(R.ActionSteps, Base.ActionSteps) << "shards=" << Shards;
      EXPECT_EQ(R.EnvSteps, Base.EnvSteps) << "shards=" << Shards;
      EXPECT_EQ(R.DedupHits, Base.DedupHits) << "shards=" << Shards;
      EXPECT_EQ(R.VisitedNodes, Base.VisitedNodes) << "shards=" << Shards;
    }
  }
}

/// Restores the process-wide shard default on scope exit.
struct ShardDefaultGuard {
  ~ShardDefaultGuard() { setDefaultShards(0); }
};

/// A coarse-grained increment client over the given lock, packaged with
/// its definitions, initial state (counter = EnvTotal, owned by the
/// environment) and engine options.
struct IncrCase {
  LockProtocol P;
  std::shared_ptr<DefTable> Defs;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

IncrCase makeIncrCase(const LockFactory &Factory, PCMTypeRef TokenType,
                      bool Parallel, bool EnvInterference,
                      uint64_t EnvTotal) {
  constexpr Label PvLbl = 1, LkLbl = 2;
  IncrCase C;
  C.P = Factory(PvLbl, LkLbl, counterResourceModel(LkLbl, /*EnvCap=*/1));
  C.Defs = std::make_shared<DefTable>();
  defineIncrProgram(C.P, *C.Defs);
  C.Main = Parallel ? Prog::par(Prog::call("incr", {}),
                                Prog::call("incr", {}))
                    : Prog::call("incr", {});
  PCMTypeRef SelfType = PCMType::pairOf(TokenType, PCMType::nat());
  C.Initial.addLabel(C.P.Pv, PCMType::heap(), Heap(),
                     PCMVal::ofHeap(Heap()), /*EnvClosed=*/false);
  PCMVal EnvSelf = SelfType->unit();
  EnvSelf = PCMVal::makePair(EnvSelf.first(), PCMVal::ofNat(EnvTotal));
  C.Initial.addLabel(
      C.P.Lk, SelfType,
      C.P.InitialJoint(Heap::singleton(
          counterResourceCell(),
          Val::ofInt(static_cast<int64_t>(EnvTotal)))),
      std::move(EnvSelf), /*EnvClosed=*/false);
  C.Opts.Ambient = C.P.C;
  C.Opts.EnvInterference = EnvInterference;
  C.Opts.Defs = C.Defs.get();
  C.Opts.Jobs = 1;
  C.Opts.Shards = 1;
  return C;
}

} // namespace

TEST(DistEngine, SpanTreeClosedWorldShardIdentity) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  expectShardIdentity(makeSpanRootProg(Case, Ptr(1)),
                      spanRootState(Case, diamondOf(1)), Opts);
}

TEST(DistEngine, TreiberPopUnderInterferenceShardIdentity) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  expectShardIdentity(Prog::call("pop", {}),
                      treiberState(Case, {7, 5}, 0, 1), Opts);
}

TEST(DistEngine, ShardedWorkersComposeWithThreadTeams) {
  // --shards and --jobs compose: each forked worker runs its own thread
  // team and the merged result is still bit-identical.
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 2;
  expectShardIdentity(
      Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(4)}),
      treiberState(Case, {}, 1, 1), Opts);
}

TEST(DistEngine, SessionsThroughHookMatchBaseline) {
  ShardDefaultGuard Guard;
  installDistributedEngine();
  for (auto MakeSession : {makeSpinLockSession, makeTicketLockSession}) {
    setDefaultShards(0);
    SessionReport Base = MakeSession().run();
    setDefaultShards(2);
    SessionReport Sharded = MakeSession().run();
    EXPECT_EQ(Sharded.AllPassed, Base.AllPassed) << Base.Program;
    EXPECT_TRUE(Base.AllPassed) << Base.Program;
    EXPECT_EQ(Sharded.totalObligations(), Base.totalObligations());
    EXPECT_EQ(Sharded.totalChecks(), Base.totalChecks()) << Base.Program;
  }
}

TEST(DistEngine, LockClientsReduceUnderPor) {
  // The spin/ticket lock footprints must buy an actual reduction, not
  // just compile. A mutex serializes every state-changing step, so the
  // reachable config set cannot shrink for a lock client; what POR prunes
  // is redundant *transitions* — failed spin probes and postponed env
  // steps whose targets dedup into already-visited configs. Assert
  // strictly fewer explored steps with verdict, terminals, and config set
  // intact.
  struct Variant {
    LockFactory Factory;
    PCMTypeRef Token;
    bool Parallel;
    bool Env;
    const char *Tag;
  };
  const Variant Variants[] = {
      {casLockFactory(), PCMType::mutex(), true, false, "cas parallel"},
      {ticketLockFactory(), PCMType::ptrSet(), true, false,
       "ticket parallel"},
      {ticketLockFactory(), PCMType::ptrSet(), false, true,
       "ticket sequential open"},
  };
  for (const Variant &V : Variants) {
    IncrCase C = makeIncrCase(V.Factory, V.Token, V.Parallel, V.Env,
                              /*EnvTotal=*/0);
    C.Opts.Por = PorMode::Off;
    RunResult Full = explore(C.Main, C.Initial, C.Opts);
    C.Opts.Por = PorMode::On;
    RunResult Red = explore(C.Main, C.Initial, C.Opts);

    ASSERT_TRUE(Full.complete() && Red.complete()) << V.Tag;
    EXPECT_TRUE(Full.Safe && Red.Safe) << V.Tag;
    EXPECT_TRUE(sameTerminals(Full.Terminals, Red.Terminals)) << V.Tag;
    EXPECT_EQ(Red.ConfigsExplored, Full.ConfigsExplored) << V.Tag;
    EXPECT_LT(Red.ActionSteps + Red.EnvSteps,
              Full.ActionSteps + Full.EnvSteps)
        << V.Tag;
  }
}

TEST(DistEngine, LockClientShardIdentity) {
  // The lock-client explorations (whose POR behaviour the previous test
  // pins) stay bit-identical when sharded, POR off and on.
  IncrCase Cas = makeIncrCase(casLockFactory(), PCMType::mutex(),
                              /*Parallel=*/true, /*EnvInterference=*/false,
                              /*EnvTotal=*/0);
  expectShardIdentity(Cas.Main, Cas.Initial, Cas.Opts);
  IncrCase Ticket = makeIncrCase(ticketLockFactory(), PCMType::ptrSet(),
                                 /*Parallel=*/false,
                                 /*EnvInterference=*/true, /*EnvTotal=*/0);
  expectShardIdentity(Ticket.Main, Ticket.Initial, Ticket.Opts);
}

TEST(DistEngine, DirectCallReportsInProcessProvenance) {
  // A direct distributedExplore resolves its modes through the same
  // resolveModes() as explore(): a dynamic-POR fleet reports a dynamic
  // reduction, never an unreduced run.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Shards = 1;
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
      EXPECT_EQ(Fleet.Reduction.Por, Por) << Tag;
      EXPECT_EQ(Fleet.Reduction.Sym, Sym) << Tag;
      EXPECT_EQ(Fleet.Reduction.Por, Local.Reduction.Por) << Tag;
      EXPECT_EQ(Fleet.Reduction.Sym, Local.Reduction.Sym) << Tag;
      EXPECT_FALSE(Fleet.Reduction.Oracle.Ran) << Tag;
      EXPECT_EQ(Fleet.ConfigsExplored, Local.ConfigsExplored) << Tag;
    }
  }
}

TEST(DistEngine, DictWireMatchesInProcessUnderReductions) {
  // The dictionary protocol must be invisible to results: sharded runs
  // yield bit-identical merged verdicts, terminals, and counters to the
  // in-process engine at every shard count, composed with dynamic POR and
  // symmetry reduction.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Por = PorMode::Dynamic;
  Opts.Symmetry = SymMode::On;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState S0 = spanRootState(Case, diamondOf(1));
  RunResult Base = explore(Main, S0, Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  for (unsigned Shards : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << Shards);
    RunResult R = distributedExplore(Main, S0, Opts, {}, Shards);
    EXPECT_EQ(R.Safe, Base.Safe);
    EXPECT_EQ(R.Exhausted, Base.Exhausted);
    EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals));
    EXPECT_EQ(R.ConfigsExplored, Base.ConfigsExplored);
    EXPECT_EQ(R.ActionSteps, Base.ActionSteps);
    EXPECT_EQ(R.EnvSteps, Base.EnvSteps);
    EXPECT_EQ(R.DedupHits, Base.DedupHits);
    EXPECT_EQ(R.VisitedNodes, Base.VisitedNodes);
  }
}

TEST(DistEngine, DiamondTwoGoldenHoldsAcrossJobsAndShards) {
  // The closed-world diamond-2 space at jobs 1 and 4 and over two shard
  // processes: the same golden counters everywhere. Visited memory is
  // handles into the exploration's own hash-cons tables, so it stays
  // under 1 KB per config, and those tables are per run: a second
  // identical exploration adds nothing to the process-wide intern arenas.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState S0 = spanRootState(Case, diamondOf(2));
  auto ExpectGolden = [](const RunResult &R) {
    ASSERT_TRUE(R.complete()) << R.FailureNote;
    EXPECT_EQ(R.ConfigsExplored, 1475u);
    EXPECT_EQ(R.ActionSteps, 3775u);
    EXPECT_EQ(R.Terminals.size(), 4u);
  };

  Opts.Jobs = 1;
  RunResult Base = explore(Main, S0, Opts);
  ExpectGolden(Base);
  EXPECT_LE(Base.VisitedBytes, 1024 * Base.ConfigsExplored)
      << Base.VisitedBytes << " visited bytes";
  uint64_t ArenaNodes = internStats().totalNodes();
  RunResult Again = explore(Main, S0, Opts);
  EXPECT_EQ(internStats().totalNodes(), ArenaNodes);
  EXPECT_EQ(Again.counters(), Base.counters());

  Opts.Jobs = 4;
  RunResult J4 = explore(Main, S0, Opts);
  ExpectGolden(J4);
  EXPECT_EQ(J4.counters(), Base.counters());
  EXPECT_LE(J4.VisitedBytes, 1024 * J4.ConfigsExplored);

  Opts.Jobs = 1;
  RunResult Sharded = distributedExplore(Main, S0, Opts, {}, 2);
  ExpectGolden(Sharded);
  EXPECT_EQ(Sharded.counters(), Base.counters());
}

TEST(DistEngine, DictWireBytesStayBelowTheStandaloneFloor) {
  // The deleted standalone encoding shipped 817,883 bytes on diamond-2
  // at 2 shards in its last bench_statespace measurement; the dictionary
  // stream shipped 36,786. Keep the old >= 5x floor as an absolute bound
  // on the one remaining encoding.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  FleetStats Before = fleetTotals();
  RunResult R = distributedExplore(makeSpanRootProg(Case, Ptr(1)),
                                   spanRootState(Case, diamondOf(2)), Opts,
                                   {}, 2);
  FleetStats After = fleetTotals();
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  uint64_t Bytes = After.Bytes - Before.Bytes;
  EXPECT_GT(Bytes, 0u);
  EXPECT_LE(Bytes * 5, 817883u) << Bytes << " relayed bytes";
}

TEST(DistEngine, CompressedWireComposesWithObligationCache) {
  // Sharded sessions under --cache=rw: the dictionary wire populates the
  // obligation store and replays from it with the same report.
  ShardDefaultGuard Guard;
  installDistributedEngine();
  cache::CacheMode SavedMode = cache::defaultCacheMode();
  setDefaultShards(0);
  SessionReport Base = makeSpinLockSession().run();
  ASSERT_TRUE(Base.AllPassed) << Base.Program;
  setDefaultShards(2);
  cache::resetActiveStore();
  cache::setDefaultCacheMode(cache::CacheMode::Rw);
  SessionReport Cold = makeSpinLockSession().run(); // populates the store
  SessionReport Warm = makeSpinLockSession().run(); // replays from it
  EXPECT_EQ(Cold.AllPassed, Base.AllPassed);
  EXPECT_EQ(Cold.totalObligations(), Base.totalObligations());
  EXPECT_EQ(Cold.totalChecks(), Base.totalChecks());
  EXPECT_EQ(Warm.AllPassed, Base.AllPassed);
  EXPECT_EQ(Warm.totalObligations(), Base.totalObligations());
  cache::setDefaultCacheMode(SavedMode);
  cache::resetActiveStore();
}

TEST(DistEngine, CrashedWorkerFailsLoudly) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  ::setenv("FCSL_DIST_CRASH_SHARD", "1", 1);
  RunResult R = distributedExplore(makeSpanRootProg(Case, Ptr(1)),
                                   spanRootState(Case, diamondOf(1)), Opts,
                                   {}, 2);
  ::unsetenv("FCSL_DIST_CRASH_SHARD");
  // The exploration is incomplete and says so — never a silent "safe".
  EXPECT_FALSE(R.complete());
  EXPECT_TRUE(R.Exhausted);
  EXPECT_NE(R.FailureNote.find("shard 1"), std::string::npos)
      << R.FailureNote;
  EXPECT_NE(R.FailureNote.find("died"), std::string::npos) << R.FailureNote;
}

TEST(DistEngine, RetiredBatchFrameFailsShardLoudly) {
  // A shard handed a tag-2 frame must not drop it and report a complete
  // run: the frame could have carried frontier work. It fails the run.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::vector<uint8_t> Stream = retiredBatchFrame();
  std::vector<uint8_t> Drain = frameDrain(DrainMsg{});
  Stream.insert(Stream.end(), Drain.begin(), Drain.end());
  ASSERT_EQ(::send(Fds[1], Stream.data(), Stream.size(), 0),
            static_cast<ssize_t>(Stream.size()));
  RunResult R;
  {
    SocketShardIo Io(Fds[0], /*ShardId=*/0, /*NShards=*/2);
    R = exploreShard(makeSpanRootProg(Case, Ptr(1)),
                     spanRootState(Case, diamondOf(1)), Opts, {}, 0, 2, Io);
  }
  ::close(Fds[1]);
  EXPECT_FALSE(R.Safe);
  EXPECT_NE(R.FailureNote.find("malformed"), std::string::npos)
      << R.FailureNote;
}

namespace {

/// An in-memory transport for one shard: records every config the shard
/// routes out, delivers the scripted configs on the first pump, and
/// drains the run once the shard is idle.
class ScriptedShardIo : public ShardIo {
public:
  explicit ScriptedShardIo(std::vector<FrontierConfig> Script = {})
      : Script(std::move(Script)) {}

  void send(unsigned, FrontierConfig FC, uint64_t) override {
    Sent.push_back(std::move(FC));
  }

  ShardCommand pump(const ShardStatus &Status,
                    std::vector<ShardDelivery> &Incoming) override {
    if (!Script.empty()) {
      for (FrontierConfig &FC : Script)
        Incoming.push_back(ShardDelivery{std::move(FC), false});
      Script.clear();
      return ShardCommand::Continue;
    }
    return Status.Idle ? ShardCommand::Drain : ShardCommand::Continue;
  }

  std::vector<FrontierConfig> Sent;

private:
  std::vector<FrontierConfig> Script;
};

} // namespace

TEST(DistEngine, MalformedFrontierConfigFailsShardLoudly) {
  // A well-framed config whose indices do not resolve in the receiver's
  // program table or ambient must fail the run, never index out of range.
  // The open-world ticketed-lock client: its env steps move the global
  // state, so configs cross shards.
  IncrCase C = makeIncrCase(ticketLockFactory(), PCMType::ptrSet(),
                            /*Parallel=*/false, /*EnvInterference=*/true,
                            /*EnvTotal=*/0);
  C.Opts.Por = PorMode::On;
  auto RunShard = [&C](unsigned Id, ScriptedShardIo &Io) {
    return exploreShard(C.Main, C.Initial, C.Opts, {}, Id, 2, Io);
  };

  // A genuine config, captured from whichever shard owns the seed.
  std::optional<FrontierConfig> Valid;
  for (unsigned Id : {0u, 1u}) {
    ScriptedShardIo Io;
    RunShard(Id, Io);
    for (const FrontierConfig &FC : Io.Sent)
      if (!FC.Threads.empty() && !FC.Threads.front().Frames.empty()) {
        Valid = FC;
        break;
      }
    if (Valid)
      break;
  }
  ASSERT_TRUE(Valid) << "no shard routed a config out";

  const std::vector<Transition> &Ts = C.Opts.Ambient->transitions();
  size_t NotEnvStep = Ts.size();
  for (size_t I = 0; I != Ts.size(); ++I)
    if (!Ts[I].isEnvEnabled() || Ts[I].name() == "idle")
      NotEnvStep = I;
  ASSERT_LT(NotEnvStep, Ts.size()) << "the ambient has an idle transition";

  FrontierSleep EnvEntry;
  EnvEntry.IsEnv = true;
  FrontierSleep ThreadEntry;
  ThreadEntry.T = rootThread();
  std::vector<std::pair<std::string, std::function<void(FrontierConfig &)>>>
      Mutations = {
          {"frame node", [](FrontierConfig &F) {
             F.Threads.front().Frames.front().Node = 1u << 30;
           }},
          {"frame rest", [](FrontierConfig &F) {
             F.Threads.front().Frames.front().Rest = 1u << 30;
           }},
          {"frame kind", [](FrontierConfig &F) {
             F.Threads.front().Frames.front().Kind = 7;
           }},
          // Thread ids must be strictly ascending: a repeated id would
          // otherwise drop a thread and explore a config that never was.
          {"duplicate thread id", [](FrontierConfig &F) {
             F.Threads.insert(F.Threads.begin() + 1, F.Threads.front());
           }},
          // Index 0 is the root `call pop`: a program node, not an Act.
          {"sleep act node", [&](FrontierConfig &F) {
             ThreadEntry.ActNode = 0;
             F.Sleep.push_back(ThreadEntry);
           }},
          {"sleep act node range", [&](FrontierConfig &F) {
             ThreadEntry.ActNode = 1u << 30;
             F.Sleep.push_back(ThreadEntry);
           }},
          {"sleep env index", [&](FrontierConfig &F) {
             EnvEntry.EnvIdx = Ts.size();
             F.Sleep.push_back(EnvEntry);
           }},
          {"sleep env step", [&](FrontierConfig &F) {
             EnvEntry.EnvIdx = NotEnvStep;
             F.Sleep.push_back(EnvEntry);
           }},
      };
  for (auto &[What, Mutate] : Mutations) {
    FrontierConfig Bad = *Valid;
    Mutate(Bad);
    ScriptedShardIo Io({std::move(Bad)});
    RunResult R = RunShard(0, Io);
    EXPECT_FALSE(R.Safe) << What;
    EXPECT_NE(R.FailureNote.find("malformed frontier config"),
              std::string::npos)
        << What << ": " << R.FailureNote;
  }

  // The untouched config is accepted: the checks reject only bad indices.
  ScriptedShardIo Io({*Valid});
  RunResult R = RunShard(0, Io);
  EXPECT_EQ(R.FailureNote.find("malformed"), std::string::npos)
      << R.FailureNote;
}

//===----------------------------------------------------------------------===//
// Service-frame codec and the unknown-message-type contract (DESIGN.md
// §15). The split pinned here: a *malformed* frame (bad header) means the
// stream cannot be trusted; a *well-framed unknown type* is a versioned
// peer speaking a newer protocol — the service path rejects the one frame
// and keeps the connection, the shard path fails the whole run loudly.
//===----------------------------------------------------------------------===//

namespace {

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
  std::vector<uint8_t> Frame = frameDrain(DrainMsg{});
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

TEST(DistEngine, UnknownMessageTypeFailsRunLoudly) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  ::setenv("FCSL_DIST_UNKNOWN_SHARD", "1", 1);
  RunResult R = distributedExplore(makeSpanRootProg(Case, Ptr(1)),
                                   spanRootState(Case, diamondOf(1)), Opts,
                                   {}, 2);
  ::unsetenv("FCSL_DIST_UNKNOWN_SHARD");
  // Dropping unrecognized protocol traffic silently would let a partial
  // exploration read as a verified one; the run must say it is incomplete.
  EXPECT_FALSE(R.complete());
  EXPECT_TRUE(R.Exhausted);
  EXPECT_NE(R.FailureNote.find("unknown message type"), std::string::npos)
      << R.FailureNote;
  EXPECT_NE(R.FailureNote.find("shard 1"), std::string::npos)
      << R.FailureNote;
}
