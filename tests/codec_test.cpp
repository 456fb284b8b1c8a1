//===- tests/codec_test.cpp - Binary state codec tests ---------------------===//
//
// Part of fcsl-cpp.
//
// Pins the deterministic binary codec (support/Codec.h): decode(encode(x))
// == x for every state constructor, encoding is byte-deterministic, the
// versioned header rejects foreign buffers, truncated or corrupted streams
// fail soft (no crashes, failed() latches), and the ProgTable enumeration
// is identical for structurally identical programs.
//
//===----------------------------------------------------------------------===//

#include "dist/Wire.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

/// Round-trips \p V through a fresh buffer with the standard header.
template <typename T, typename EncodeFn, typename DecodeFn>
T roundTrip(const T &V, EncodeFn Enc, DecodeFn Dec) {
  Encoder E;
  encodeHeader(E);
  Enc(E, V);
  Decoder D(E.buffer());
  EXPECT_TRUE(decodeHeader(D));
  T Out = Dec(D);
  EXPECT_FALSE(D.failed());
  EXPECT_TRUE(D.atEnd());
  return Out;
}

Val valRT(const Val &V) {
  return roundTrip(
      V, [](Encoder &E, const Val &X) { encode(E, X); }, decodeVal);
}

PCMVal pcmRT(const PCMVal &V) {
  return roundTrip(
      V, [](Encoder &E, const PCMVal &X) { encode(E, X); }, decodePCMVal);
}

TEST(CodecTest, HeaderRoundTripAndRejection) {
  Encoder E;
  encodeHeader(E);
  {
    Decoder D(E.buffer());
    EXPECT_TRUE(decodeHeader(D));
    EXPECT_TRUE(D.atEnd());
  }
  // Corrupt the magic.
  std::vector<uint8_t> BadMagic = E.buffer();
  BadMagic[0] ^= 0xff;
  {
    Decoder D(BadMagic);
    EXPECT_FALSE(decodeHeader(D));
    EXPECT_TRUE(D.failed());
  }
  // Future version.
  Encoder E2;
  E2.u8('F');
  E2.u8('C');
  E2.u8('S');
  E2.u8('L');
  E2.u32(CodecVersion + 1);
  {
    Decoder D(E2.buffer());
    EXPECT_FALSE(decodeHeader(D));
  }
  // Empty buffer.
  {
    std::vector<uint8_t> Empty;
    Decoder D(Empty);
    EXPECT_FALSE(decodeHeader(D));
  }
}

TEST(CodecTest, EncodingIsDeterministic) {
  Heap H;
  H.insert(Ptr(3), Val::ofInt(3));
  H.insert(Ptr(1), Val::ofInt(1));
  Encoder A, B;
  encode(A, H);
  encode(B, H);
  EXPECT_EQ(A.buffer(), B.buffer());
}

TEST(CodecTest, EveryValKindRoundTrips) {
  for (const Val &V :
       {Val::unit(), Val::ofInt(0), Val::ofInt(-123456789), Val::ofInt(42),
        Val::ofBool(false), Val::ofBool(true), Val::ofPtr(Ptr::null()),
        Val::ofPtr(Ptr(77)), Val::node(false, Ptr(1), Ptr::null()),
        Val::node(true, Ptr(2), Ptr(3)),
        Val::pair(Val::ofInt(1), Val::ofBool(true)),
        Val::pair(Val::pair(Val::unit(), Val::ofInt(2)), Val::ofPtr(Ptr(4)))})
    EXPECT_EQ(valRT(V), V) << V.toString();
}

TEST(CodecTest, HeapAndHistoryRoundTrip) {
  Heap H;
  H.insert(Ptr(1), Val::ofInt(10));
  H.insert(Ptr(2), Val::node(true, Ptr(1), Ptr::null()));
  H.insert(Ptr(9), Val::pair(Val::ofBool(false), Val::unit()));
  EXPECT_EQ(roundTrip(
                H, [](Encoder &E, const Heap &X) { encode(E, X); },
                decodeHeap),
            H);
  EXPECT_EQ(roundTrip(
                Heap(), [](Encoder &E, const Heap &X) { encode(E, X); },
                decodeHeap),
            Heap());

  History Hist;
  Hist.add(1, HistEntry{Val::unit(), Val::ofInt(1)});
  Hist.add(2, HistEntry{Val::ofInt(1), Val::ofInt(2)});
  EXPECT_EQ(roundTrip(
                Hist, [](Encoder &E, const History &X) { encode(E, X); },
                decodeHistory),
            Hist);
}

TEST(CodecTest, EveryPCMValKindRoundTrips) {
  Heap H = Heap::singleton(Ptr(5), Val::ofInt(5));
  History Hist;
  Hist.add(1, HistEntry{Val::unit(), Val::ofInt(7)});
  for (const PCMVal &V :
       {PCMVal::ofNat(0), PCMVal::ofNat(31337), PCMVal::mutexOwn(),
        PCMVal::mutexFree(), PCMVal::ofPtrSet({}),
        PCMVal::ofPtrSet({Ptr(1), Ptr(2), Ptr(3)}),
        PCMVal::singletonPtr(Ptr(8)), PCMVal::ofHeap(H),
        PCMVal::ofHeap(Heap()), PCMVal::ofHist(Hist),
        PCMVal::ofHist(History()),
        PCMVal::makePair(PCMVal::ofNat(2), PCMVal::mutexOwn()),
        PCMVal::makePair(PCMVal::ofHeap(H),
                         PCMVal::makePair(PCMVal::ofNat(1),
                                          PCMVal::ofHist(Hist))),
        PCMVal::liftDef(PCMVal::ofNat(4)),
        PCMVal::liftUndef(PCMType::nat()),
        PCMVal::liftUndef(PCMType::heap())})
    EXPECT_EQ(pcmRT(V), V) << V.toString();
}

TEST(CodecTest, PCMTypeRoundTripsIncludingAbsent) {
  for (const PCMTypeRef &T :
       {PCMTypeRef(), PCMType::nat(), PCMType::mutex(), PCMType::ptrSet(),
        PCMType::heap(), PCMType::hist(),
        PCMType::pairOf(PCMType::nat(), PCMType::hist()),
        PCMType::lifted(PCMType::heap())}) {
    Encoder E;
    encode(E, T);
    Decoder D(E.buffer());
    PCMTypeRef Out = decodePCMType(D);
    EXPECT_FALSE(D.failed());
    if (!T)
      EXPECT_EQ(Out, nullptr);
    else {
      ASSERT_NE(Out, nullptr);
      EXPECT_EQ(Out->kind(), T->kind());
    }
  }
}

TEST(CodecTest, ViewRoundTrips) {
  View V;
  V.addLabel(1, LabelSlice{PCMVal::ofHeap(Heap::singleton(Ptr(1),
                                                          Val::ofInt(1))),
                           Heap(), PCMVal::ofHeap(Heap())});
  V.addLabel(4, LabelSlice{PCMVal::ofNat(2),
                           Heap::singleton(Ptr(9), Val::ofBool(true)),
                           PCMVal::ofNat(5)});
  View Out = roundTrip(
      V, [](Encoder &E, const View &X) { encode(E, X); }, decodeView);
  EXPECT_EQ(Out, V);
}

GlobalState nontrivialState() {
  GlobalState GS;
  Heap Joint;
  Joint.insert(Ptr(10), Val::ofPtr(Ptr(11)));
  Joint.insert(Ptr(11), Val::node(false, Ptr::null(), Ptr::null()));
  GS.addLabel(1, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.setSelf(1, rootThread(),
             PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(1))));
  History Hist;
  Hist.add(1, HistEntry{Val::unit(), Val::ofInt(2)});
  GS.addLabel(2, PCMType::hist(), Joint, PCMVal::ofHist(History()),
              /*EnvClosed=*/true);
  GS.setSelf(2, rootThread(), PCMVal::ofHist(Hist));
  GS.setSelf(2, leftChild(rootThread()), PCMVal::ofHist(History()));
  GS.addLabel(3, PCMType::pairOf(PCMType::mutex(), PCMType::nat()), Heap(),
              PCMVal::makePair(PCMVal::mutexFree(), PCMVal::ofNat(0)),
              /*EnvClosed=*/false);
  return GS;
}

TEST(CodecTest, GlobalStateRoundTrips) {
  GlobalState GS = nontrivialState();
  GlobalState Out = roundTrip(
      GS, [](Encoder &E, const GlobalState &X) { encode(E, X); },
      decodeGlobalState);
  EXPECT_EQ(Out, GS);
  EXPECT_EQ(Out.isEnvClosed(2), true);
  EXPECT_EQ(Out.isEnvClosed(1), false);
  EXPECT_EQ(Out.selfOf(2, rootThread()), GS.selfOf(2, rootThread()));
}

TEST(CodecTest, ProgTableIsDeterministic) {
  auto Build = [](DefTable &Defs) {
    Defs.define("loop",
                FuncDef{{"x"}, Prog::ifThenElse(Expr::var("x"),
                                                Prog::call("loop",
                                                           {Expr::var("x")}),
                                                Prog::retUnit())});
    return Prog::bind(Prog::retUnit(), "a",
                      Prog::par(Prog::call("loop", {Expr::litBool(false)}),
                                Prog::retUnit()));
  };
  DefTable DefsA, DefsB;
  ProgRef A = Build(DefsA);
  ProgRef B = Build(DefsB);
  ProgTable TA(A.get(), &DefsA);
  ProgTable TB(B.get(), &DefsB);
  ASSERT_EQ(TA.size(), TB.size());
  EXPECT_GE(TA.size(), 6u); // bind, ret, par, call, if, ...
  for (uint32_t I = 0; I != TA.size(); ++I) {
    // Same pre-order position => same node kind and same structural
    // fingerprint in both enumerations.
    EXPECT_EQ(TA.progAt(I)->kind(), TB.progAt(I)->kind());
    EXPECT_EQ(TA.progAt(I)->fingerprint(), TB.progAt(I)->fingerprint());
  }
  EXPECT_EQ(TA.indexOf(A.get()), 0u);
}

TEST(CodecTest, FrontierConfigRoundTrips) {
  ProgRef Root = Prog::bind(Prog::retUnit(), "a", Prog::retUnit());
  ProgTable T(Root.get());

  FrontierConfig C;
  C.GS = nontrivialState();
  FrontierThread Th;
  Th.Id = rootThread();
  Th.Waiting = false;
  FrontierFrame F;
  F.Kind = 1;
  F.Node = T.indexOf(Root.get());
  F.Rest = ProgTable::NoProg;
  F.Var = "a";
  F.Env = VarEnv{{"a", Val::ofInt(3)}, {"b", Val::pair(Val::unit(),
                                                       Val::ofBool(true))}};
  Th.Frames.push_back(F);
  C.Threads.push_back(Th);
  FrontierThread Done;
  Done.Id = leftChild(rootThread());
  Done.Waiting = true;
  Done.Done = Val::ofInt(9);
  // k-ary orbit group membership (codec v6): shards must agree on group
  // structure, so the marker rides the wire.
  Done.SymGroup = rootThread();
  C.Threads.push_back(Done);
  // The wake payload and the accounting flag ride along too.
  FrontierSleep S;
  S.IsEnv = true;
  S.EnvIdx = 2;
  S.Fp = Footprint::none().readWrite(FpAtom::joint(2));
  C.Sleep.push_back(S);
  C.EnvCloseMask = 0x3;
  C.Counts = false;

  // Through the dictionary contexts, the only frontier encoding.
  NodeDictEncoder Enc;
  Encoder Defs, Refs;
  Enc.encodeConfig(Defs, Refs, C);
  NodeDictDecoder Dec;
  ASSERT_TRUE(Dec.feedDefs(Defs.buffer().data(), Defs.buffer().size()));
  Decoder D(Refs.buffer());
  EXPECT_EQ(Dec.decodeConfig(D), C);
  EXPECT_FALSE(D.failed());
  EXPECT_TRUE(D.atEnd());
}

TEST(CodecTest, TruncatedStreamsFailSoft) {
  Encoder E;
  encodeHeader(E);
  encode(E, nontrivialState());
  const std::vector<uint8_t> &Full = E.buffer();
  // Every strict prefix must either decode to failed() or (for the full
  // buffer only) succeed — never crash. Step through a spread of cuts.
  for (size_t Cut = 0; Cut < Full.size(); Cut += 7) {
    Decoder D(Full.data(), Cut);
    if (!decodeHeader(D))
      continue;
    (void)decodeGlobalState(D);
    EXPECT_TRUE(D.failed()) << "prefix of " << Cut << " bytes decoded";
  }
  // The untruncated buffer decodes cleanly.
  Decoder D(Full);
  EXPECT_TRUE(decodeHeader(D));
  (void)decodeGlobalState(D);
  EXPECT_FALSE(D.failed());
}

TEST(CodecTest, MalformedPayloadsFailSoft) {
  // An unknown Val kind tag.
  {
    Encoder E;
    E.u8(250);
    Decoder D(E.buffer());
    (void)decodeVal(D);
    EXPECT_TRUE(D.failed());
  }
  // A heap with a duplicate pointer.
  {
    Encoder E;
    E.u32(2);
    encode(E, Ptr(1));
    encode(E, Val::unit());
    encode(E, Ptr(1));
    encode(E, Val::unit());
    Decoder D(E.buffer());
    (void)decodeHeap(D);
    EXPECT_TRUE(D.failed());
  }
  // A history with a zero timestamp.
  {
    Encoder E;
    E.u32(1);
    E.u64(0);
    encode(E, Val::unit());
    encode(E, Val::unit());
    Decoder D(E.buffer());
    (void)decodeHistory(D);
    EXPECT_TRUE(D.failed());
  }
}

FrontierConfig sampleConfig(int64_t Seed) {
  FrontierConfig C;
  C.GS = nontrivialState();
  FrontierThread Th;
  Th.Id = rootThread();
  FrontierFrame F;
  F.Kind = 1;
  F.Node = 0;
  F.Rest = ProgTable::NoProg;
  F.Var = "a";
  F.Env = VarEnv{{"a", Val::ofInt(Seed)},
                 {"b", Val::pair(Val::unit(), Val::ofBool(true))}};
  Th.Frames.push_back(F);
  C.Threads.push_back(Th);
  FrontierSleep S;
  S.T = rootThread();
  S.ActNode = 2;
  C.Sleep.push_back(S);
  C.EnvCloseMask = 5;
  return C;
}

TEST(CodecTest, NodeDictRoundTripsAndDedups) {
  NodeDictEncoder Enc;
  NodeDictDecoder Dec;
  FrontierConfig A = sampleConfig(1);
  FrontierConfig B = sampleConfig(2); // shares almost all nodes with A

  Encoder DefsA, RefsA;
  Enc.encodeConfig(DefsA, RefsA, A);
  ASSERT_FALSE(DefsA.buffer().empty());
  ASSERT_TRUE(Dec.feedDefs(DefsA.buffer().data(), DefsA.buffer().size()));
  Decoder DA(RefsA.buffer());
  FrontierConfig OutA = Dec.decodeConfig(DA);
  EXPECT_FALSE(DA.failed());
  EXPECT_TRUE(DA.atEnd());
  EXPECT_EQ(OutA, A);

  // The second config ships only its genuinely new nodes as definitions.
  Encoder DefsB, RefsB;
  Enc.encodeConfig(DefsB, RefsB, B);
  EXPECT_LT(DefsB.buffer().size(), DefsA.buffer().size());
  ASSERT_TRUE(Dec.feedDefs(DefsB.buffer().data(), DefsB.buffer().size()));
  Decoder DB(RefsB.buffer());
  EXPECT_EQ(Dec.decodeConfig(DB), B);
  EXPECT_FALSE(DB.failed());
  EXPECT_EQ(Enc.size(), Dec.size());

  // Re-sending an already-interned config adds no definitions at all, and
  // its whole reference encoding is smaller than the plain encoding of its
  // global state alone.
  Encoder DefsC, RefsC;
  Enc.encodeConfig(DefsC, RefsC, A);
  EXPECT_TRUE(DefsC.buffer().empty());
  Decoder DC(RefsC.buffer());
  EXPECT_EQ(Dec.decodeConfig(DC), A);
  EXPECT_FALSE(DC.failed());
  Encoder Plain;
  encode(Plain, A.GS);
  EXPECT_LT(RefsC.buffer().size(), Plain.buffer().size());
}

TEST(CodecTest, NodeDictDefsFailSoft) {
  FrontierConfig A = sampleConfig(3);
  Encoder Defs, Refs;
  NodeDictEncoder Enc;
  Enc.encodeConfig(Defs, Refs, A);
  const std::vector<uint8_t> &Full = Defs.buffer();
  ASSERT_FALSE(Full.empty());
  // A strict prefix of the definition stream either fails outright
  // (poisoning the dictionary) or, when it happens to end on a definition
  // boundary, leaves later references dangling — the config never decodes.
  for (size_t Cut = 0; Cut < Full.size(); Cut += 4) {
    NodeDictDecoder Dec;
    bool FedOk = Dec.feedDefs(Full.data(), Cut);
    if (!FedOk) {
      EXPECT_TRUE(Dec.corrupt());
      // Poisoned for good: even the valid full stream is refused now.
      EXPECT_FALSE(Dec.feedDefs(Full.data(), Full.size()));
    }
    Decoder D(Refs.buffer());
    (void)Dec.decodeConfig(D);
    EXPECT_TRUE(D.failed()) << "defs prefix of " << Cut << " bytes decoded";
  }
  // Foreign bytes: an unknown definition tag corrupts the dictionary.
  std::vector<uint8_t> Foreign = Full;
  Foreign[0] ^= 0xff;
  NodeDictDecoder Dec;
  EXPECT_FALSE(Dec.feedDefs(Foreign.data(), Foreign.size()));
  EXPECT_TRUE(Dec.corrupt());
}

TEST(CodecTest, NodeDictRefsFailSoft) {
  FrontierConfig A = sampleConfig(4);
  Encoder Defs, Refs;
  NodeDictEncoder Enc;
  Enc.encodeConfig(Defs, Refs, A);
  NodeDictDecoder Dec;
  ASSERT_TRUE(Dec.feedDefs(Defs.buffer().data(), Defs.buffer().size()));
  const std::vector<uint8_t> &Full = Refs.buffer();
  for (size_t Cut = 0; Cut < Full.size(); Cut += 3) {
    Decoder D(Full.data(), Cut);
    (void)Dec.decodeConfig(D);
    EXPECT_TRUE(D.failed()) << "refs prefix of " << Cut << " bytes decoded";
  }
  // An out-of-range dictionary reference is rejected.
  Encoder Bad;
  Bad.vu(1);                // one label
  Bad.vu(1);                // label id
  Bad.vu(Dec.size() + 100); // type reference beyond the dictionary
  Decoder DBad(Bad.buffer());
  (void)Dec.decodeConfig(DBad);
  EXPECT_TRUE(DBad.failed());
  // Malformed reference streams do not poison the dictionary: the intact
  // stream still decodes afterwards.
  Decoder DOk(Full);
  EXPECT_EQ(Dec.decodeConfig(DOk), A);
  EXPECT_FALSE(DOk.failed());
}

cache::CacheRecord sampleRecord(uint64_t Content) {
  cache::CacheRecord R;
  R.Key.Content = Content;
  R.Key.Flags = 0xfeedbeef;
  R.Passed = false;
  R.Checks = 42;
  R.Counters.Configs = 100;
  R.Counters.ActionSteps = 60;
  R.Counters.EnvSteps = 40;
  R.Counters.Terminals = 7;
  R.Counters.DedupHits = 12;
  R.ElapsedUs = 1234;
  R.Note = "stability counterexample at seed 3";
  return R;
}

TEST(CodecTest, CacheRecordRoundTrips) {
  cache::CacheRecord R = sampleRecord(0xabcdef);
  Encoder E;
  cache::encode(E, R);
  Decoder D(E.buffer());
  cache::CacheRecord Out = cache::decodeCacheRecord(D);
  EXPECT_FALSE(D.failed());
  EXPECT_TRUE(D.atEnd());
  EXPECT_EQ(Out, R);

  // Default-constructed (a passing verdict with no note) round-trips too.
  cache::CacheRecord Zero;
  Encoder E2;
  cache::encode(E2, Zero);
  Decoder D2(E2.buffer());
  EXPECT_EQ(cache::decodeCacheRecord(D2), Zero);
  EXPECT_FALSE(D2.failed());
}

TEST(CodecTest, CacheRecordFailsSoft) {
  cache::CacheRecord R = sampleRecord(0x1111);
  Encoder E;
  cache::encode(E, R);
  const std::vector<uint8_t> &Full = E.buffer();
  // Every strict prefix latches failed(), never crashes.
  for (size_t Cut = 0; Cut < Full.size(); Cut += 3) {
    Decoder D(Full.data(), Cut);
    (void)cache::decodeCacheRecord(D);
    EXPECT_TRUE(D.failed()) << "prefix of " << Cut << " bytes decoded";
  }
  // A Passed byte that is neither 0 nor 1 is malformed.
  std::vector<uint8_t> Bad = Full;
  Bad[16] = 7; // Key.Content + Key.Flags precede the Passed byte.
  Decoder D(Bad);
  (void)cache::decodeCacheRecord(D);
  EXPECT_TRUE(D.failed());
}

TEST(CodecTest, CacheDeltaFrameRoundTrips) {
  dist::CacheDeltaMsg M;
  M.ShardId = 3;
  M.Records.push_back(sampleRecord(0x1001));
  M.Records.push_back(cache::CacheRecord{});
  M.Records.push_back(sampleRecord(0x1002));

  std::vector<uint8_t> Frame = dist::frameCacheDelta(M);
  // Strip the u32 length prefix; the payload must announce its own length.
  ASSERT_GT(Frame.size(), 4u);
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Frame[I]) << (8 * I);
  ASSERT_EQ(Frame.size() - 4, Len);
  std::vector<uint8_t> Payload(Frame.begin() + 4, Frame.end());

  std::optional<dist::WireMsg> Out = dist::decodeFrame(Payload);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->Type, dist::MsgType::CacheDelta);
  EXPECT_EQ(Out->Delta, M);
}

TEST(CodecTest, CacheDeltaFrameFailsSoft) {
  dist::CacheDeltaMsg M;
  M.ShardId = 1;
  M.Records.push_back(sampleRecord(0x2002));
  std::vector<uint8_t> Frame = dist::frameCacheDelta(M);
  std::vector<uint8_t> Payload(Frame.begin() + 4, Frame.end());

  // Truncated payloads never decode.
  for (size_t Cut = 0; Cut < Payload.size(); Cut += 5) {
    std::vector<uint8_t> Prefix(Payload.begin(), Payload.begin() + Cut);
    EXPECT_FALSE(dist::decodeFrame(Prefix).has_value())
        << "prefix of " << Cut << " bytes decoded";
  }

  // A delta from a different cache-record format version is dropped whole.
  // Layout: codec header (8 bytes), tag (1), shard id (4), then the u32
  // record version — flip its low byte at offset 13.
  std::vector<uint8_t> Foreign = Payload;
  ASSERT_GT(Foreign.size(), 13u);
  Foreign[13] ^= 0x01;
  EXPECT_FALSE(dist::decodeFrame(Foreign).has_value());

  // Trailing garbage after the last record is malformed.
  std::vector<uint8_t> Trailing = Payload;
  Trailing.push_back(0x00);
  EXPECT_FALSE(dist::decodeFrame(Trailing).has_value());
}

} // namespace
