//===- tests/pcm_test.cpp - PCM framework tests ----------------------------===//
//
// Part of fcsl-cpp. Property-style sweeps of the PCM laws over every
// carrier the paper's case studies use (Section 6's PCM inventory).
//
//===----------------------------------------------------------------------===//

#include "pcm/Algebra.h"
#include "state/View.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

History historyOf(std::initializer_list<uint64_t> Stamps) {
  History H;
  for (uint64_t T : Stamps)
    H.add(T, HistEntry{Val::ofInt(static_cast<int64_t>(T) - 1),
                       Val::ofInt(static_cast<int64_t>(T))});
  return H;
}

/// A representative element sample per carrier.
std::vector<PCMVal> sampleFor(const PCMType &T) {
  switch (T.kind()) {
  case PCMKind::Nat:
    return {PCMVal::ofNat(0), PCMVal::ofNat(1), PCMVal::ofNat(3)};
  case PCMKind::Mutex:
    return {PCMVal::mutexFree(), PCMVal::mutexOwn()};
  case PCMKind::PtrSet:
    return {PCMVal::ofPtrSet({}), PCMVal::singletonPtr(Ptr(1)),
            PCMVal::ofPtrSet({Ptr(2), Ptr(3)}),
            PCMVal::ofPtrSet({Ptr(1), Ptr(3)})};
  case PCMKind::HeapPCM:
    return {PCMVal::ofHeap(Heap()),
            PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(1))),
            PCMVal::ofHeap(Heap::singleton(Ptr(2), Val::ofInt(2))),
            PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(9)))};
  case PCMKind::Hist:
    return {PCMVal::ofHist(History()), PCMVal::ofHist(historyOf({1})),
            PCMVal::ofHist(historyOf({2})),
            PCMVal::ofHist(historyOf({1, 2}))};
  case PCMKind::Pair: {
    std::vector<PCMVal> Firsts = sampleFor(*T.first());
    std::vector<PCMVal> Seconds = sampleFor(*T.second());
    std::vector<PCMVal> Out;
    for (const PCMVal &F : Firsts)
      for (const PCMVal &S : Seconds)
        Out.push_back(PCMVal::makePair(F, S));
    return Out;
  }
  case PCMKind::Lift: {
    std::vector<PCMVal> Out;
    Out.push_back(PCMVal::liftUndef(T.inner()));
    for (const PCMVal &Inner : sampleFor(*T.inner()))
      Out.push_back(PCMVal::liftDef(Inner));
    return Out;
  }
  }
  return {};
}

/// A carrier under test. It prints as the carrier's name, so the test
/// names stay the same from one build to the next; gtest would print a
/// bare PCMTypeRef by its address.
struct Carrier {
  PCMTypeRef T;
};

void PrintTo(const Carrier &C, std::ostream *OS) { *OS << C.T->name(); }

} // namespace

/// Parameterized sweep: the PCM laws hold for every carrier used in the
/// paper's case studies.
class PCMLawsTest : public ::testing::TestWithParam<Carrier> {};

TEST_P(PCMLawsTest, LawsHold) {
  PCMTypeRef T = GetParam().T;
  std::vector<PCMVal> Sample = sampleFor(*T);
  ASSERT_FALSE(Sample.empty());
  PCMLawReport R = checkPCMLaws(*T, Sample);
  EXPECT_TRUE(R.CommutativityHolds) << T->name();
  EXPECT_TRUE(R.AssociativityHolds) << T->name();
  EXPECT_TRUE(R.UnitLawHolds) << T->name();
  EXPECT_TRUE(R.UnitValid) << T->name();
  EXPECT_GT(R.JoinsEvaluated, 0u);
}

TEST_P(PCMLawsTest, UnitIsUnitOf) {
  PCMTypeRef T = GetParam().T;
  EXPECT_TRUE(T->unit().isUnitOf(*T));
}

INSTANTIATE_TEST_SUITE_P(
    AllCarriers, PCMLawsTest,
    ::testing::Values(
        Carrier{PCMType::nat()}, Carrier{PCMType::mutex()},
        Carrier{PCMType::ptrSet()}, Carrier{PCMType::heap()},
        Carrier{PCMType::hist()},
        Carrier{PCMType::pairOf(PCMType::mutex(), PCMType::nat())},
        Carrier{PCMType::pairOf(PCMType::ptrSet(), PCMType::hist())},
        Carrier{PCMType::lifted(PCMType::nat())},
        Carrier{PCMType::pairOf(
            PCMType::mutex(),
            PCMType::pairOf(PCMType::ptrSet(), PCMType::hist()))}));

TEST(PCMJoinTest, MutexExclusion) {
  EXPECT_FALSE(
      PCMVal::join(PCMVal::mutexOwn(), PCMVal::mutexOwn()).has_value());
  auto R = PCMVal::join(PCMVal::mutexOwn(), PCMVal::mutexFree());
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->isOwn());
}

TEST(PCMJoinTest, SetDisjointness) {
  PCMVal A = PCMVal::singletonPtr(Ptr(1));
  EXPECT_FALSE(PCMVal::join(A, A).has_value());
  auto R = PCMVal::join(A, PCMVal::singletonPtr(Ptr(2)));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->getPtrSet().size(), 2u);
}

TEST(PCMJoinTest, NatIsTotal) {
  auto R = PCMVal::join(PCMVal::ofNat(2), PCMVal::ofNat(3));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->getNat(), 5u);
}

TEST(PCMJoinTest, LiftAbsorbsUndefined) {
  PCMTypeRef T = PCMType::lifted(PCMType::mutex());
  PCMVal Own = PCMVal::liftDef(PCMVal::mutexOwn());
  // Own * Own is undefined in mutex, so the lifted join is the explicit
  // undefined element — but it is *defined* as a lifted value.
  auto R = PCMVal::join(Own, Own);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->isLiftUndef());
  EXPECT_FALSE(R->isValid());
}

TEST(PCMSubtractTest, PerCarrier) {
  // nat.
  auto N = pcmSubtract(PCMVal::ofNat(5), PCMVal::ofNat(2));
  ASSERT_TRUE(N);
  EXPECT_EQ(N->getNat(), 3u);
  EXPECT_FALSE(pcmSubtract(PCMVal::ofNat(1), PCMVal::ofNat(2)));
  // mutex.
  auto M = pcmSubtract(PCMVal::mutexOwn(), PCMVal::mutexOwn());
  ASSERT_TRUE(M);
  EXPECT_FALSE(M->isOwn());
  EXPECT_FALSE(pcmSubtract(PCMVal::mutexFree(), PCMVal::mutexOwn()));
  // sets.
  auto S = pcmSubtract(PCMVal::ofPtrSet({Ptr(1), Ptr(2)}),
                       PCMVal::singletonPtr(Ptr(1)));
  ASSERT_TRUE(S);
  EXPECT_EQ(*S, PCMVal::singletonPtr(Ptr(2)));
  // heaps: values must match.
  Heap H;
  H.insert(Ptr(1), Val::ofInt(1));
  H.insert(Ptr(2), Val::ofInt(2));
  auto HR = pcmSubtract(PCMVal::ofHeap(H),
                        PCMVal::ofHeap(Heap::singleton(Ptr(1),
                                                       Val::ofInt(1))));
  ASSERT_TRUE(HR);
  EXPECT_EQ(HR->getHeap().size(), 1u);
  EXPECT_FALSE(pcmSubtract(
      PCMVal::ofHeap(H),
      PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(9)))));
}

TEST(PCMSubtractTest, SubtractRecombines) {
  // For every sub-element S of V: S \+ (V - S) == V.
  PCMVal V = PCMVal::ofPtrSet({Ptr(1), Ptr(2), Ptr(3)});
  for (const PCMVal &S : enumerateSubElements(V)) {
    auto Rest = pcmSubtract(V, S);
    ASSERT_TRUE(Rest);
    auto Back = PCMVal::join(S, *Rest);
    ASSERT_TRUE(Back);
    EXPECT_EQ(*Back, V);
  }
}

TEST(PCMEnumerateTest, CountsAndMembership) {
  EXPECT_EQ(enumerateSubElements(PCMVal::ofNat(3)).size(), 4u);
  EXPECT_EQ(enumerateSubElements(PCMVal::ofPtrSet({Ptr(1), Ptr(2)})).size(),
            4u);
  EXPECT_EQ(enumerateSubElements(PCMVal::mutexOwn()).size(), 2u);
  EXPECT_EQ(enumerateSubElements(PCMVal::mutexFree()).size(), 1u);
  // Limit is respected.
  EXPECT_EQ(enumerateSubElements(PCMVal::ofNat(100), 5).size(), 5u);
}

TEST(PCMTypeTest, NamesAndAdmission) {
  PCMTypeRef T = PCMType::pairOf(PCMType::mutex(), PCMType::nat());
  EXPECT_EQ(T->name(), "(mutex x nat)");
  EXPECT_TRUE(T->admits(PCMVal::makePair(PCMVal::mutexOwn(),
                                         PCMVal::ofNat(1))));
  EXPECT_FALSE(T->admits(PCMVal::ofNat(1)));
  EXPECT_FALSE(T->admits(PCMVal::makePair(PCMVal::ofNat(1),
                                          PCMVal::ofNat(1))));
  EXPECT_TRUE(*T == *PCMType::pairOf(PCMType::mutex(), PCMType::nat()));
  EXPECT_FALSE(*T == *PCMType::mutex());
}

TEST(PCMCancellativityTest, CoreCarriersCancellative) {
  for (PCMTypeRef T :
       {PCMType::nat(), PCMType::ptrSet(), PCMType::heap()}) {
    std::vector<PCMVal> Sample = sampleFor(*T);
    EXPECT_TRUE(checkCancellativity(Sample)) << T->name();
  }
}
