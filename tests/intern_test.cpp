//===- tests/intern_test.cpp - Canonical interned-state layer tests --------===//
//
// Part of fcsl-cpp.
//
// Pins the invariants of the hash-consed state representation
// (support/Intern.h): structurally equal values share one canonical node
// (so handle equality is pointer equality), copies are O(1), fingerprints
// are process-stable (golden values below fail if the mixing scheme ever
// drifts), and concurrent interning from many threads converges on the
// same canonical nodes. The computed tables that cache joins and updates
// by operand handle must return exactly what an uncached computation
// returns: through evictions, for undefined results, and on every thread.
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"
#include "pcm/Histories.h"
#include "pcm/PCMVal.h"
#include "state/View.h"
#include "support/Intern.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <tuple>
#include <vector>

using namespace fcsl;

namespace {

// A handle is one arena pointer; interning must not grow it.
static_assert(sizeof(Val) == sizeof(void *), "Val is a single pointer");
static_assert(sizeof(Heap) == sizeof(void *), "Heap is a single pointer");
static_assert(sizeof(History) == sizeof(void *),
              "History is a single pointer");
static_assert(sizeof(PCMVal) == sizeof(void *), "PCMVal is a single pointer");

/// Structural equality must coincide with fingerprint equality on the
/// canonical representation: same node <=> same fingerprint here.
template <typename T> void expectCanonical(const T &A, const T &B) {
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

TEST(InternTest, StructurallyEqualValsShareOneNode) {
  expectCanonical(Val::unit(), Val());
  expectCanonical(Val::ofInt(42), Val::ofInt(42));
  expectCanonical(Val::ofBool(false), Val::ofBool(false));
  expectCanonical(Val::ofPtr(Ptr(9)), Val::ofPtr(Ptr(9)));
  expectCanonical(Val::node(true, Ptr(1), Ptr(2)),
                  Val::node(true, Ptr(1), Ptr(2)));
  expectCanonical(Val::pair(Val::ofInt(1), Val::ofBool(true)),
                  Val::pair(Val::ofInt(1), Val::ofBool(true)));
  EXPECT_NE(Val::ofInt(1).fingerprint(), Val::ofInt(2).fingerprint());
  EXPECT_NE(Val::ofInt(0).fingerprint(), Val::ofBool(false).fingerprint());
}

TEST(InternTest, StructurallyEqualHeapsShareOneNode) {
  // Insertion order must not matter: the payload is a sorted map.
  Heap A;
  A.insert(Ptr(1), Val::ofInt(10));
  A.insert(Ptr(2), Val::ofInt(20));
  Heap B;
  B.insert(Ptr(2), Val::ofInt(20));
  B.insert(Ptr(1), Val::ofInt(10));
  expectCanonical(A, B);
  expectCanonical(Heap(), Heap());
  EXPECT_NE(A.fingerprint(), Heap().fingerprint());
}

TEST(InternTest, StructurallyEqualHistoriesShareOneNode) {
  History A;
  A.add(1, HistEntry{Val::ofInt(0), Val::ofInt(1)});
  A.add(2, HistEntry{Val::ofInt(1), Val::ofInt(2)});
  History B;
  B.add(2, HistEntry{Val::ofInt(1), Val::ofInt(2)});
  B.add(1, HistEntry{Val::ofInt(0), Val::ofInt(1)});
  expectCanonical(A, B);
  expectCanonical(History(), History());
}

TEST(InternTest, StructurallyEqualPCMValsShareOneNode) {
  expectCanonical(PCMVal::ofNat(7), PCMVal::ofNat(7));
  expectCanonical(PCMVal::mutexOwn(), PCMVal::mutexOwn());
  expectCanonical(PCMVal::mutexFree(), PCMVal::mutexFree());
  expectCanonical(PCMVal::singletonPtr(Ptr(3)),
                  PCMVal::ofPtrSet({Ptr(3)}));
  expectCanonical(PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(1))),
                  PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(1))));
  expectCanonical(PCMVal::ofHist(History()), PCMVal::ofHist(History()));
  expectCanonical(
      PCMVal::makePair(PCMVal::ofNat(1), PCMVal::mutexFree()),
      PCMVal::makePair(PCMVal::ofNat(1), PCMVal::mutexFree()));
  expectCanonical(PCMVal::liftDef(PCMVal::ofNat(5)),
                  PCMVal::liftDef(PCMVal::ofNat(5)));
  // Default construction is the Nat unit.
  expectCanonical(PCMVal(), PCMVal::ofNat(0));
}

TEST(InternTest, AllLiftedUndefinedElementsAreOneNode) {
  // Undefined elements of every lifted carrier always compared equal, so
  // canonically they are one node regardless of the recorded carrier type.
  PCMVal UNat = PCMVal::liftUndef(PCMType::nat());
  PCMVal UHeap = PCMVal::liftUndef(PCMType::heap());
  PCMVal UNone = PCMVal::liftUndef(nullptr);
  expectCanonical(UNat, UHeap);
  expectCanonical(UNat, UNone);
  EXPECT_TRUE(UNat.isLiftUndef());
  EXPECT_FALSE(UNat.isValid());
  EXPECT_NE(UNat, PCMVal::liftDef(PCMVal::ofNat(0)));
}

TEST(InternTest, GoldenFingerprintsAreProcessStable) {
  // Frozen constants: fingerprints feed cross-process dedup keys and the
  // binary codec's identity expectations, so any change to the mixing
  // scheme (fpScramble/fpCombine/fpString, salts, payload order) must be
  // deliberate and bump CodecVersion.
  EXPECT_EQ(Val::unit().fingerprint(), 0x4803287b9c419382ULL);
  EXPECT_EQ(Val::ofInt(42).fingerprint(), 0x3d5374c201aa199dULL);
  EXPECT_EQ(Val::ofBool(true).fingerprint(), 0xba72d94a6e6aefabULL);
  EXPECT_EQ(Val::ofPtr(Ptr(7)).fingerprint(), 0xabdcd78407479e17ULL);
  EXPECT_EQ(Val::node(true, Ptr(1), Ptr(2)).fingerprint(),
            0x334ccc3f88f674eaULL);
  EXPECT_EQ(Val::pair(Val::ofInt(1), Val::ofInt(2)).fingerprint(),
            0x986e4687649ef175ULL);
  EXPECT_EQ(Heap().fingerprint(), 0x4d309f0c1d314aedULL);
  EXPECT_EQ(Heap::singleton(Ptr(1), Val::ofInt(5)).fingerprint(),
            0x55673e7afbc043a1ULL);
  EXPECT_EQ(History().fingerprint(), 0x2b54be08b68a307fULL);
  History H1;
  H1.add(1, HistEntry{Val::unit(), Val::ofInt(1)});
  EXPECT_EQ(H1.fingerprint(), 0xbfa733a31a648dc9ULL);
  EXPECT_EQ(PCMVal::ofNat(3).fingerprint(), 0x127b227a674e2fe3ULL);
  EXPECT_EQ(PCMVal::mutexOwn().fingerprint(), 0x8bc2b2a867910e2aULL);
  EXPECT_EQ(PCMVal::liftUndef(PCMType::nat()).fingerprint(),
            0x08e793f2f0077d2cULL);
}

TEST(InternTest, LabelSliceFingerprintCombinesComponents) {
  LabelSlice A{PCMVal::ofNat(1), Heap(), PCMVal::ofNat(2)};
  LabelSlice B{PCMVal::ofNat(1), Heap(), PCMVal::ofNat(2)};
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  // Self/other asymmetry must be visible in the fingerprint.
  LabelSlice C{PCMVal::ofNat(2), Heap(), PCMVal::ofNat(1)};
  EXPECT_NE(A.fingerprint(), C.fingerprint());
}

TEST(InternTest, CopiesAreHandleCopies) {
  // A copy shares the node, so deep structures copy in O(1) and compare
  // in O(1) — the property the visited set relies on.
  Val Deep = Val::ofInt(0);
  for (int I = 0; I != 64; ++I)
    Deep = Val::pair(Deep, Val::ofInt(I));
  Val Copy = Deep;
  EXPECT_EQ(Copy, Deep);
  EXPECT_EQ(std::hash<Val>()(Copy), std::hash<Val>()(Deep));
}

TEST(InternTest, StatsReportEveryArenaAndDedup) {
  // Force at least one duplicate request per arena.
  (void)Val::ofInt(12345);
  (void)Val::ofInt(12345);
  (void)Heap::singleton(Ptr(99), Val::unit());
  (void)Heap::singleton(Ptr(99), Val::unit());
  History H;
  H.add(1, HistEntry{Val::unit(), Val::unit()});
  (void)PCMVal::ofNat(999);
  (void)PCMVal::ofNat(999);
  InternStats Stats = internStats();
  std::vector<std::string> Names;
  for (const InternTypeStats &S : Stats.PerType) {
    Names.push_back(S.Name);
    EXPECT_GE(S.Requests, S.Nodes) << S.Name;
  }
  EXPECT_NE(std::find(Names.begin(), Names.end(), "val"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "heap"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "history"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "pcmval"), Names.end());
  EXPECT_GT(Stats.dedupRatio(), 1.0);
}

TEST(InternTest, ConcurrentInterningConvergesOnCanonicalNodes) {
  // Many threads intern the same structures; every thread must end up
  // with the same canonical handles (pointer equality across threads).
  constexpr int NumThreads = 8;
  std::vector<std::vector<Val>> PerThread(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&PerThread, T] {
      for (int I = 0; I != 200; ++I) {
        Val V = Val::pair(Val::ofInt(I % 32), Val::ofBool(I % 2 == 0));
        PerThread[T].push_back(V);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int T = 1; T != NumThreads; ++T)
    for (size_t I = 0; I != PerThread[0].size(); ++I)
      EXPECT_EQ(PerThread[0][I], PerThread[T][I]);
}

//===----------------------------------------------------------------------===//
// Computed tables
//===----------------------------------------------------------------------===//

/// The summed counters of cached operation \p Name (zero before its first
/// probe).
ComputedTableStats tableStats(const std::string &Name) {
  for (const ComputedTableStats &S : computedTableStats())
    if (S.Name == Name)
      return S;
  return ComputedTableStats{Name, 0, 0};
}

/// More distinct operand pairs than a table has slots.
constexpr int ManyKeys = 3000;

/// A history with entry \p T : Before ~> After for each given triple, built
/// in the order given.
History histOf(std::initializer_list<std::tuple<uint64_t, int, int>> Es) {
  History H;
  for (const auto &[T, Before, After] : Es)
    H.add(T, HistEntry{Val::ofInt(Before), Val::ofInt(After)});
  return H;
}

TEST(ComputedTableTest, EvictionsNeverServeAWrongResult) {
  // Two passes over ManyKeys operand pairs per operation, the second in
  // reverse: it finds the slots of the last keys still holding them and
  // the earlier ones evicted by colliding keys. Every result must equal
  // the value built another way, which interns it through other keys.
  ComputedTableStats Before = tableStats("pcmval.join");
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (int K = 0; K != ManyKeys; ++K) {
      int I = Pass == 0 ? K : ManyKeys - 1 - K;
      std::optional<PCMVal> N =
          PCMVal::join(PCMVal::ofNat(I), PCMVal::ofNat(I + 1));
      ASSERT_TRUE(N);
      EXPECT_EQ(*N, PCMVal::ofNat(2 * I + 1));

      Ptr P(I + 1), Q(I + 1 + ManyKeys);
      std::optional<PCMVal> Pair = PCMVal::join(
          PCMVal::makePair(PCMVal::ofNat(I), PCMVal::singletonPtr(P)),
          PCMVal::makePair(PCMVal::ofNat(1), PCMVal::singletonPtr(Q)));
      ASSERT_TRUE(Pair);
      EXPECT_EQ(*Pair, PCMVal::makePair(PCMVal::ofNat(I + 1),
                                        PCMVal::ofPtrSet({Q, P})));

      std::optional<Heap> HJ =
          Heap::join(Heap::singleton(P, Val::ofInt(I)),
                     Heap::singleton(Q, Val::ofInt(-I)));
      ASSERT_TRUE(HJ);
      Heap Both;
      Both.insert(Q, Val::ofInt(-I));
      Both.insert(P, Val::ofInt(I));
      EXPECT_EQ(*HJ, Both);

      Heap U = Heap::singleton(Ptr(1), Val::ofInt(0));
      U.update(Ptr(1), Val::ofInt(I));
      EXPECT_EQ(U, Heap::singleton(Ptr(1), Val::ofInt(I)));
      EXPECT_EQ(U.lookup(Ptr(1)), Val::ofInt(I));

      uint64_t T = static_cast<uint64_t>(I) + 2;
      History A = histOf({{1, 0, I}});
      A.add(T, HistEntry{Val::ofInt(I), Val::ofInt(I + 1)});
      EXPECT_EQ(A, histOf({{T, I, I + 1}, {1, 0, I}}));
      ASSERT_NE(A.tryLookup(T), nullptr);
      EXPECT_EQ(A.tryLookup(T)->After, Val::ofInt(I + 1));

      std::optional<History> HistJ =
          History::join(histOf({{1, 0, I}}), histOf({{T, I, -I}}));
      ASSERT_TRUE(HistJ);
      EXPECT_EQ(*HistJ, histOf({{T, I, -I}, {1, 0, I}}));
    }
  }
  ComputedTableStats After = tableStats("pcmval.join");
  uint64_t Probes = After.Probes - Before.Probes;
  uint64_t Hits = After.Hits - Before.Hits;
  EXPECT_GT(Hits, 100u) << Probes;
  EXPECT_LT(Hits, Probes / 2) << "the second pass must also miss";
}

TEST(ComputedTableTest, UndefinedResultsAreCachedAsUndefined) {
  PCMVal Own = PCMVal::mutexOwn();
  PCMVal S12 = PCMVal::ofPtrSet({Ptr(1), Ptr(2)});
  PCMVal S23 = PCMVal::ofPtrSet({Ptr(2), Ptr(3)});
  Heap H1 = Heap::singleton(Ptr(4), Val::ofInt(1));
  Heap H1b = Heap::singleton(Ptr(4), Val::ofInt(2));
  History Hist1 = histOf({{1, 0, 1}});
  History Hist1b = histOf({{1, 5, 6}});
  ComputedTableStats Before = tableStats("pcmval.join");
  for (int Round = 0; Round != 3; ++Round) {
    EXPECT_FALSE(PCMVal::join(Own, Own)) << Round;
    EXPECT_FALSE(PCMVal::join(S12, S23)) << Round;
    EXPECT_FALSE(
        PCMVal::join(PCMVal::ofHeap(H1), PCMVal::ofHeap(H1b)))
        << Round;
    EXPECT_FALSE(
        PCMVal::join(PCMVal::ofHist(Hist1), PCMVal::ofHist(Hist1b)))
        << Round;
    EXPECT_FALSE(Heap::join(H1, H1b)) << Round;
    EXPECT_FALSE(History::join(Hist1, Hist1b)) << Round;
    // A product is undefined when either component is.
    EXPECT_FALSE(PCMVal::join(PCMVal::makePair(Own, S12),
                              PCMVal::makePair(PCMVal::mutexFree(), S23)))
        << Round;
  }
  // The later rounds are served from the table: five top-level joins per
  // round, so at least ten hits.
  EXPECT_GE(tableStats("pcmval.join").Hits - Before.Hits, 10u);
  // A defined join of the same operands in the other order still
  // succeeds where it should.
  EXPECT_EQ(PCMVal::join(Own, PCMVal::mutexFree()), Own);
}

TEST(ComputedTableTest, LiftedUndefinedElementIsCached) {
  PCMTypeRef Ty = PCMType::lifted(PCMType::mutex());
  PCMVal Undef = PCMVal::liftUndef(Ty);
  PCMVal Own = PCMVal::liftDef(PCMVal::mutexOwn());
  PCMVal Free = PCMVal::liftDef(PCMVal::mutexFree());
  for (int Round = 0; Round != 3; ++Round) {
    // Absorption: undefined joins to undefined, and a failing inner join
    // becomes the undefined element.
    EXPECT_EQ(PCMVal::join(Undef, Own), Undef) << Round;
    EXPECT_EQ(PCMVal::join(Free, Undef), Undef) << Round;
    EXPECT_EQ(PCMVal::join(Own, Own), Undef) << Round;
    EXPECT_EQ(PCMVal::join(Own, Free), Own) << Round;
    EXPECT_EQ(PCMVal::join(PCMVal::liftDef(PCMVal::ofNat(1)),
                           PCMVal::liftDef(PCMVal::ofNat(2))),
              PCMVal::liftDef(PCMVal::ofNat(3)))
        << Round;
    std::optional<PCMVal> U = PCMVal::join(Undef, Undef);
    ASSERT_TRUE(U);
    EXPECT_TRUE(U->isLiftUndef());
    EXPECT_FALSE(U->isValid());
  }
}

TEST(ComputedTableTest, ThreadsGetTheSameCanonicalHandles) {
  // Each thread has its own tables, filled in its own order; the results
  // are arena nodes, so every thread must see the same handles. The
  // threads' counters survive their exit.
  constexpr int NumThreads = 8;
  constexpr int PerThreadOps = 1500;
  struct Results {
    std::vector<PCMVal> Joins = std::vector<PCMVal>(PerThreadOps);
    std::vector<Heap> Heaps = std::vector<Heap>(PerThreadOps);
    std::vector<History> Hists = std::vector<History>(PerThreadOps);
  };
  std::vector<Results> PerThread(NumThreads);
  ComputedTableStats Before = tableStats("heap.update");
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&PerThread, T] {
      Results &R = PerThread[T];
      for (int J = 0; J != PerThreadOps; ++J) {
        // Threads walk the same keys from different starting points.
        int I = (J + T * 97) % PerThreadOps;
        std::optional<PCMVal> P = PCMVal::join(
            PCMVal::makePair(PCMVal::ofNat(I % 64),
                             PCMVal::liftDef(PCMVal::ofNat(I % 7))),
            PCMVal::makePair(PCMVal::ofNat(I % 5),
                             PCMVal::liftDef(PCMVal::ofNat(1))));
        ASSERT_TRUE(P);
        R.Joins[I] = *P;
        Heap H = Heap::singleton(Ptr(1 + I % 3), Val::ofInt(I % 11));
        H.update(Ptr(1 + I % 3), Val::ofInt(I % 13));
        std::optional<Heap> HJ =
            Heap::join(H, Heap::singleton(Ptr(9), Val::ofInt(I % 17)));
        ASSERT_TRUE(HJ);
        R.Heaps[I] = *HJ;
        History Hist = histOf({{1, 0, I % 19}});
        Hist.add(2, HistEntry{Val::ofInt(I % 19), Val::ofInt(I % 23)});
        std::optional<History> HistJ =
            History::join(Hist, histOf({{3, I % 23, I % 29}}));
        ASSERT_TRUE(HistJ);
        R.Hists[I] = *HistJ;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int T = 1; T != NumThreads; ++T)
    for (int I = 0; I != PerThreadOps; ++I) {
      ASSERT_EQ(PerThread[0].Joins[I], PerThread[T].Joins[I]) << T << ' ' << I;
      ASSERT_EQ(PerThread[0].Heaps[I], PerThread[T].Heaps[I]) << T << ' ' << I;
      ASSERT_EQ(PerThread[0].Hists[I], PerThread[T].Hists[I]) << T << ' ' << I;
    }
  EXPECT_GE(tableStats("heap.update").Probes - Before.Probes,
            uint64_t{NumThreads} * PerThreadOps);
}

} // namespace
