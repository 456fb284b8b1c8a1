//===- tests/symmetry_test.cpp - Symmetry-reduction tests ------------------===//
//
// Part of fcsl-cpp. Exercises the orbit-canonicalization layer of
// DESIGN.md §11: the thread/pointer renaming primitives it is built on,
// strict state-space reduction on programs with interchangeable sibling
// threads (including a nested par tree whose orbits have up to 2^3
// members), stability of the canonical space across job counts, the
// `--symmetry=check` soundness oracle over the Table 1 sessions, and
// composition with partial-order reduction. Part of the TSan stage of
// scripts/verify.sh.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Entangle.h"
#include "concurroid/Priv.h"
#include "prog/Engine.h"
#include "state/PtrCanon.h"
#include "structures/CgIncrement.h"
#include "structures/Suite.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Ct = 2;
const Ptr Cell = Ptr(1);

/// The toy counter world of engine_test: joint cell &1 == sum of the
/// per-thread nat contributions. Closed world (no env transition), which
/// keeps the interleaving spaces small and fully symmetric.
struct CounterWorld {
  ConcurroidRef C;
  ActionRef Incr; ///< () -> old value; bumps cell and self.
  ActionRef Read; ///< () -> value.
  DefTable Defs;
};

CounterWorld makeCounterWorld() {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Ct))
      return false;
    const Val *V = S.joint(Ct).tryLookup(Cell);
    if (!V || !V->isInt())
      return false;
    return V->getInt() == static_cast<int64_t>(S.self(Ct).getNat() +
                                               S.other(Ct).getNat());
  };
  auto C =
      makeConcurroid("Counter", {OwnedLabel{Ct, "ct", PCMType::nat()}}, Coh);
  C->addTransition(Transition(
      "bump", TransitionKind::Internal,
      [](const View &) -> std::vector<View> { return {}; },
      [](const View &Pre, const View &Post) {
        if (!Pre.hasLabel(Ct) || !Post.hasLabel(Ct))
          return false;
        for (Label L : Pre.labels())
          if (L != Ct && !(Pre.slice(L) == Post.slice(L)))
            return false;
        return Post.joint(Ct).lookup(Cell).getInt() ==
                   Pre.joint(Ct).lookup(Cell).getInt() + 1 &&
               Post.self(Ct).getNat() == Pre.self(Ct).getNat() + 1 &&
               Pre.other(Ct) == Post.other(Ct);
      }));

  CounterWorld World;
  World.C = entangle(makePriv(Pv), C);

  World.Incr = makeAction(
      "incr", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V)
          return std::nullopt;
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.update(Cell, Val::ofInt(V->getInt() + 1));
        Post.setJoint(Ct, std::move(Joint));
        Post.setSelf(Ct, PCMVal::ofNat(Pre.self(Ct).getNat() + 1));
        return std::vector<ActOutcome>{{*V, std::move(Post)}};
      });

  World.Read = makeAction(
      "read", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V)
          return std::nullopt;
        return std::vector<ActOutcome>{{*V, Pre}};
      });
  return World;
}

GlobalState counterState(int64_t Initial = 0) {
  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Ct, PCMType::nat(),
              Heap::singleton(Cell, Val::ofInt(Initial)), PCMVal::ofNat(0),
              false);
  return GS;
}

EngineOptions optsFor(const CounterWorld &W) {
  EngineOptions Opts;
  Opts.Ambient = W.C;
  Opts.EnvInterference = false;
  Opts.Defs = &W.Defs;
  Opts.Jobs = 1;
  return Opts;
}

/// par(incr, incr): one pair of interchangeable siblings (orbit size 2).
ProgRef symmetricPair(const CounterWorld &W) {
  // Sharing the leaf node is not required — two separate `act` nodes are
  // recognized as equivalent structurally.
  return Prog::par(Prog::act(W.Incr, {}), Prog::act(W.Incr, {}));
}

/// par(D, D) where D = par(incr, incr): a nested symmetric par tree with
/// three interchangeable sibling pairs, so orbits reach 2^3 = 8 members
/// (the k!-class instance of the acceptance criteria). The subtrees are
/// the *same node*: par subtrees are opaque to structural comparison
/// (their split closures cannot be compared), so sharing is how a
/// symmetric nested tree is expressed.
ProgRef symmetricQuad(const CounterWorld &W) {
  ProgRef Leaf = Prog::act(W.Incr, {});
  ProgRef Inner = Prog::par(Leaf, Leaf);
  return Prog::par(Inner, Inner);
}

bool sameTerminals(const RunResult &A, const RunResult &B) {
  if (A.Terminals.size() != B.Terminals.size())
    return false;
  for (size_t I = 0; I != A.Terminals.size(); ++I)
    if (A.Terminals[I] < B.Terminals[I] || B.Terminals[I] < A.Terminals[I])
      return false;
  return true;
}

/// Restores the process-default symmetry mode on scope exit.
struct SymModeGuard {
  ~SymModeGuard() { setDefaultSymmetryMode(SymMode::Off); }
};

/// Canonicalizes a GlobalState through the two-pass PtrCanon protocol
/// (collect, beginRename, re-visit) and applies the mapping.
GlobalState canonicalState(const GlobalState &GS, const std::set<Ptr> &Pinned,
                           std::map<Ptr, Ptr> *MappingOut = nullptr) {
  PtrCanon Canon(Pinned);
  Canon.visit(GS);
  Canon.beginRename();
  Canon.visit(GS);
  if (MappingOut)
    *MappingOut = Canon.mapping();
  GlobalState Out = GS;
  Out.renamePtrs(Canon.mapping());
  return Out;
}

const Ptr ListSnt = Ptr(100);

/// A two-node cons list [7, 7] headed by the pinned sentinel, with the
/// node cells drawn from the given (arbitrary) names — the shape every
/// fresh-allocation workload produces, parameterized by allocation order.
GlobalState listState(Ptr First, Ptr Second) {
  Heap J;
  J.insert(First, Val::pair(Val::ofInt(7), Val::ofPtr(Second)));
  J.insert(Second, Val::pair(Val::ofInt(7), Val::ofPtr(Ptr::null())));
  J.insert(ListSnt, Val::ofPtr(First));
  GlobalState GS;
  GS.addLabel(Ct, PCMType::nat(), std::move(J), PCMVal::ofNat(0), false);
  return GS;
}

} // namespace

//===----------------------------------------------------------------------===//
// The renaming primitives the canonicalizer is built on.
//===----------------------------------------------------------------------===//

TEST(RenameTest, RenameThreadsSwapsContributions) {
  GlobalState GS = counterState(3);
  GS.setSelf(Ct, ThreadId(2), PCMVal::ofNat(1));
  GS.setSelf(Ct, ThreadId(3), PCMVal::ofNat(2));
  GS.renameThreads({{ThreadId(2), ThreadId(3)}, {ThreadId(3), ThreadId(2)}});
  EXPECT_EQ(GS.viewFor(ThreadId(2)).self(Ct).getNat(), 2u);
  EXPECT_EQ(GS.viewFor(ThreadId(3)).self(Ct).getNat(), 1u);
  // Threads absent from the map keep their contribution; the swap is an
  // involution.
  GS.renameThreads({{ThreadId(2), ThreadId(3)}, {ThreadId(3), ThreadId(2)}});
  EXPECT_EQ(GS.viewFor(ThreadId(2)).self(Ct).getNat(), 1u);
  EXPECT_EQ(GS.viewFor(ThreadId(3)).self(Ct).getNat(), 2u);
  // The joint heap and the subjective *sum* are untouched by renaming.
  EXPECT_EQ(GS.viewFor(ThreadId(2)).joint(Ct).lookup(Cell).getInt(), 3);
  EXPECT_EQ(GS.viewFor(ThreadId(2)).other(Ct).getNat(), 2u);
}

TEST(RenameTest, RenamePtrsRewritesValuesAndHeaps) {
  Val Nested = Val::pair(Val::ofPtr(Ptr(1)),
                         Val::pair(Val::ofInt(7), Val::ofPtr(Ptr(2))));
  Val Renamed = Nested.renamePtrs({{Ptr(1), Ptr(5)}});
  EXPECT_EQ(Renamed.first().getPtr(), Ptr(5));
  EXPECT_EQ(Renamed.second().second().getPtr(), Ptr(2));

  GlobalState GS = counterState(0);
  GS.renamePtrs({{Cell, Ptr(9)}});
  EXPECT_FALSE(GS.viewFor(rootThread()).joint(Ct).contains(Cell));
  EXPECT_EQ(GS.viewFor(rootThread()).joint(Ct).lookup(Ptr(9)).getInt(), 0);
}

//===----------------------------------------------------------------------===//
// Strict reduction with bit-identical observable behavior.
//===----------------------------------------------------------------------===//

TEST(SymmetryTest, SiblingPairCollapsesToOneOrbitPerLevel) {
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  ProgRef Main = symmetricPair(W);
  Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(Main, counterState(), Opts);
  Opts.Symmetry = SymMode::On;
  RunResult Canon = explore(Main, counterState(), Opts);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Canon.Safe);
  EXPECT_EQ(Full.Exhausted, Canon.Exhausted);
  EXPECT_TRUE(sameTerminals(Full, Canon));
  EXPECT_EQ(Canon.Reduction.Sym, SymMode::On);
  EXPECT_EQ(Full.Reduction.Sym, SymMode::Off);
  EXPECT_LT(Canon.ConfigsExplored, Full.ConfigsExplored)
      << Canon.ConfigsExplored << " canonical vs " << Full.ConfigsExplored
      << " full configurations";
}

TEST(SymmetryTest, NestedParTreeCollapsesFactorialOrbits) {
  // The k!-class instance: three interchangeable sibling pairs; orbits of
  // the mid-exploration configurations reach 8 members.
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  ProgRef Main = symmetricQuad(W);
  Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(Main, counterState(), Opts);
  Opts.Symmetry = SymMode::On;
  RunResult Canon = explore(Main, counterState(), Opts);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Canon.Safe);
  EXPECT_TRUE(sameTerminals(Full, Canon));
  // Re-pinned for k-ary orbit groups: the four leaves form one flat group
  // (the binary pass managed 35 canonical configs; k-ary content-sorting
  // plus mirror-terminal short-circuiting reaches 5).
  EXPECT_EQ(Full.ConfigsExplored, 65u);
  EXPECT_EQ(Canon.ConfigsExplored, 5u);
  // The canonicalizer actually rewrote configurations (orbit-size proxy),
  // and the flattened par spine was detected as one 4-ary group.
  SymmetryStats Stats = symmetryStats();
  EXPECT_GT(Stats.Lookups, 0u);
  EXPECT_GT(Stats.Changed, 0u);
  EXPECT_GT(Stats.Groups, 0u);
  EXPECT_GE(Stats.GroupPeak, 4u);
}

TEST(SymmetryTest, CgIncrementSessionHoldsItsOrbitRatioFloor) {
  // The CG increment session's 3-ary par spine folds its 3! schedules:
  // its canonical space must stay at most 0.70 of the full one (0.594
  // today). Each run names its modes, so no process default is touched.
  VerificationSession Session = makeCgIncrementSession();
  auto ConfigsUnder = [&Session](SymMode Sym) {
    uint64_t Before = totalConfigsExplored();
    SessionReport R =
        Session.run({PorMode::Off, Sym, cache::CacheMode::Off}, /*Jobs=*/1);
    EXPECT_TRUE(R.AllPassed) << symModeName(Sym);
    return totalConfigsExplored() - Before;
  };
  uint64_t Full = ConfigsUnder(SymMode::Off);
  uint64_t Canonical = ConfigsUnder(SymMode::On);
  ASSERT_GT(Full, 0u);
  EXPECT_LE(static_cast<double>(Canonical) / static_cast<double>(Full), 0.70)
      << Canonical << " canonical vs " << Full << " full configurations";
}

TEST(SymmetryTest, AsymmetricSiblingsAreLeftAlone) {
  // par(incr, read): the siblings run different programs, so no swap is
  // available and the canonical space equals the full space.
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  ProgRef Main =
      Prog::par(Prog::act(W.Incr, {}), Prog::act(W.Read, {}));
  Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(Main, counterState(), Opts);
  Opts.Symmetry = SymMode::On;
  RunResult Canon = explore(Main, counterState(), Opts);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Canon.Safe);
  EXPECT_TRUE(sameTerminals(Full, Canon));
  EXPECT_EQ(Full.ConfigsExplored, Canon.ConfigsExplored);
}

TEST(SymmetryTest, EnvSentinelIsNeverRenamed) {
  // A thread binds a token pointer that names no cell, then allocates a
  // fresh cell and reads. Before the allocation the state has no fresh
  // cells, so canonicalization skips the renaming walk; after it the walk
  // renames the cell. The token sits in the thread's env throughout and
  // comes back as the result, never renamed.
  CounterWorld W = makeCounterWorld();
  const Ptr Token = Ptr(42);
  const Ptr Fresh = Ptr(9);
  ActionRef MakeToken = makeAction(
      "token", W.C, 0,
      [Token](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{{Val::ofPtr(Token), Pre}};
      });
  ActionRef Alloc = makeAction(
      "alloc", W.C, 0,
      [Fresh](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.insert(Fresh, Val::ofInt(5));
        Post.setJoint(Ct, std::move(Joint));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });
  ProgRef Main = Prog::bind(
      Prog::act(MakeToken, {}), "t",
      Prog::bind(Prog::act(Alloc, {}), "_",
                 Prog::bind(Prog::act(W.Read, {}), "_",
                            Prog::ret(Expr::var("t")))));
  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::On;
  SymmetryStats Before = symmetryStats();
  RunResult R = explore(Main, counterState(), Opts);
  SymmetryStats After = symmetryStats();
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  ASSERT_EQ(R.Terminals.size(), 1u);
  const Terminal &T = R.Terminals.front();
  EXPECT_EQ(T.Result, Val::ofPtr(Token));
  // &1 is pinned (initial state) and &42 is avoided (a seen non-cell
  // name), so the fresh cell takes canonical id 2.
  EXPECT_EQ(T.FinalView.joint(Ct).tryLookup(Fresh), nullptr);
  ASSERT_NE(T.FinalView.joint(Ct).tryLookup(Ptr(2)), nullptr);
  EXPECT_EQ(T.FinalView.joint(Ct).lookup(Ptr(2)), Val::ofInt(5));
  // The seed is looked up once, in enqueue.
  EXPECT_EQ(After.Lookups - Before.Lookups, 4u);
  EXPECT_EQ(After.Renames - Before.Renames, 1u);
}

TEST(SymmetryTest, TreiberStackPinsItsOrbitCounters) {
  // The one session whose states hold fresh cells, under POR plus
  // symmetry at one job; the counts are the ones the renaming walk
  // produced when it ran on every lookup, less one lookup per seed (a
  // seed is canonicalized once, in enqueue). Its explorations decline POR
  // (no Treiber step is statically a local move), so the plain engine's
  // successors are canonicalized: one lookup more than the sleep-set
  // run's 136.
  for (const CaseEntry &Case : allVerifiableSessions()) {
    if (Case.Name != "Treiber stack")
      continue;
    SymmetryStats Before = symmetryStats();
    SessionReport Report = Case.MakeSession().run(
        {PorMode::On, SymMode::On, cache::CacheMode::Off}, /*Jobs=*/1);
    SymmetryStats After = symmetryStats();
    EXPECT_TRUE(Report.AllPassed);
    EXPECT_EQ(After.Lookups - Before.Lookups, 137u);
    EXPECT_EQ(After.Changed - Before.Changed, 9u);
    EXPECT_EQ(After.Renames - Before.Renames, 4u);
    return;
  }
  FAIL() << "no Treiber stack session";
}

TEST(SymmetryTest, ThreadStepMemoServesSymmetryRuns) {
  // A symmetric pair beside a reader. The reader steps from the same
  // context and global state along several schedules, so the thread-step
  // memo serves it under symmetry too. The pair's steps finish their
  // threads and resolve the orbit group, which rewrites other threads, so
  // they are never recorded. The counters are the ones the engine counted
  // before the memo served symmetry runs.
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  ProgRef Main =
      Prog::par(symmetricPair(W), Prog::bind(Prog::act(W.Read, {}), "_",
                                             Prog::act(W.Read, {})));
  Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(Main, counterState(), Opts);
  Opts.Symmetry = SymMode::On;
  SymmetryStats Before = symmetryStats();
  RunResult Canon = explore(Main, counterState(), Opts);
  SymmetryStats After = symmetryStats();
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Canon.complete()) << Canon.FailureNote;
  EXPECT_TRUE(sameTerminals(Full, Canon));
  EXPECT_GT(After.Groups - Before.Groups, 0u);
  EXPECT_GT(Canon.StepMemoHits, 0u);
  EXPECT_GT(Canon.StepMemoEntries, 0u);
  EXPECT_EQ(Canon.ConfigsExplored, 15u);
  EXPECT_EQ(Canon.ActionSteps, 18u);
  EXPECT_EQ(Canon.DedupHits, 6u);
  Opts.Jobs = 4;
  EXPECT_EQ(explore(Main, counterState(), Opts).counters(), Canon.counters());
}

TEST(SymmetryTest, LastSlotOfAThreeSlotSpineWakesTheRoot) {
  // par(S, par(S, S)) is one flat orbit group of three slots: root 1,
  // interior 3, slots 2, 6 and 7. Finished slots sort first, so the last
  // slot to run is always under the interior: its step finishes it, the
  // waiting interior passes that on, and the root resolves the group in
  // the same cascade. The counters are the ones the engine counted when
  // it rescanned every thread after each step.
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  ProgRef Slot =
      Prog::bind(Prog::act(W.Read, {}), "_", Prog::act(W.Incr, {}));
  ProgRef Main = Prog::par(Slot, Prog::par(Slot, Slot));
  Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(Main, counterState(), Opts);
  Opts.Symmetry = SymMode::On;
  SymmetryStats Before = symmetryStats();
  RunResult Canon = explore(Main, counterState(), Opts);
  SymmetryStats After = symmetryStats();
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Canon.complete()) << Canon.FailureNote;
  EXPECT_TRUE(sameTerminals(Full, Canon));
  EXPECT_GT(After.Groups - Before.Groups, 0u);
  EXPECT_GE(After.GroupPeak, 3u);
  EXPECT_EQ(Full.ConfigsExplored, 38u);
  EXPECT_EQ(Canon.ConfigsExplored, 10u);
  EXPECT_EQ(Canon.ActionSteps, 20u);
  EXPECT_EQ(Canon.DedupHits, 11u);
  EXPECT_EQ(Canon.Terminals.size(), 6u);
  Opts.Jobs = 4;
  RunResult Par = explore(Main, counterState(), Opts);
  EXPECT_EQ(Par.counters(), Canon.counters());
  EXPECT_TRUE(sameTerminals(Par, Canon));
}

//===----------------------------------------------------------------------===//
// Canonical representatives are deterministic: idempotent across repeated
// runs and independent of discovery order (job count).
//===----------------------------------------------------------------------===//

TEST(SymmetryTest, CanonicalSpaceIsStableAcrossJobCounts) {
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::On;
  ProgRef Main = symmetricQuad(W);
  RunResult Serial = explore(Main, counterState(), Opts);
  ASSERT_TRUE(Serial.complete());
  for (unsigned Jobs : {1u, 2u, 8u}) {
    Opts.Jobs = Jobs;
    RunResult Par = explore(Main, counterState(), Opts);
    EXPECT_EQ(Serial.Safe, Par.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(Serial, Par)) << Jobs << " jobs";
    // Discovery order differs across workers, yet every orbit resolves to
    // the same representative: the canonical config count is identical.
    EXPECT_EQ(Serial.ConfigsExplored, Par.ConfigsExplored) << Jobs << " jobs";
    EXPECT_EQ(Serial.ActionSteps, Par.ActionSteps) << Jobs << " jobs";
  }
}

TEST(SymmetryTest, RepeatedRunsAreBitIdentical) {
  // Canonicalization is a pure function of the configuration: repeated
  // explorations agree exactly (idempotence at the state-space level).
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::On;
  ProgRef Main = symmetricQuad(W);
  RunResult A = explore(Main, counterState(), Opts);
  RunResult B = explore(Main, counterState(), Opts);
  EXPECT_EQ(A.Safe, B.Safe);
  EXPECT_EQ(A.ConfigsExplored, B.ConfigsExplored);
  EXPECT_EQ(A.ActionSteps, B.ActionSteps);
  EXPECT_TRUE(sameTerminals(A, B));
}

//===----------------------------------------------------------------------===//
// The terminal pointer abstraction: canonical fresh-pointer numbering is
// allocation-order independent, a fixpoint, token-safe, codec-stable and
// process-stable.
//===----------------------------------------------------------------------===//

TEST(PtrCanonTest, NumberingIsAllocationOrderIndependent) {
  // The same abstract list drawn with different allocation orders — the
  // canonical forms must coincide exactly.
  GlobalState A = listState(Ptr(5), Ptr(3));
  GlobalState B = listState(Ptr(2), Ptr(4));
  std::set<Ptr> Pinned{ListSnt};
  GlobalState CanonA = canonicalState(A, Pinned);
  GlobalState CanonB = canonicalState(B, Pinned);
  EXPECT_EQ(CanonA, CanonB);
  // The sentinel kept its name; the head node got the first canonical id.
  EXPECT_EQ(CanonA.joint(Ct).lookup(ListSnt).getPtr(), Ptr(1));
}

TEST(PtrCanonTest, CanonicalFormIsAFixpoint) {
  std::set<Ptr> Pinned{ListSnt};
  GlobalState Canon = canonicalState(listState(Ptr(9), Ptr(6)), Pinned);
  // Re-canonicalizing the canonical form changes nothing (idempotence) —
  // and the PtrCanon itself reports identity.
  PtrCanon Again(Pinned);
  Again.visit(Canon);
  Again.beginRename();
  Again.visit(Canon);
  EXPECT_TRUE(Again.identity());
  GlobalState Twice = Canon;
  Twice.renamePtrs(Again.mapping());
  EXPECT_EQ(Twice, Canon);
}

TEST(PtrCanonTest, SentinelTokensAreNeverRenamed) {
  // Pointers that occur only as values and never name a heap cell are
  // concurroid encoding tokens (the ticket lock's tickets): the renaming
  // must leave them alone AND must not collide canonical ids with them.
  GlobalState GS = listState(Ptr(5), Ptr(3));
  GS.addLabel(Ct + 1, PCMType::ptrSet(), Heap(),
              PCMVal::ofPtrSet({Ptr(1), Ptr(8000)}), false);
  std::map<Ptr, Ptr> M;
  GlobalState Canon = canonicalState(GS, {ListSnt}, &M);
  EXPECT_EQ(M.count(Ptr(8000)), 0u);
  EXPECT_EQ(M.count(Ptr(1)), 0u);
  // Token &1 occupies the id the head cell would otherwise take: the
  // numbering skips to 2.
  EXPECT_EQ(Canon.joint(Ct).lookup(ListSnt).getPtr(), Ptr(2));
  EXPECT_EQ(Canon.envSelf(Ct + 1).getPtrSet().count(Ptr(8000)), 1u);
}

TEST(PtrCanonTest, FreshCellsAreUnpinnedHeapCells) {
  // The renameable domain is the unpinned cells of the state's heaps;
  // pointers that only occur as values (the token set) do not count.
  GlobalState GS = listState(Ptr(5), Ptr(3));
  GS.addLabel(Ct + 1, PCMType::ptrSet(), Heap(),
              PCMVal::ofPtrSet({Ptr(1), Ptr(8000)}), false);
  EXPECT_TRUE(PtrCanon::hasFreshCells(GS, {ListSnt}));
  EXPECT_TRUE(PtrCanon::hasFreshCells(GS, {ListSnt, Ptr(5)}));
  EXPECT_FALSE(PtrCanon::hasFreshCells(GS, {ListSnt, Ptr(5), Ptr(3)}));
  // A heap-valued PCM contribution is a heap too.
  GlobalState Own;
  Own.addLabel(Pv, PCMType::heap(), Heap(),
               PCMVal::ofHeap(Heap::singleton(Ptr(6), Val::ofInt(0))),
               false);
  EXPECT_TRUE(PtrCanon::hasFreshCells(Own, {}));
  EXPECT_FALSE(PtrCanon::hasFreshCells(Own, {Ptr(6)}));
}

TEST(PtrCanonTest, CanonicalFormsRoundTripThroughCodec) {
  // The canonical form (renamed state plus k-ary group markers) must
  // survive the codec.
  GlobalState Canon =
      canonicalState(listState(Ptr(5), Ptr(3)), {ListSnt});
  Encoder E;
  encodeHeader(E);
  encode(E, Canon);
  Decoder D(E.buffer());
  ASSERT_TRUE(decodeHeader(D));
  GlobalState Out = decodeGlobalState(D);
  ASSERT_FALSE(D.failed());
  EXPECT_EQ(Out, Canon);
}

TEST(SymmetryTest, CanonicalSpaceIsProcessStable) {
  // Re-executes this binary (exec, not fork: fresh address space, fresh
  // intern arenas, fresh ASLR) and compares a full canonical-exploration
  // dump byte for byte — the cross-process contract that lets canonical
  // fingerprints drive cache keys.
  auto Dump = [] {
    CounterWorld W = makeCounterWorld();
    EngineOptions Opts = optsFor(W);
    Opts.Symmetry = SymMode::On;
    RunResult R = explore(symmetricQuad(W), counterState(), Opts);
    std::ostringstream Out;
    Out << "configs=" << R.ConfigsExplored << " steps=" << R.ActionSteps
        << " safe=" << R.Safe << "\n";
    for (const Terminal &T : R.Terminals) {
      Encoder E;
      encode(E, T.Result);
      encode(E, T.FinalView);
      Out << "terminal:";
      for (uint8_t B : E.buffer())
        Out << ' ' << unsigned(B);
      Out << "\n";
    }
    return Out.str();
  };
  if (const char *DumpPath = std::getenv("FCSL_SYMMETRY_TEST_DUMP")) {
    std::ofstream Out(DumpPath);
    ASSERT_TRUE(Out.good());
    Out << Dump();
    return;
  }
  char Template[] = "/tmp/fcsl-sym-XXXXXX";
  int Fd = ::mkstemp(Template);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  std::string Path = Template;
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::setenv("FCSL_SYMMETRY_TEST_DUMP", Path.c_str(), 1);
    execl("/proc/self/exe", "symmetry_test",
          "--gtest_filter=SymmetryTest.CanonicalSpaceIsProcessStable",
          "--gtest_brief=1", static_cast<char *>(nullptr));
    std::_Exit(127); // exec failed.
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "child canonical-dump process failed";
  std::ifstream In(Path);
  std::stringstream ChildDump;
  ChildDump << In.rdbuf();
  std::remove(Path.c_str());
  std::string Mine = Dump();
  EXPECT_FALSE(Mine.empty());
  EXPECT_EQ(ChildDump.str(), Mine);
}

//===----------------------------------------------------------------------===//
// The soundness oracle: canonical exploration cross-validated against the
// plain engine, exactly like --por=check.
//===----------------------------------------------------------------------===//

TEST(SymmetryCheckTest, CheckModeCrossValidates) {
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::Check;
  RunResult R = explore(symmetricQuad(W), counterState(), Opts);
  EXPECT_TRUE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_GT(R.Reduction.Oracle.PlainConfigs, 0u);
  EXPECT_GT(R.Reduction.Oracle.ReducedConfigs, 0u);
  EXPECT_LT(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // The oracle reports the *plain* run (the ground truth).
  EXPECT_EQ(R.Reduction.Sym, SymMode::On);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(SymmetryCheckTest, DefaultModeFollowsProcessDefault) {
  SymModeGuard Guard;
  CounterWorld W = makeCounterWorld();
  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::Default;
  setDefaultSymmetryMode(SymMode::On);
  RunResult Canon = explore(symmetricPair(W), counterState(), Opts);
  setDefaultSymmetryMode(SymMode::Off);
  RunResult Full = explore(symmetricPair(W), counterState(), Opts);
  EXPECT_EQ(Canon.Reduction.Sym, SymMode::On);
  EXPECT_EQ(Full.Reduction.Sym, SymMode::Off);
  EXPECT_TRUE(sameTerminals(Canon, Full));
}

TEST(SymmetryCheckTest, EveryTableOneSessionPassesUnderCheck) {
  // The acceptance gate: every Table 1 session discharges identically in
  // the canonical and the full space. Sessions run their engine calls
  // with SymMode::Default, so the process default routes them all
  // through the soundness oracle.
  SymModeGuard Guard;
  setDefaultSymmetryMode(SymMode::Check);
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = Case.MakeSession().run();
    EXPECT_TRUE(Report.AllPassed) << Case.Name << ": "
                                  << (Report.Failures.empty()
                                          ? std::string("(no failure note)")
                                          : Report.Failures.front());
  }
}

//===----------------------------------------------------------------------===//
// Composition: symmetry × POR against the plain engine.
//===----------------------------------------------------------------------===//

TEST(SymmetryComposeTest, SymmetryAndPorMatchThePlainEngine) {
  CounterWorld W = makeCounterWorld();
  ProgRef Main = symmetricQuad(W);
  EngineOptions Plain = optsFor(W);
  Plain.Symmetry = SymMode::Off;
  Plain.Por = PorMode::Off;
  RunResult Baseline = explore(Main, counterState(), Plain);
  ASSERT_TRUE(Baseline.Safe);

  EngineOptions Opts = optsFor(W);
  Opts.Symmetry = SymMode::On;
  Opts.Por = PorMode::On;
  RunResult Local = explore(Main, counterState(), Opts);
  EXPECT_TRUE(Local.Safe);
  EXPECT_EQ(Baseline.Exhausted, Local.Exhausted);
  EXPECT_TRUE(sameTerminals(Baseline, Local));
  EXPECT_LE(Local.ConfigsExplored, Baseline.ConfigsExplored);
}

TEST(SymmetryComposeTest, CheckComposesWithPorOnTableOneStructure) {
  // Both reductions in check mode at once on a real structure: one
  // oracle run per exploration, the plain engine against POR and
  // symmetry composed.
  SymModeGuard Guard;
  setDefaultSymmetryMode(SymMode::Check);
  setDefaultPorMode(PorMode::Check);
  SessionReport Report;
  OracleTotals Before = oracleTotals();
  uint64_t ConfigsBefore = totalConfigsExplored();
  for (const CaseEntry &Case : allCaseStudies())
    if (Case.Name == "CG increment")
      Report = Case.MakeSession().run();
  OracleTotals After = oracleTotals();
  setDefaultPorMode(PorMode::Off);
  EXPECT_EQ(Report.Program, "CG increment");
  EXPECT_TRUE(Report.AllPassed)
      << (Report.Failures.empty() ? std::string("(no failure note)")
                                  : Report.Failures.front());
  // Every config the session explored belongs to an oracle run's plain
  // or reduced exploration: no nested per-reduction sub-runs.
  EXPECT_GT(After.Runs, Before.Runs);
  EXPECT_EQ(After.Mismatches, Before.Mismatches);
  EXPECT_EQ(totalConfigsExplored() - ConfigsBefore,
            (After.PlainConfigs - Before.PlainConfigs) +
                (After.ReducedConfigs - Before.ReducedConfigs));
}

TEST(SymmetryComposeTest, CombinedCheckModesRunOnePlainAndOneReducedRun) {
  // --por=check --symmetry=check on one exploration: exactly one oracle
  // run, whose plain side is the (Off, Off) engine and whose reduced side
  // is POR and symmetry composed. The returned result is the plain run.
  CounterWorld W = makeCounterWorld();
  ProgRef Main = symmetricQuad(W);
  EngineOptions Opts = optsFor(W);
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  RunResult Plain = explore(Main, counterState(), Opts);
  Opts.Por = PorMode::On;
  Opts.Symmetry = SymMode::On;
  RunResult Reduced = explore(Main, counterState(), Opts);

  Opts.Por = PorMode::Check;
  Opts.Symmetry = SymMode::Check;
  OracleTotals Before = oracleTotals();
  uint64_t ConfigsBefore = totalConfigsExplored();
  RunResult R = explore(Main, counterState(), Opts);
  OracleTotals After = oracleTotals();
  EXPECT_TRUE(R.Safe) << R.FailureNote;
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_EQ(After.Runs - Before.Runs, 1u);
  EXPECT_EQ(After.PlainConfigs - Before.PlainConfigs, Plain.ConfigsExplored);
  EXPECT_EQ(After.ReducedConfigs - Before.ReducedConfigs,
            Reduced.ConfigsExplored);
  EXPECT_EQ(totalConfigsExplored() - ConfigsBefore,
            Plain.ConfigsExplored + Reduced.ConfigsExplored);
  EXPECT_LT(Reduced.ConfigsExplored, Plain.ConfigsExplored);
  EXPECT_EQ(R.ConfigsExplored, Plain.ConfigsExplored);
  EXPECT_EQ(R.ActionSteps, Plain.ActionSteps);
  EXPECT_TRUE(sameTerminals(R, Plain));
}
