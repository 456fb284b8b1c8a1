//===- tests/por_independence_test.cpp - Partial-order reduction -----------===//
//
// Part of fcsl-cpp. The footprint independence relation behind the
// engine's partial-order reduction (DESIGN.md §9), and the reduction's
// observational-equivalence contract: same Safe verdict, same sorted
// Terminals, same failure detection as the full exploration, bit-identical
// across job counts — with strictly fewer configurations where actions
// commute.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphGen.h"
#include "prog/Engine.h"
#include "structures/CgAllocator.h"
#include "structures/PairSnapshot.h"
#include "structures/SpanTree.h"
#include "structures/SpinLock.h"
#include "structures/TreiberStack.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Sp = 2;
// SpanTree's graph-cell field masks (structures/SpanTree.cpp).
constexpr uint8_t FpLeft = 1;
constexpr uint8_t FpRight = 2;
constexpr uint8_t FpMarked = 4;

// The three-node graph with sharing and a cycle used throughout the
// spanning-tree tests: 1 -> (2, 3), 2 -> (3, null), 3 -> (1, null).
Heap threeNodeGraph() {
  return buildGraph({GraphNode{Ptr(1), Ptr(2), Ptr(3)},
                     GraphNode{Ptr(2), Ptr(3), Ptr::null()},
                     GraphNode{Ptr(3), Ptr(1), Ptr::null()}});
}

// A stack of diamonds: layer L is Id -> (Id+1, Id+2), both -> Id+3. Wide
// fork/join parallelism with heavy commuting, the reduction's best case.
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

bool sameTerminals(const RunResult &A, const RunResult &B) {
  if (A.Terminals.size() != B.Terminals.size())
    return false;
  for (size_t I = 0; I != A.Terminals.size(); ++I)
    if (A.Terminals[I] < B.Terminals[I] || B.Terminals[I] < A.Terminals[I])
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// The atom clash matrix.
//===----------------------------------------------------------------------===//

TEST(FpClashTest, DifferentLabelsNeverClash) {
  EXPECT_FALSE(fpAtomsClash(FpAtom::joint(1), FpAtom::joint(2)));
  EXPECT_FALSE(fpAtomsClash(FpAtom::selfAux(1), FpAtom::otherAux(2)));
}

TEST(FpClashTest, AuxAndJointAreDisjointComponents) {
  EXPECT_FALSE(fpAtomsClash(FpAtom::selfAux(Sp), FpAtom::joint(Sp)));
  EXPECT_FALSE(fpAtomsClash(FpAtom::otherAux(Sp), FpAtom::joint(Sp)));
}

TEST(FpClashTest, AuxComponentsAcrossAgents) {
  // Two agents' self contributions join in the PCM: frame-disjoint.
  EXPECT_FALSE(fpAtomsClash(FpAtom::selfAux(Sp), FpAtom::selfAux(Sp)));
  // X's self is part of Y's other, and two others share third parties.
  EXPECT_TRUE(fpAtomsClash(FpAtom::selfAux(Sp), FpAtom::otherAux(Sp)));
  EXPECT_TRUE(fpAtomsClash(FpAtom::otherAux(Sp), FpAtom::selfAux(Sp)));
  EXPECT_TRUE(fpAtomsClash(FpAtom::otherAux(Sp), FpAtom::otherAux(Sp)));
}

TEST(FpClashTest, AuxComponentsSameAgent) {
  // One agent touching the same component twice aliases itself; its self
  // and other components stay disjoint.
  EXPECT_TRUE(fpAtomsClash(FpAtom::selfAux(Sp), FpAtom::selfAux(Sp),
                           /*SameAgent=*/true));
  EXPECT_TRUE(fpAtomsClash(FpAtom::otherAux(Sp), FpAtom::otherAux(Sp),
                           /*SameAgent=*/true));
  EXPECT_FALSE(fpAtomsClash(FpAtom::selfAux(Sp), FpAtom::otherAux(Sp),
                            /*SameAgent=*/true));
}

TEST(FpClashTest, OwnershipRegionsAcrossAgents) {
  FpAtom Own = FpAtom::joint(Sp, FpFieldsAll, FpRegion::SelfOwned);
  FpAtom Unowned = FpAtom::joint(Sp, FpFieldsAll, FpRegion::Unowned);
  FpAtom Any = FpAtom::joint(Sp);
  // Different agents' owned regions are disjoint, and disjoint from the
  // unowned remainder; Any makes no claim.
  EXPECT_FALSE(fpAtomsClash(Own, Own));
  EXPECT_FALSE(fpAtomsClash(Own, Unowned));
  EXPECT_FALSE(fpAtomsClash(Unowned, Own));
  EXPECT_TRUE(fpAtomsClash(Own, Any));
  EXPECT_TRUE(fpAtomsClash(Any, Any));
}

TEST(FpClashTest, SelfOwnedSameAgentNamesOneRegion) {
  // The same agent's two SelfOwned touches may alias; refinement then
  // falls through to fields and cells.
  FpAtom OwnL = FpAtom::joint(Sp, FpLeft, FpRegion::SelfOwned);
  FpAtom OwnR = FpAtom::joint(Sp, FpRight, FpRegion::SelfOwned);
  EXPECT_TRUE(fpAtomsClash(OwnL, OwnL, /*SameAgent=*/true));
  EXPECT_FALSE(fpAtomsClash(OwnL, OwnR, /*SameAgent=*/true));
}

TEST(FpClashTest, DisjointFieldMasks) {
  EXPECT_FALSE(
      fpAtomsClash(FpAtom::joint(Sp, FpMarked), FpAtom::joint(Sp, FpLeft)));
  EXPECT_TRUE(fpAtomsClash(FpAtom::joint(Sp, FpMarked | FpLeft),
                           FpAtom::joint(Sp, FpLeft)));
}

TEST(FpClashTest, CellRefinements) {
  FpAtom C1 = FpAtom::jointCell(Sp, Ptr(1));
  FpAtom C2 = FpAtom::jointCell(Sp, Ptr(2));
  EXPECT_FALSE(fpAtomsClash(C1, C2));
  EXPECT_TRUE(fpAtomsClash(C1, C1));
  EXPECT_TRUE(fpAtomsClash(C1, FpAtom::joint(Sp))); // vs all cells.
}

//===----------------------------------------------------------------------===//
// Footprint independence on the real SpanTree actions.
//===----------------------------------------------------------------------===//

TEST(FpIndependenceTest, UnknownFootprintsAreDependentOnEverything) {
  Footprint Unknown;
  EXPECT_FALSE(Unknown.known());
  EXPECT_FALSE(fpIndependent(Unknown, Unknown));
  EXPECT_FALSE(fpIndependent(Unknown, Footprint::none()));
  // Two known-empty footprints commute trivially.
  EXPECT_TRUE(fpIndependent(Footprint::none(), Footprint::none()));
}

TEST(FpIndependenceTest, ReadsDoNotClashWithReads) {
  Footprint A = Footprint::none().read(FpAtom::joint(Sp, FpMarked));
  Footprint B = Footprint::none().read(FpAtom::joint(Sp, FpMarked));
  EXPECT_TRUE(fpIndependent(A, B));
  Footprint W = Footprint::none().write(FpAtom::joint(Sp, FpMarked));
  EXPECT_FALSE(fpIndependent(A, W));
}

TEST(FpIndependenceTest, TrymarksOnDistinctNodesCommute) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanOpenState(Case, threeNodeGraph(), {});
  View S = GS.viewFor(ThreadId(1));
  Footprint M1 = Case.TryMark->footprint(S, {Val::ofPtr(Ptr(1))});
  Footprint M2 = Case.TryMark->footprint(S, {Val::ofPtr(Ptr(2))});
  EXPECT_TRUE(fpIndependent(M1, M2));
  // The same node raced from two threads: the whole point of the CAS.
  EXPECT_FALSE(fpIndependent(M1, M1));
  // Marking a node vs reading an edge of another: disjoint fields.
  Footprint R2 = Case.ReadChildL->footprint(S, {Val::ofPtr(Ptr(2))});
  EXPECT_TRUE(fpIndependent(M2, R2));
}

TEST(FpIndependenceTest, StaticFootprintIsTheFallback) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  const Footprint &St = Case.TryMark->staticFootprint();
  ASSERT_TRUE(St.known());
  // The static footprint covers all cells, so two instances of it clash.
  EXPECT_FALSE(fpIndependent(St, St));
}

//===----------------------------------------------------------------------===//
// Observational equivalence of the reduced exploration.
//===----------------------------------------------------------------------===//

namespace {

EngineOptions openOpts(const SpanTreeCase &Case) {
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  return Opts;
}

EngineOptions closedOpts(const SpanTreeCase &Case) {
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  return Opts;
}

} // namespace

TEST(PorEquivalenceTest, OpenWorldSpanMatchesFullExploration) {
  // Open-world span under live environment interference, across root
  // arguments and pre-marked env sets: the reduced run must reproduce the
  // full run's verdict and its exact terminal set (including terminals
  // only reachable with env steps ordered around the final action).
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  Heap G = threeNodeGraph();
  for (Ptr X : {Ptr::null(), Ptr(1), Ptr(2)}) {
    for (const PtrSet &EnvMarked :
         {PtrSet{}, PtrSet{Ptr(3)}, PtrSet{Ptr(2), Ptr(3)}}) {
      ProgRef Main = Prog::call("span", {Expr::litPtr(X)});
      GlobalState GS = spanOpenState(Case, G, EnvMarked);
      EngineOptions Opts = openOpts(Case);
      Opts.Por = PorMode::Off;
      RunResult Full = explore(Main, GS, Opts);
      Opts.Por = PorMode::On;
      RunResult Red = explore(Main, GS, Opts);
      EXPECT_EQ(Full.Safe, Red.Safe);
      EXPECT_EQ(Full.Exhausted, Red.Exhausted);
      EXPECT_TRUE(sameTerminals(Full, Red))
          << "X=" << X.toString() << " |EnvMarked|=" << EnvMarked.size()
          << ": " << Full.Terminals.size() << " full vs "
          << Red.Terminals.size() << " reduced terminals";
      EXPECT_EQ(Red.Reduction.Por, PorMode::On);
      EXPECT_EQ(Full.Reduction.Por, PorMode::Off);
    }
  }
}

TEST(PorEquivalenceTest, ClosedWorldDiamondReducesStateSpace) {
  // The fork/join diamond: massively commuting subtrees. The reduction
  // must preserve the terminals exactly and beat the acceptance bar of
  // half the full configuration count.
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(2));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = closedOpts(Case);
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Main, GS, Opts);
  Opts.Por = PorMode::On;
  RunResult Red = explore(Main, GS, Opts);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Red.Safe);
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_LT(Red.ConfigsExplored, Full.ConfigsExplored);
  EXPECT_LE(2 * Red.ConfigsExplored, Full.ConfigsExplored)
      << Red.ConfigsExplored << " reduced vs " << Full.ConfigsExplored
      << " full configurations";
}

TEST(PorEquivalenceTest, ReducedRunIsBitIdenticalAcrossJobCounts) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(2));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = closedOpts(Case);
  Opts.Por = PorMode::On;
  Opts.Jobs = 1;
  RunResult Serial = explore(Main, GS, Opts);
  ASSERT_TRUE(Serial.complete());
  for (unsigned Jobs : {2u, 8u}) {
    Opts.Jobs = Jobs;
    RunResult Par = explore(Main, GS, Opts);
    EXPECT_EQ(Serial.Safe, Par.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(Serial, Par)) << Jobs << " jobs";
    EXPECT_EQ(Serial.ConfigsExplored, Par.ConfigsExplored) << Jobs << " jobs";
    EXPECT_EQ(Serial.ActionSteps, Par.ActionSteps) << Jobs << " jobs";
    EXPECT_EQ(Serial.EnvSteps, Par.EnvSteps) << Jobs << " jobs";
  }
}

TEST(PorEquivalenceTest, CheckModeCrossValidates) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(1));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = closedOpts(Case);
  Opts.Por = PorMode::Check;
  RunResult R = explore(Main, GS, Opts);
  EXPECT_TRUE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_GT(R.Reduction.Oracle.PlainConfigs, 0u);
  EXPECT_GT(R.Reduction.Oracle.ReducedConfigs, 0u);
  EXPECT_LT(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // The oracle returns the *plain* run (the ground truth), so the counters
  // describe the unreduced exploration; the record names the reduction
  // it was checked against.
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(PorEquivalenceTest, DefaultModeFollowsProcessDefault) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(1));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = closedOpts(Case);
  Opts.Por = PorMode::Default;
  setDefaultPorMode(PorMode::On);
  RunResult R = explore(Main, GS, Opts);
  setDefaultPorMode(PorMode::Off);
  RunResult F = explore(Main, GS, Opts);
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(F.Reduction.Por, PorMode::Off);
  EXPECT_TRUE(sameTerminals(R, F));
}

//===----------------------------------------------------------------------===//
// Failure preservation: reduction must not hide safety violations.
//===----------------------------------------------------------------------===//

TEST(PorFailureTest, RacyUnsafeActionStillDetected) {
  // An action that crashes when its node is already marked, raced against
  // trymark on the same node: unsafe only in the schedule where trymark
  // goes first. Both actions' footprints honestly name cell 1's Marked
  // field, so they are dependent and the reduction must keep both orders —
  // and report the violation, exactly like the full exploration.
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ActionRef AssertUnmarked = makeAction(
      "assert_unmarked", Case.Open, 1,
      [](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr())
          return std::nullopt;
        Ptr X = Args[0].getPtr();
        const Heap &G = Pre.joint(Sp);
        if (!G.contains(X) || G.lookup(X).getNode().Marked)
          return std::nullopt; // Crashes once the environment marked x.
        return std::vector<ActOutcome>{{Val::unit(), Pre}};
      },
      Footprint::none().read(FpAtom::joint(Sp, FpMarked)),
      [](const View &, const std::vector<Val> &Args) -> Footprint {
        if (!Args[0].isPtr())
          return Footprint::none();
        return Footprint::none().read(
            FpAtom::jointCell(Sp, Args[0].getPtr(), FpMarked));
      });
  ProgRef Racy =
      Prog::par(Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}),
                Prog::act(AssertUnmarked, {Expr::litPtr(Ptr(1))}));
  GlobalState GS = spanOpenState(Case, threeNodeGraph(), {});
  EngineOptions Opts = openOpts(Case);
  Opts.EnvInterference = false;
  Opts.CheckStepCoherence = false; // assert_unmarked is not a transition.
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Racy, GS, Opts);
  Opts.Por = PorMode::On;
  RunResult Red = explore(Racy, GS, Opts);
  EXPECT_FALSE(Full.Safe);
  EXPECT_FALSE(Red.Safe) << "reduction hid the racy violation";
  EXPECT_NE(Red.FailureNote.find("assert_unmarked"), std::string::npos)
      << Red.FailureNote;
  EXPECT_FALSE(Red.FailureTrace.empty());
}

//===----------------------------------------------------------------------===//
// The soundness oracle must fire on an unsound reduction.
//===----------------------------------------------------------------------===//

namespace {

/// par(trymark(1), read_marked(1)) where read_marked observes node 1's
/// Marked field but declares an empty static footprint: it falsely claims
/// independence from its sibling's write, so POR explores it alone and
/// loses the schedule in which trymark lands first.
struct LyingReaderSetup {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ProgRef Main;
  GlobalState GS;
  EngineOptions Opts;

  LyingReaderSetup() {
    ActionRef ReadMarked = makeAction(
        "read_marked", Case.Open, 1,
        [](const View &Pre, const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          const Heap &G = Pre.joint(Sp);
          if (!Args[0].isPtr() || !G.contains(Args[0].getPtr()))
            return std::nullopt;
          bool Marked = G.lookup(Args[0].getPtr()).getNode().Marked;
          return std::vector<ActOutcome>{{Val::ofBool(Marked), Pre}};
        },
        Footprint::none());
    Main = Prog::par(Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}),
                     Prog::act(ReadMarked, {Expr::litPtr(Ptr(1))}));
    GS = spanOpenState(Case, threeNodeGraph(), {});
    Opts = openOpts(Case);
    Opts.EnvInterference = false;
  }
};

/// Asserts \p R is an oracle run that caught the lost schedule.
void expectOracleFired(const RunResult &R) {
  EXPECT_FALSE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_TRUE(R.Reduction.Oracle.Mismatch);
  EXPECT_NE(R.FailureNote.find("soundness oracle failed"), std::string::npos)
      << R.FailureNote;
  EXPECT_NE(R.FailureNote.find("first terminal only in plain exploration"),
            std::string::npos)
      << R.FailureNote;
}

} // namespace

TEST(PorOracleTest, LyingFootprintLosesATerminal) {
  // The planted bug is real: the reduced run is safe and complete, yet
  // misses a terminal of the plain run.
  LyingReaderSetup S;
  S.Opts.Por = PorMode::Off;
  RunResult Plain = explore(S.Main, S.GS, S.Opts);
  S.Opts.Por = PorMode::On;
  RunResult Reduced = explore(S.Main, S.GS, S.Opts);
  ASSERT_TRUE(Plain.complete() && Reduced.complete());
  EXPECT_LT(Reduced.Terminals.size(), Plain.Terminals.size());
}

TEST(PorOracleTest, CheckModeFiresOnLyingFootprint) {
  LyingReaderSetup S;
  S.Opts.Por = PorMode::Check;
  S.Opts.Symmetry = SymMode::Off;
  OracleTotals Before = oracleTotals();
  RunResult R = explore(S.Main, S.GS, S.Opts);
  expectOracleFired(R);
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(oracleTotals().Mismatches, Before.Mismatches + 1);
}

TEST(PorOracleTest, CheckModeFiresWithSymmetryComposed) {
  // With symmetry on, terminals compare modulo the pointer abstraction;
  // the lost schedule must still show.
  LyingReaderSetup S;
  S.Opts.Por = PorMode::Check;
  S.Opts.Symmetry = SymMode::On;
  RunResult R = explore(S.Main, S.GS, S.Opts);
  expectOracleFired(R);
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(R.Reduction.Sym, SymMode::On);
}

//===----------------------------------------------------------------------===//
// Footprints of the Table 1 structures: the independence facts that make
// reduction fire on Treiber stack, pair snapshot, and CG allocator, and
// engine-level pins that the reduction is strict on each of them.
//===----------------------------------------------------------------------===//

TEST(StructureFpTest, TreiberFailedCasShrinksToASentinelRead) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/3);
  GlobalState GS = treiberState(Case, {5}, /*MyCells=*/1, /*EnvCells=*/0);
  View S = GS.viewFor(rootThread());
  // Two concurrent head reads commute.
  const Footprint &RH = Case.ReadHead->staticFootprint();
  ASSERT_TRUE(RH.known());
  EXPECT_TRUE(fpIndependent(RH, RH));
  // The commit footprint rewrites the whole structure: dependent on reads.
  const Footprint &Commit = Case.TryPush->staticFootprint();
  ASSERT_TRUE(Commit.known());
  EXPECT_FALSE(fpIndependent(Commit, RH));
  EXPECT_FALSE(fpIndependent(Commit, Commit));
  // A CAS armed with a stale head snapshot (the list head is node 40, the
  // argument expects empty) only *observes* the sentinel: it commutes with
  // another failed CAS and with head reads.
  Footprint StalePush = Case.TryPush->footprint(
      S, {Val::ofPtr(Ptr(20)), Val::ofInt(1), Val::ofPtr(Ptr::null())});
  EXPECT_TRUE(fpIndependent(StalePush, StalePush));
  EXPECT_TRUE(fpIndependent(StalePush, RH));
  Footprint StalePop = Case.TryPop->footprint(S, {Val::ofPtr(Ptr(41))});
  EXPECT_TRUE(fpIndependent(StalePop, StalePush));
  // With the matching head the full commit footprint comes back.
  Footprint LivePush = Case.TryPush->footprint(
      S, {Val::ofPtr(Ptr(20)), Val::ofInt(1), Val::ofPtr(Ptr(40))});
  EXPECT_FALSE(fpIndependent(LivePush, RH));
}

TEST(StructureFpTest, SnapshotWritesToSiblingCellsAreDependent) {
  PairSnapCase Case = makePairSnapCase(1, /*EnvHistCap=*/2);
  const Footprint &RX = Case.ReadX->staticFootprint();
  const Footprint &RY = Case.ReadY->staticFootprint();
  const Footprint &WX = Case.WriteX->staticFootprint();
  const Footprint &WY = Case.WriteY->staticFootprint();
  ASSERT_TRUE(RX.known() && RY.known() && WX.known() && WY.known());
  // Reads of distinct cells commute with each other and with a write to
  // the *other* cell.
  EXPECT_TRUE(fpIndependent(RX, RY));
  EXPECT_TRUE(fpIndependent(RX, WY));
  EXPECT_TRUE(fpIndependent(RY, WX));
  // Same cell: the read observes the write.
  EXPECT_FALSE(fpIndependent(RX, WX));
  EXPECT_FALSE(fpIndependent(RY, WY));
  // Writers race on the shared history and read the sibling's cell to log
  // the full abstract pair state: dependent in both directions.
  EXPECT_FALSE(fpIndependent(WX, WY));
  EXPECT_FALSE(fpIndependent(WX, WX));
}

TEST(StructureFpTest, AllocatorPickCommutesWithLockTraffic) {
  ResourceModel Model = allocatorResourceModel(1, 2, AllocPoolSize);
  LockProtocol P = makeCasLock(1, 2, Model);
  DefTable Defs;
  defineAllocProgram(P, Defs, AllocPoolSize);
  // alloc() := lock(); r <-- pick_pool_cell; ... — fish the pick action
  // out of the definition body.
  const ProgRef &Body = Defs.lookup("alloc").Body;
  ASSERT_EQ(Body->kind(), Prog::Kind::Bind);
  const ProgRef &AfterLock = Body->rest();
  ASSERT_EQ(AfterLock->kind(), Prog::Kind::Bind);
  ASSERT_EQ(AfterLock->first()->kind(), Prog::Kind::Act);
  const ActionRef &Pick = AfterLock->first()->action();
  ASSERT_EQ(Pick->name(), "pick_pool_cell");
  const Footprint &PickFp = Pick->staticFootprint();
  ASSERT_TRUE(PickFp.known());
  // Pick reads only the caller's *own* private heap: independent of
  // itself and of the lock protocol's acquire/release footprint, whose
  // self-side writes land in other agents' frames.
  EXPECT_TRUE(fpIndependent(PickFp, PickFp));
  const Footprint &LockFp = P.TryLock->staticFootprint();
  ASSERT_TRUE(LockFp.known());
  EXPECT_TRUE(fpIndependent(PickFp, LockFp));
  EXPECT_FALSE(fpIndependent(LockFp, LockFp));
}

namespace {

/// Full-vs-reduced run of \p Main from \p GS in a closed world.
std::pair<RunResult, RunResult>
fullVsReduced(const ProgRef &Main, const GlobalState &GS,
              const ConcurroidRef &Ambient, const DefTable &Defs) {
  EngineOptions Opts;
  Opts.Ambient = Ambient;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Main, GS, Opts);
  Opts.Por = PorMode::On;
  RunResult Red = explore(Main, GS, Opts);
  return {std::move(Full), std::move(Red)};
}

} // namespace

TEST(StructurePorTest, TreiberConcurrentHeadReadsReduceStrictly) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/3);
  GlobalState GS = treiberState(Case, {5}, 0, 0);
  ProgRef Main = Prog::par(Prog::act(Case.ReadHead, {}),
                           Prog::act(Case.ReadHead, {}));
  auto [Full, Red] = fullVsReduced(Main, GS, Case.C, Case.Defs);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Red.Safe);
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_EQ(Red.Reduction.Por, PorMode::On);
  EXPECT_LT(Red.ConfigsExplored, Full.ConfigsExplored)
      << Red.ConfigsExplored << " reduced vs " << Full.ConfigsExplored;
  EXPECT_LT(Red.ActionSteps, Full.ActionSteps);
}

TEST(StructurePorTest, SnapshotReaderIsALocalMoveBesideAWriter) {
  // par(writeX(3), readY): the y read commutes with everything the writer
  // does, so the reduction explores it alone and the interleaving where
  // the write lands first never materializes as a separate configuration.
  PairSnapCase Case = makePairSnapCase(1, /*EnvHistCap=*/2);
  GlobalState GS = pairSnapState(Case);
  ProgRef Main = Prog::par(Prog::act(Case.WriteX, {Expr::litInt(3)}),
                           Prog::act(Case.ReadY, {}));
  auto [Full, Red] = fullVsReduced(Main, GS, Case.C, Case.Defs);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Red.Safe);
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_LT(Red.ConfigsExplored, Full.ConfigsExplored)
      << Red.ConfigsExplored << " reduced vs " << Full.ConfigsExplored;
  EXPECT_LT(Red.ActionSteps, Full.ActionSteps);
}

TEST(StructurePorTest, AllocatorPickStepsReduceUnderContention) {
  // par(alloc, alloc): while one thread holds the lock and picks its
  // cell, the other spins; the pick is a local move, so the reduced run
  // takes strictly fewer action steps than the full interleaving.
  ResourceModel Model = allocatorResourceModel(1, 2, AllocPoolSize);
  LockProtocol P = makeCasLock(1, 2, Model);
  DefTable Defs;
  defineAllocProgram(P, Defs, AllocPoolSize);
  PCMTypeRef LockSelfType =
      PCMType::pairOf(PCMType::mutex(), PCMType::nat());
  Heap Pool;
  for (unsigned I = 1; I <= AllocPoolSize; ++I)
    Pool.insert(Ptr(I), Val::ofInt(0));
  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(P.Lk, LockSelfType, P.InitialJoint(Pool),
              LockSelfType->unit(), /*EnvClosed=*/false);
  ProgRef Main =
      Prog::par(Prog::call("alloc", {}), Prog::call("alloc", {}));
  auto [Full, Red] = fullVsReduced(Main, GS, P.C, Defs);
  ASSERT_TRUE(Full.Safe);
  ASSERT_TRUE(Red.Safe);
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_LE(Red.ConfigsExplored, Full.ConfigsExplored);
  EXPECT_LT(Red.ActionSteps, Full.ActionSteps)
      << Red.ActionSteps << " reduced vs " << Full.ActionSteps
      << " action steps";
}
