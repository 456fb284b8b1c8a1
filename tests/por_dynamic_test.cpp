//===- tests/por_dynamic_test.cpp - Dynamic partial-order reduction --------===//
//
// Part of fcsl-cpp. The dynamic POR mode (DESIGN.md §12): ample sets
// licensed by observed footprints and the env-future closure, on top of
// the static reduction. Pins where the reduction genuinely bites
// (spanning tree, flat combiner), that it never explores more than the
// full state space, that it is bit-identical across job counts and shard
// counts, that check-dynamic cross-validates every Table-1 session, and
// that it composes with symmetry reduction and sharding.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "graph/GraphGen.h"
#include "prog/Engine.h"
#include "structures/FlatCombiner.h"
#include "structures/PairSnapshot.h"
#include "structures/SpanTree.h"
#include "structures/Suite.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Sp = 2;
constexpr Label Rp = 3;
constexpr Label Fc = 4;

// The fork/join diamond stack from por_independence_test: wide commuting
// parallelism, the reduction's best case.
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

EngineOptions spanClosedOpts(const SpanTreeCase &Case) {
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  return Opts;
}

// The flat-combiner Table 1 session's exploration: one thread runs
// flat_combine(push 4) on its own slot while the environment publishes,
// combines, and collects on the other, capped at 4 history entries.
struct FcSetup {
  FlatCombinerCase Case;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

FcSetup makeFcSetup() {
  FcSetup S{makeFlatCombinerCase(Fc, /*EnvHistCap=*/4), nullptr, {}, {}};
  S.Main = Prog::call("flat_combine",
                      {Expr::litPtr(S.Case.Slot1), Expr::litInt(FcPush),
                       Expr::litInt(4)});
  S.Initial = flatCombinerState(S.Case, 1);
  S.Opts.Ambient = S.Case.C;
  S.Opts.EnvInterference = true;
  S.Opts.Defs = &S.Case.Defs;
  S.Opts.Jobs = 1;
  return S;
}

// Restores the process-default POR mode on scope exit (tests in this
// binary flip it to exercise session-level defaults).
struct PorDefaultGuard {
  ~PorDefaultGuard() { setDefaultPorMode(PorMode::Default); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Where the dynamic reduction bites, it must bite strictly — and never
// explore more than the full state space anywhere.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, SpanningTreeDynamicBeatsStatic) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(2));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = spanClosedOpts(Case);
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Main, GS, Opts);
  Opts.Por = PorMode::On;
  RunResult Static = explore(Main, GS, Opts);
  Opts.Por = PorMode::Dynamic;
  RunResult Dyn = explore(Main, GS, Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Dyn.complete()) << Dyn.FailureNote;
  EXPECT_EQ(Dyn.Reduction.Por, PorMode::Dynamic);
  EXPECT_EQ(Static.Reduction.Por, PorMode::On);
  EXPECT_TRUE(sameTerminals(Full, Dyn));
  // Strict pins: dynamic never beats full by less than static does, and
  // both modes genuinely reduce this commuting-heavy program.
  EXPECT_LT(Static.ConfigsExplored, Full.ConfigsExplored);
  EXPECT_LE(Dyn.ConfigsExplored, Static.ConfigsExplored);
  EXPECT_LT(Dyn.ConfigsExplored, Full.ConfigsExplored);
}

TEST(PorDynamicTest, FlatCombinerDynamicStrictlyReduces) {
  // The flat combiner is where the static reduction finds nothing (every
  // pair of static footprints clashes through the slots); the dynamic
  // mode must strictly beat the full count via observed footprints.
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  S.Opts.Por = PorMode::Dynamic;
  PorStats Before = porStats();
  RunResult Dyn = explore(S.Main, S.Initial, S.Opts);
  PorStats After = porStats();
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Dyn.complete()) << Dyn.FailureNote;
  EXPECT_EQ(Dyn.Reduction.Por, PorMode::Dynamic);
  EXPECT_TRUE(sameTerminals(Full, Dyn));
  EXPECT_LT(Dyn.ConfigsExplored, Full.ConfigsExplored)
      << Dyn.ConfigsExplored << " dynamic vs " << Full.ConfigsExplored
      << " full configurations";
  // The --stats POR section draws from these counters; a run that
  // reduced must have detected races and fallen back somewhere.
  EXPECT_GT(After.RacesDetected, Before.RacesDetected);
  EXPECT_GT(After.FullExpansions, Before.FullExpansions);
}

TEST(PorDynamicTest, PairSnapshotNeverExceedsFull) {
  // Regression pin for the sleep-set identity bug: reduced modes must
  // never *grow* the state space, even where no reduction exists.
  PairSnapCase Case = makePairSnapCase(Rp, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Prog::call("readPair", {}), pairSnapState(Case),
                           Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  for (PorMode Mode : {PorMode::On, PorMode::Dynamic}) {
    Opts.Por = Mode;
    RunResult Red = explore(Prog::call("readPair", {}),
                            pairSnapState(Case), Opts);
    ASSERT_TRUE(Red.complete()) << Red.FailureNote;
    EXPECT_TRUE(sameTerminals(Full, Red));
    EXPECT_LE(Red.ConfigsExplored, Full.ConfigsExplored)
        << "mode=" << static_cast<int>(Mode);
  }
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical counters across job counts and shard counts.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, BitIdenticalAcrossJobCounts) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Dynamic;
  S.Opts.Jobs = 1;
  RunResult Serial = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Serial.complete()) << Serial.FailureNote;
  for (unsigned Jobs : {2u, 8u}) {
    S.Opts.Jobs = Jobs;
    RunResult Par = explore(S.Main, S.Initial, S.Opts);
    EXPECT_EQ(Serial.Safe, Par.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(Serial, Par)) << Jobs << " jobs";
    EXPECT_EQ(Serial.ConfigsExplored, Par.ConfigsExplored) << Jobs
                                                           << " jobs";
    EXPECT_EQ(Serial.ActionSteps, Par.ActionSteps) << Jobs << " jobs";
    EXPECT_EQ(Serial.EnvSteps, Par.EnvSteps) << Jobs << " jobs";
  }
}

TEST(PorDynamicTest, BitIdenticalAcrossShardCounts) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Dynamic;
  S.Opts.Shards = 1;
  RunResult Base = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  for (unsigned Shards : {2u, 4u}) {
    RunResult R = dist::distributedExplore(S.Main, S.Initial, S.Opts, {},
                                     Shards);
    EXPECT_EQ(R.Safe, Base.Safe) << "shards=" << Shards;
    EXPECT_TRUE(sameTerminals(R, Base)) << "shards=" << Shards;
    EXPECT_EQ(R.ConfigsExplored, Base.ConfigsExplored)
        << "shards=" << Shards;
    EXPECT_EQ(R.ActionSteps, Base.ActionSteps) << "shards=" << Shards;
    EXPECT_EQ(R.EnvSteps, Base.EnvSteps) << "shards=" << Shards;
  }
}

//===----------------------------------------------------------------------===//
// The soundness oracle, alone and composed.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, CheckDynamicModeReportsBothRuns) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::CheckDynamic;
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  EXPECT_TRUE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_GT(R.Reduction.Oracle.PlainConfigs, 0u);
  EXPECT_GT(R.Reduction.Oracle.ReducedConfigs, 0u);
  EXPECT_LT(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // Like Check, CheckDynamic reports the plain (ground-truth) run.
  EXPECT_EQ(R.Reduction.Por, PorMode::Dynamic);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(PorDynamicTest, CheckDynamicCrossValidatesAllSessions) {
  // Every Table-1 session discharged with the full-vs-dynamic oracle as
  // the process default: any verdict or terminal-set divergence anywhere
  // in a session's obligations fails it.
  PorDefaultGuard Guard;
  setDefaultPorMode(PorMode::CheckDynamic);
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = Case.MakeSession().run();
    EXPECT_TRUE(Report.AllPassed)
        << Case.Name << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
  }
}

TEST(PorDynamicTest, ComposesWithSymmetryAndShards) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Off;
  S.Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  S.Opts.Por = PorMode::Dynamic;
  S.Opts.Symmetry = SymMode::On;
  RunResult Local = explore(S.Main, S.Initial, S.Opts);
  EXPECT_EQ(Full.Safe, Local.Safe);
  EXPECT_TRUE(sameTerminals(Full, Local));
  RunResult Sharded = dist::distributedExplore(S.Main, S.Initial, S.Opts, {},
                                         2);
  EXPECT_EQ(Local.Safe, Sharded.Safe);
  EXPECT_TRUE(sameTerminals(Local, Sharded));
  EXPECT_EQ(Local.ConfigsExplored, Sharded.ConfigsExplored);
}
