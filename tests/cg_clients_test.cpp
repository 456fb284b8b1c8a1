//===- tests/cg_clients_test.cpp - CG increment/allocator tests ------------===//
//
// Part of fcsl-cpp. The coarse-grained clients of the abstract lock
// interface, exercised with both lock implementations.
//
//===----------------------------------------------------------------------===//

#include "structures/CgAllocator.h"
#include "structures/CgIncrement.h"
#include "structures/SpinLock.h"
#include "structures/TicketLock.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {
constexpr Label Pv = 1;
constexpr Label Lk = 2;
} // namespace

/// Parameterized over the lock implementation: the whole point of the
/// abstract interface (Table 2's `3L`). The name is a std::string so that
/// gtest prints it by value, not by the address of a literal.
class LockClientTest
    : public ::testing::TestWithParam<std::pair<std::string, int>> {
protected:
  LockProtocol makeLock(const ResourceModel &Model) {
    if (GetParam().second == 0)
      return makeCasLock(Pv, Lk, Model);
    return makeTicketLock(Pv, Lk, Model);
  }
  PCMTypeRef tokenType() {
    return GetParam().second == 0
               ? static_cast<PCMTypeRef>(PCMType::mutex())
               : static_cast<PCMTypeRef>(PCMType::ptrSet());
  }
};

TEST_P(LockClientTest, IncrementAddsOne) {
  LockProtocol P = makeLock(counterResourceModel(Lk, /*EnvCap=*/0));
  DefTable Defs;
  defineIncrProgram(P, Defs);

  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Lk, PCMType::pairOf(tokenType(), PCMType::nat()),
              P.InitialJoint(Heap::singleton(counterResourceCell(),
                                             Val::ofInt(0))),
              PCMVal::makePair(tokenType()->unit(), PCMVal::ofNat(0)),
              false);

  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  RunResult R = explore(Prog::call("incr", {}), GS, Opts);
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  ASSERT_EQ(R.Terminals.size(), 1u);
  const View &F = R.Terminals[0].FinalView;
  EXPECT_EQ(P.ClientSelf(F).getNat(), 1u);
  EXPECT_EQ(F.joint(Lk).lookup(counterResourceCell()).getInt(), 1);
  EXPECT_FALSE(P.HoldsLock(F));
}

TEST_P(LockClientTest, ParallelIncrementsAddTwo) {
  LockProtocol P = makeLock(counterResourceModel(Lk, /*EnvCap=*/0));
  DefTable Defs;
  defineIncrProgram(P, Defs);

  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Lk, PCMType::pairOf(tokenType(), PCMType::nat()),
              P.InitialJoint(Heap::singleton(counterResourceCell(),
                                             Val::ofInt(0))),
              PCMVal::makePair(tokenType()->unit(), PCMVal::ofNat(0)),
              false);

  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  RunResult R = explore(
      Prog::par(Prog::call("incr", {}), Prog::call("incr", {})), GS,
      Opts);
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  ASSERT_FALSE(R.Terminals.empty());
  for (const Terminal &T : R.Terminals) {
    EXPECT_EQ(T.FinalView.self(Lk).second().getNat(), 2u);
    EXPECT_EQ(
        T.FinalView.joint(Lk).lookup(counterResourceCell()).getInt(), 2);
  }
}

TEST_P(LockClientTest, AllocWithdrawsFromPool) {
  LockProtocol P =
      makeLock(allocatorResourceModel(Pv, Lk, AllocPoolSize));
  DefTable Defs;
  defineAllocProgram(P, Defs, AllocPoolSize);

  Heap Pool;
  for (unsigned I = 1; I <= AllocPoolSize; ++I)
    Pool.insert(Ptr(I), Val::ofInt(0));
  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Lk, PCMType::pairOf(tokenType(), PCMType::nat()),
              P.InitialJoint(Pool),
              PCMVal::makePair(tokenType()->unit(), PCMVal::ofNat(0)),
              false);

  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  RunResult R = explore(Prog::call("alloc", {}), GS, Opts);
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  ASSERT_EQ(R.Terminals.size(), 1u);
  const Terminal &T = R.Terminals[0];
  ASSERT_TRUE(T.Result.isPtr());
  EXPECT_TRUE(isPoolCell(T.Result.getPtr()));
  EXPECT_TRUE(T.FinalView.self(Pv).getHeap().contains(T.Result.getPtr()));
  EXPECT_EQ(T.FinalView.self(Lk).second().getNat(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BothLocks, LockClientTest,
    ::testing::Values(std::make_pair(std::string("cas"), 0),
                      std::make_pair(std::string("ticket"), 1)),
    [](const ::testing::TestParamInfo<std::pair<std::string, int>> &I) {
      return I.param.first;
    });

TEST(CgIncrementTest, SessionPasses) {
  SessionReport Report = makeCgIncrementSession().run();
  EXPECT_TRUE(Report.AllPassed)
      << (Report.Failures.empty() ? "" : Report.Failures.front());
  // Table 1 shape: no Conc/Acts/Stab obligations of its own.
  EXPECT_EQ(Report.PerCategory[size_t(ObCategory::Conc)].Obligations, 0u);
  EXPECT_EQ(Report.PerCategory[size_t(ObCategory::Acts)].Obligations, 0u);
  EXPECT_EQ(Report.PerCategory[size_t(ObCategory::Stab)].Obligations, 0u);
  EXPECT_GT(Report.PerCategory[size_t(ObCategory::Main)].Obligations, 0u);
}

TEST(CgAllocatorTest, SessionPasses) {
  SessionReport Report = makeCgAllocatorSession().run();
  EXPECT_TRUE(Report.AllPassed)
      << (Report.Failures.empty() ? "" : Report.Failures.front());
}
