//===- structures/FcStack.cpp - Stack via flat combining -------------------===//
//
// Part of fcsl-cpp. See FcStack.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/FcStack.h"

#include "concurroid/Registry.h"

using namespace fcsl;

namespace {

constexpr Label FcLbl = 1;

/// Splits slot ownership between the two parallel clients: slot 1 left,
/// slot 2 right. Lock token and histories stay left (both are unit
/// initially anyway).
SplitFn slotSplit(const FlatCombinerCase &C) {
  Label Fc = C.Fc;
  Ptr S1 = C.Slot1, S2 = C.Slot2;
  return [Fc, S1, S2](const View &V)
             -> std::map<Label, std::pair<PCMVal, PCMVal>> {
    const PCMVal &Self = V.self(Fc);
    std::set<Ptr> Mine = Self.second().first().getPtrSet();
    std::set<Ptr> Left, Right;
    for (Ptr P : Mine)
      (P == S2 ? Right : Left).insert(P);
    PCMVal L = PCMVal::makePair(
        Self.first(),
        PCMVal::makePair(PCMVal::ofPtrSet(std::move(Left)),
                         PCMVal::ofHist(Self.second().second().getHist())));
    PCMVal R = PCMVal::makePair(
        PCMVal::mutexFree(),
        PCMVal::makePair(PCMVal::ofPtrSet(std::move(Right)),
                         PCMVal::ofHist(History())));
    return {{Fc, {std::move(L), std::move(R)}}};
  };
}

} // namespace

VerificationSession fcsl::makeFcStackSession() {
  VerificationSession Session("FC-stack");
  auto Case = std::make_shared<FlatCombinerCase>(
      makeFlatCombinerCase(FcLbl, /*EnvHistCap=*/0));

  // Libs: the fc_R relation instance for the sequential stack — the
  // validity predicate relating operation, argument, result and history
  // contribution (Section 4.2): push entries grow the state by their
  // argument, pop entries shrink it by their result.
  Session.addObligation(ObCategory::Libs, "fc_R_stack_instance",
                        ObligationInputs(ObKind::Check)
                            .text("fc_R_stack_instance")
                            .num(FcPush)
                            .num(FcPop)
                            .rev(1),
                        [](const ResolvedModes &) {
    auto FcR = [](int64_t Op, const Val &Arg, const Val &Res,
                  const HistEntry &G) {
      if (Op == FcPush)
        return Res.isUnit() && G.After == Val::pair(Arg, G.Before);
      if (G.Before.isUnit()) // Pop on empty.
        return Res == Val::ofInt(0) && G.After == G.Before;
      return G.Before == Val::pair(Res, G.After);
    };
    ObligationResult O;
    // Positive instances.
    Val S0 = Val::unit();
    Val S1 = Val::pair(Val::ofInt(4), S0);
    O.Checks += 4;
    O.Passed = false;
    if (!FcR(FcPush, Val::ofInt(4), Val::unit(), HistEntry{S0, S1})) {
      O.Note = "push instance rejected";
      return O;
    }
    if (!FcR(FcPop, Val::ofInt(0), Val::ofInt(4), HistEntry{S1, S0})) {
      O.Note = "pop instance rejected";
      return O;
    }
    if (!FcR(FcPop, Val::ofInt(0), Val::ofInt(0), HistEntry{S0, S0})) {
      O.Note = "empty pop rejected";
      return O;
    }
    // Negative instance: a pop that invents a value.
    if (FcR(FcPop, Val::ofInt(0), Val::ofInt(9), HistEntry{S1, S0})) {
      O.Note = "bogus pop accepted";
      return O;
    }
    O.Passed = true;
    return O;
  });

  {
    // par(flat_combine(slot1, push, 1), flat_combine(slot2, push, 2)):
    // both pushes are recorded; the stack holds both values (closed
    // world, no external env).
    TripleCase TC;
    TC.S.Name = "fc_stack_parallel_push";
    TC.S.C = Case->C;
    Label Fc = Case->Fc;
    Ptr StkP = Case->StackCell;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "both pushes recorded; stack holds {1, 2}";
    TC.S.Post = [Fc, StkP](const Val &R, const View &, const View &F) {
      if (!R.isPair())
        return false;
      // Joined self history has both push entries.
      const History &Mine = F.self(Fc).second().second().getHist();
      if (Mine.size() != 2)
        return false;
      bool Saw1 = false, Saw2 = false;
      for (const auto &Entry : Mine) {
        if (Entry.second.After ==
            Val::pair(Val::ofInt(1), Entry.second.Before))
          Saw1 = true;
        if (Entry.second.After ==
            Val::pair(Val::ofInt(2), Entry.second.Before))
          Saw2 = true;
      }
      if (!Saw1 || !Saw2)
        return false;
      // The final stack contains exactly {1, 2} in some order.
      const Val *Stack = F.joint(Fc).tryLookup(StkP);
      if (!Stack || !Stack->isPair() || !Stack->second().isPair() ||
          !Stack->second().second().isUnit())
        return false;
      int64_t Top = Stack->first().getInt();
      int64_t Below = Stack->second().first().getInt();
      return (Top == 1 && Below == 2) || (Top == 2 && Below == 1);
    };
    TC.Main = Prog::par(
        Prog::call("flat_combine",
                   {Expr::litPtr(Case->Slot1), Expr::litInt(FcPush),
                    Expr::litInt(1)}),
        Prog::call("flat_combine",
                   {Expr::litPtr(Case->Slot2), Expr::litInt(FcPush),
                    Expr::litInt(2)}),
        slotSplit(*Case));
    TC.Instances.push_back(
        VerifyInstance{flatCombinerState(*Case, 2), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "concurrent_pushes_via_fc", std::move(TC));
  }

  {
    // par(flat_combine(push 3), flat_combine(pop)): the pop either helps
    // itself to 3 or observes emptiness, but the push always lands.
    TripleCase TC;
    TC.S.Name = "fc_stack_push_pop";
    TC.S.C = Case->C;
    Label Fc = Case->Fc;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "pop returns 3 or empty-marker 0; push always recorded";
    TC.S.Post = [Fc](const Val &R, const View &, const View &F) {
      if (!R.isPair() || !R.second().isInt())
        return false;
      int64_t Popped = R.second().getInt();
      if (Popped != 0 && Popped != 3)
        return false;
      const History &Mine = F.self(Fc).second().second().getHist();
      bool SawPush = false;
      for (const auto &Entry : Mine)
        if (Entry.second.After ==
            Val::pair(Val::ofInt(3), Entry.second.Before))
          SawPush = true;
      return SawPush && Mine.size() == 2;
    };
    TC.Main = Prog::par(
        Prog::call("flat_combine",
                   {Expr::litPtr(Case->Slot1), Expr::litInt(FcPush),
                    Expr::litInt(3)}),
        Prog::call("flat_combine",
                   {Expr::litPtr(Case->Slot2), Expr::litInt(FcPop),
                    Expr::litInt(0)}),
        slotSplit(*Case));
    TC.Instances.push_back(
        VerifyInstance{flatCombinerState(*Case, 2), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "push_pop_pair_via_fc", std::move(TC));
  }

  return Session;
}

void fcsl::registerFcStackLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "FC-stack",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}, ConcurroidUse{"FlatCombine", false}},
      {"Flat combiner"}});
}
