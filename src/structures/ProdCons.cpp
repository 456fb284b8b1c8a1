//===- structures/ProdCons.cpp - Producer/Consumer over Treiber ------------===//
//
// Part of fcsl-cpp. See ProdCons.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/ProdCons.h"

#include "concurroid/Registry.h"

using namespace fcsl;

namespace {

constexpr Label PvLbl = 1;
constexpr Label TrLbl = 2;

/// pop_until() := r <-- pop(); if r.1 then ret r.2 else pop_until().
void definePopUntil(const TreiberCase &, DefTable &Defs) {
  Defs.define("pop_until",
              FuncDef{{},
                      Prog::bind(
                          Prog::call("pop", {}), "r",
                          Prog::ifThenElse(
                              Expr::fst(Expr::var("r")),
                              Prog::ret(Expr::snd(Expr::var("r"))),
                              Prog::call("pop_until", {})))});
}

} // namespace

VerificationSession fcsl::makeProdConsSession() {
  VerificationSession Session("Prod/Cons");
  auto Case = std::make_shared<TreiberCase>(
      makeTreiberCase(PvLbl, TrLbl, /*EnvHistCap=*/0));
  definePopUntil(*Case, Case->Defs);

  // Libs: the history-classification lemma the delivery theorem leans
  // on — every entry of a stack history is exactly one of push/pop, and
  // the classification is mutually exclusive.
  Session.addObligation(ObCategory::Libs, "history_classification",
                        ObligationInputs(ObKind::Check)
                            .text("history_classification")
                            .rev(1),
                        [](const ResolvedModes &) {
    ObligationResult O;
    std::vector<HistEntry> Pushes, Pops;
    Val S0 = Val::unit();
    Val S1 = Val::pair(Val::ofInt(1), S0);
    Val S2 = Val::pair(Val::ofInt(2), S1);
    Pushes.push_back(HistEntry{S0, S1});
    Pushes.push_back(HistEntry{S1, S2});
    Pops.push_back(HistEntry{S2, S1});
    Pops.push_back(HistEntry{S1, S0});
    auto IsPush = [](const HistEntry &E) {
      return E.After.isPair() && E.After.second() == E.Before;
    };
    auto IsPop = [](const HistEntry &E) {
      return E.Before.isPair() && E.Before.second() == E.After;
    };
    for (const HistEntry &E : Pushes) {
      ++O.Checks;
      if (!IsPush(E) || IsPop(E)) {
        O.Passed = false;
        O.Note = "push entry misclassified";
        return O;
      }
    }
    for (const HistEntry &E : Pops) {
      ++O.Checks;
      if (IsPush(E) || !IsPop(E)) {
        O.Passed = false;
        O.Note = "pop entry misclassified";
        return O;
      }
    }
    return O;
  });

  // The two Main clients share the same program; only the postcondition
  // differs (value-level vs history-level delivery).
  auto MakeProdConsMain = [Case] {
    ProgRef Producer = Prog::seq(
        Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(1)}),
        Prog::call("push", {Expr::litPtr(Ptr(21)), Expr::litInt(2)}));
    ProgRef Consumer = Prog::bind(
        Prog::call("pop_until", {}), "a",
        Prog::bind(Prog::call("pop_until", {}), "b",
                   Prog::ret(Expr::mkPair(Expr::var("a"),
                                          Expr::var("b")))));
    // The producer needs the node cells: split the private heap to it.
    Label Pv = Case->Pv;
    SplitFn Split = [Pv](const View &V)
        -> std::map<Label, std::pair<PCMVal, PCMVal>> {
      return {{Pv, {V.self(Pv), PCMVal::ofHeap(Heap())}}};
    };
    return Prog::par(std::move(Producer), std::move(Consumer), Split);
  };

  {
    // par(producer: push 1; push 2 || consumer: pop_until; pop_until):
    // the consumer receives exactly {1, 2} (in either order).
    TripleCase TC;
    TC.Main = MakeProdConsMain();
    TC.S.Name = "prod_cons";
    TC.S.C = Case->C;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "the consumer receives exactly the produced multiset";
    TC.S.Post = [](const Val &R, const View &, const View &) {
      if (!R.isPair() || !R.second().isPair())
        return false;
      int64_t A = R.second().first().getInt();
      int64_t B = R.second().second().getInt();
      return (A == 1 && B == 2) || (A == 2 && B == 1);
    };
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 2, 0), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "exact_delivery", std::move(TC));
  }

  {
    // Same client, but the postcondition is stated on histories: the
    // combined history interleaves two pushes and two pops that transfer
    // exactly the pushed values.
    TripleCase TC;
    TC.Main = MakeProdConsMain();
    TC.S.Name = "prod_cons_histories";
    TC.S.C = Case->C;
    Label Tr = Case->Tr;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "combined history: 2 pushes and 2 pops, values {1,2}";
    TC.S.Post = [Tr](const Val &R, const View &, const View &F) {
      (void)R;
      std::optional<History> Combined = History::join(
          F.self(Tr).getHist(), F.other(Tr).getHist());
      if (!Combined || Combined->size() != 4)
        return false;
      unsigned Pushes = 0, Pops = 0;
      for (const auto &Entry : *Combined) {
        bool IsPush = Entry.second.After.isPair() &&
                      Entry.second.After.second() == Entry.second.Before;
        bool IsPop = Entry.second.Before.isPair() &&
                     Entry.second.Before.second() == Entry.second.After;
        if (IsPush)
          ++Pushes;
        else if (IsPop)
          ++Pops;
        else
          return false;
      }
      return Pushes == 2 && Pops == 2;
    };
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 2, 0), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "delivery_histories_agree", std::move(TC));
  }

  return Session;
}

void fcsl::registerProdConsLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Prod/Cons",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}, ConcurroidUse{"Treiber", false}},
      {"Treiber stack"}});
}
