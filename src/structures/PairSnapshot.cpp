//===- structures/PairSnapshot.cpp - Atomic pair snapshot ------------------===//
//
// Part of fcsl-cpp. See PairSnapshot.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/PairSnapshot.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

using namespace fcsl;

namespace {

const int64_t EnvWriteXValue = 9;
const int64_t EnvWriteYValue = 8;

/// Reads the (value, version) pair of a cell.
std::optional<std::pair<int64_t, int64_t>> readCell(const Heap &Joint,
                                                    Ptr P) {
  const Val *Cell = Joint.tryLookup(P);
  if (!Cell || !Cell->isPair() || !Cell->first().isInt() ||
      !Cell->second().isInt())
    return std::nullopt;
  return std::make_pair(Cell->first().getInt(), Cell->second().getInt());
}

/// The abstract pair state (x value, y value).
Val pairState(int64_t X, int64_t Y) {
  return Val::pair(Val::ofInt(X), Val::ofInt(Y));
}

Val lastState(const History &Combined) {
  if (Combined.isEmpty())
    return pairState(0, 0);
  return Combined.tryLookup(Combined.lastStamp())->After;
}

/// Footprint of one write commit: the written cell is read and rewritten,
/// the sibling cell is only read (its value enters the abstract After
/// state), the agent's history gains an entry, and the other agents'
/// histories supply the Before state and the interference cap. Reads and
/// writes to *different* cells of the pair are therefore independent.
Footprint writeFootprint(Label Rp, Ptr Target, Ptr Sibling) {
  return Footprint::none()
      .readWrite(FpAtom::jointCell(Rp, Target))
      .read(FpAtom::jointCell(Rp, Sibling))
      .readWrite(FpAtom::selfAux(Rp))
      .read(FpAtom::otherAux(Rp));
}

} // namespace

PairSnapCase fcsl::makePairSnapCase(Label Rp, uint64_t EnvHistCap) {
  PairSnapCase Case;
  Case.Rp = Rp;
  Case.CellX = Ptr(9500 + Rp);
  Case.CellY = Ptr(9501 + Rp);
  Ptr PX = Case.CellX, PY = Case.CellY;

  auto Coh = [Rp, PX, PY](const View &S) {
    if (!S.hasLabel(Rp))
      return false;
    if (S.self(Rp).kind() != PCMKind::Hist ||
        S.other(Rp).kind() != PCMKind::Hist)
      return false;
    std::optional<History> Combined =
        History::join(S.self(Rp).getHist(), S.other(Rp).getHist());
    if (!Combined || !Combined->isContinuous())
      return false;
    if (!Combined->isEmpty() &&
        !(Combined->tryLookup(1)->Before == pairState(0, 0)))
      return false;
    if (S.joint(Rp).size() != 2)
      return false;
    auto X = readCell(S.joint(Rp), PX);
    auto Y = readCell(S.joint(Rp), PY);
    if (!X || !Y || X->second < 0 || Y->second < 0)
      return false;
    // Each write bumps exactly one version and appends one entry.
    if (static_cast<uint64_t>(X->second + Y->second) != Combined->size())
      return false;
    return lastState(*Combined) == pairState(X->first, Y->first);
  };

  auto ReadPair = makeConcurroid(
      "ReadPair", {OwnedLabel{Rp, "rp", PCMType::hist()}}, Coh);

  // Shared commit for writes.
  auto WriteCommit = [Rp, PX, PY](const View &Pre, bool ToX,
                                  int64_t V) -> std::optional<View> {
    auto X = readCell(Pre.joint(Rp), PX);
    auto Y = readCell(Pre.joint(Rp), PY);
    if (!X || !Y)
      return std::nullopt;
    std::optional<History> Combined =
        History::join(Pre.self(Rp).getHist(), Pre.other(Rp).getHist());
    if (!Combined)
      return std::nullopt;
    Val Before = lastState(*Combined);
    Val After = ToX ? pairState(V, Y->first) : pairState(X->first, V);
    View Post = Pre;
    Heap Joint = Pre.joint(Rp);
    if (ToX)
      Joint.update(PX, Val::pair(Val::ofInt(V), Val::ofInt(X->second + 1)));
    else
      Joint.update(PY, Val::pair(Val::ofInt(V), Val::ofInt(Y->second + 1)));
    Post.setJoint(Rp, std::move(Joint));
    History Mine = Pre.self(Rp).getHist();
    Mine.add(Combined->lastStamp() + 1, HistEntry{Before, After});
    Post.setSelf(Rp, PCMVal::ofHist(std::move(Mine)));
    return Post;
  };

  auto HistSize = [Rp](const View &S) {
    return S.self(Rp).getHist().size() + S.other(Rp).getHist().size();
  };

  for (bool ToX : {true, false}) {
    ReadPair->addTransition(Transition(
        ToX ? "writeX_trans" : "writeY_trans", TransitionKind::Internal,
        [WriteCommit, HistSize, ToX, EnvHistCap](const View &Pre)
            -> std::vector<View> {
          std::vector<View> Out;
          if (HistSize(Pre) >= EnvHistCap)
            return Out;
          std::optional<View> Post = WriteCommit(
              Pre, ToX, ToX ? EnvWriteXValue : EnvWriteYValue);
          if (Post)
            Out.push_back(std::move(*Post));
          return Out;
        },
        // Structural coverage for arbitrary written values.
        [WriteCommit, Rp, PX, PY, ToX](const View &Pre, const View &Post) {
          if (!Post.hasLabel(Rp))
            return false;
          auto Cell = readCell(Post.joint(Rp), ToX ? PX : PY);
          if (!Cell)
            return false;
          std::optional<View> Candidate =
              WriteCommit(Pre, ToX, Cell->first);
          return Candidate && *Candidate == Post;
        }).withFootprint(writeFootprint(Rp, ToX ? PX : PY,
                                        ToX ? PY : PX)));
  }

  Case.C = ReadPair;

  auto MakeRead = [Rp, &Case](const char *Name, Ptr P) {
    return makeAction(
        Name, Case.C, 0,
        [Rp, P](const View &Pre, const std::vector<Val> &)
            -> std::optional<std::vector<ActOutcome>> {
          auto Cell = readCell(Pre.joint(Rp), P);
          if (!Cell)
            return std::nullopt;
          return std::vector<ActOutcome>{
              {Val::pair(Val::ofInt(Cell->first),
                         Val::ofInt(Cell->second)),
               Pre}};
        },
        Footprint::none().read(FpAtom::jointCell(Rp, P)));
  };
  Case.ReadX = MakeRead("readX", PX);
  Case.ReadY = MakeRead("readY", PY);

  auto MakeWrite = [WriteCommit, Rp, PX, PY, &Case](const char *Name,
                                                    bool ToX) {
    return makeAction(
        Name, Case.C, 1,
        [WriteCommit, ToX](const View &Pre, const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          if (!Args[0].isInt())
            return std::nullopt;
          std::optional<View> Post =
              WriteCommit(Pre, ToX, Args[0].getInt());
          if (!Post)
            return std::nullopt;
          return std::vector<ActOutcome>{{Val::unit(), std::move(*Post)}};
        },
        writeFootprint(Rp, ToX ? PX : PY, ToX ? PY : PX));
  };
  Case.WriteX = MakeWrite("writeX", true);
  Case.WriteY = MakeWrite("writeY", false);

  // readPair() := a <-- readX; b <-- readY; a2 <-- readX;
  //               if a.2 == a2.2 then ret (a.1, b.1) else readPair().
  Case.Defs.define(
      "readPair",
      FuncDef{{},
              Prog::bind(
                  Prog::act(Case.ReadX, {}), "a",
                  Prog::bind(
                      Prog::act(Case.ReadY, {}), "b",
                      Prog::bind(
                          Prog::act(Case.ReadX, {}), "a2",
                          Prog::ifThenElse(
                              Expr::eq(Expr::snd(Expr::var("a")),
                                       Expr::snd(Expr::var("a2"))),
                              Prog::ret(Expr::mkPair(
                                  Expr::fst(Expr::var("a")),
                                  Expr::fst(Expr::var("b")))),
                              Prog::call("readPair", {})))))});
  return Case;
}

GlobalState fcsl::pairSnapState(const PairSnapCase &C) {
  Heap Joint;
  Joint.insert(C.CellX, Val::pair(Val::ofInt(0), Val::ofInt(0)));
  Joint.insert(C.CellY, Val::pair(Val::ofInt(0), Val::ofInt(0)));
  GlobalState GS;
  GS.addLabel(C.Rp, PCMType::hist(), std::move(Joint),
              PCMVal::ofHist(History()), /*EnvClosed=*/false);
  return GS;
}

std::vector<View> fcsl::pairSnapSampleViews(const PairSnapCase &C) {
  std::vector<View> Out;
  // Fresh structure.
  Out.push_back(pairSnapState(C).viewFor(rootThread()));
  // After one env write to x and one self write to y.
  {
    GlobalState GS = pairSnapState(C);
    View Env = GS.viewForEnv();
    // Simulate: env writes x := 9, then "we" write y := 3.
    Heap Joint = Env.joint(C.Rp);
    Joint.update(C.CellX, Val::pair(Val::ofInt(9), Val::ofInt(1)));
    Joint.update(C.CellY, Val::pair(Val::ofInt(3), Val::ofInt(1)));
    History EnvH, MineH;
    EnvH.add(1, HistEntry{pairState(0, 0), pairState(9, 0)});
    MineH.add(2, HistEntry{pairState(9, 0), pairState(9, 3)});
    GS.setJoint(C.Rp, std::move(Joint));
    GS.setEnvSelf(C.Rp, PCMVal::ofHist(std::move(EnvH)));
    GS.setSelf(C.Rp, rootThread(), PCMVal::ofHist(std::move(MineH)));
    Out.push_back(GS.viewFor(rootThread()));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {
constexpr Label RpLbl = 1;
} // namespace

VerificationSession fcsl::makePairSnapshotSession() {
  VerificationSession Session("Pair snapshot");
  auto Case = std::make_shared<PairSnapCase>(
      makePairSnapCase(RpLbl, /*EnvHistCap=*/3));
  auto Samples =
      std::make_shared<std::vector<View>>(pairSnapSampleViews(*Case));

  std::vector<PCMVal> LawSample;
  LawSample.push_back(PCMVal::ofHist(History()));
  {
    History H1, H2;
    H1.add(1, HistEntry{pairState(0, 0), pairState(9, 0)});
    H2.add(2, HistEntry{pairState(9, 0), pairState(9, 3)});
    LawSample.push_back(PCMVal::ofHist(H1));
    LawSample.push_back(PCMVal::ofHist(H2));
  }
  Session.addObligation(ObCategory::Libs, "snapshot_hist_pcm_laws",
                        pcmLawInputs(PCMType::hist(), LawSample, 1),
                        [LawSample](const ResolvedModes &) {
    PCMLawReport R = checkPCMLaws(*PCMType::hist(), LawSample);
    return lawObligation(R.allHold(), R.JoinsEvaluated);
  });

  Session.addObligation(ObCategory::Conc, "readpair_metatheory",
                        sampleInputs(ObKind::Metatheory, *Case->C,
                                     *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*Case->C, *Samples));
  });

  std::vector<ActionArgs> WriteArgs = {{Val::ofInt(3)}, {Val::ofInt(5)}};
  Session.addObligation(ObCategory::Acts, "reads_wf",
                        actionInputs(*Case->ReadX, *Samples, {{}}, 1)
                            .text(Case->ReadY->name())
                            .num(Case->ReadY->arity())
                            .text("wf"),
                        [Case, Samples](const ResolvedModes &) {
    MetaReport R;
    R.absorb(checkActionWellFormed(*Case->ReadX, *Samples, {{}}));
    R.absorb(checkActionWellFormed(*Case->ReadY, *Samples, {{}}));
    return toObligation(R);
  });
  Session.addObligation(ObCategory::Acts, "writes_wf",
                        actionInputs(*Case->WriteX, *Samples, WriteArgs, 1)
                            .text(Case->WriteY->name())
                            .num(Case->WriteY->arity())
                            .text("wf"),
                        [Case, Samples, WriteArgs](const ResolvedModes &) {
    MetaReport R;
    R.absorb(checkActionWellFormed(*Case->WriteX, *Samples, WriteArgs));
    R.absorb(checkActionWellFormed(*Case->WriteY, *Samples, WriteArgs));
    return toObligation(R);
  });

  Session.addObligation(ObCategory::Stab, "versions_monotone",
                        stabilityInputs(*Case->C, "versions are monotone",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Rp = Case->Rp;
    Ptr PX = Case->CellX, PY = Case->CellY;
    return toObligation(checkRelationStability(
        [Rp, PX, PY](const View &Seed, const View &S) {
          auto XA = readCell(Seed.joint(Rp), PX);
          auto XB = readCell(S.joint(Rp), PX);
          auto YA = readCell(Seed.joint(Rp), PY);
          auto YB = readCell(S.joint(Rp), PY);
          return XA && XB && YA && YB && XB->second >= XA->second &&
                 YB->second >= YA->second;
        },
        "versions are monotone", *Case->C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "same_version_same_value",
                        stabilityInputs(
                            *Case->C,
                            "unchanged version implies unchanged value",
                            *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    // The key reader lemma: if x's version is unchanged, so is its value.
    Label Rp = Case->Rp;
    Ptr PX = Case->CellX;
    return toObligation(checkRelationStability(
        [Rp, PX](const View &Seed, const View &S) {
          auto A = readCell(Seed.joint(Rp), PX);
          auto B = readCell(S.joint(Rp), PX);
          if (!A || !B)
            return false;
          return B->second != A->second || B->first == A->first;
        },
        "unchanged version implies unchanged value", *Case->C, *Samples));
  });

  {
    TripleCase TC;
    TC.Main = Prog::call("readPair", {});
    TC.S.Name = "readPair";
    TC.S.C = Case->C;
    Label Rp = Case->Rp;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "the returned pair was an actual state of the history";
    TC.S.Post = [Rp](const Val &R, const View &I, const View &F) {
      if (!R.isPair() || !R.first().isInt() || !R.second().isInt())
        return false;
      std::optional<History> CI =
          History::join(I.self(Rp).getHist(), I.other(Rp).getHist());
      std::optional<History> CF =
          History::join(F.self(Rp).getHist(), F.other(Rp).getHist());
      if (!CI || !CF)
        return false;
      // Candidate states between invocation and return: the state at
      // invocation plus every state the history went through afterwards.
      std::vector<Val> States = {lastState(*CI)};
      for (const auto &Entry : *CF)
        if (Entry.first > CI->lastStamp())
          States.push_back(Entry.second.After);
      for (const Val &State : States)
        if (State == Val::pair(R.first(), R.second()))
          return true;
      return false;
    };
    TC.Instances.push_back(VerifyInstance{pairSnapState(*Case), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "readpair_spec", std::move(TC));
  }

  {
    // writeX(3); readPair() returns a pair whose x is 3 or a later write.
    TripleCase TC;
    TC.Main = Prog::seq(Prog::act(Case->WriteX, {Expr::litInt(3)}),
                        Prog::call("readPair", {}));
    TC.S.Name = "writeX_then_readPair";
    TC.S.C = Case->C;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "snapshot.x reflects my write or a later one";
    TC.S.Post = [](const Val &R, const View &, const View &) {
      return R.isPair() && R.first().isInt() &&
             (R.first().getInt() == 3 || R.first().getInt() == 9);
    };
    TC.Instances.push_back(VerifyInstance{pairSnapState(*Case), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "write_then_read_spec", std::move(TC));
  }

  return Session;
}

void fcsl::registerPairSnapshotLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Pair snapshot", {ConcurroidUse{"ReadPair", false}}, {}});
}
