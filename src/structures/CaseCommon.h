//===- structures/CaseCommon.h - Case-study plumbing ------------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for assembling the case studies of Table 1: adapters
/// from the metatheory/stability/verifier report types into session
/// obligations, content-fingerprint builders for the obligation cache
/// (every registration site declares what its verdict depends on — see
/// ObligationInputs in spec/Session.h and DESIGN.md §13), and small
/// view/state builders.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_STRUCTURES_CASECOMMON_H
#define FCSL_STRUCTURES_CASECOMMON_H

#include "action/ActionChecks.h"
#include "concurroid/Metatheory.h"
#include "spec/Session.h"
#include "spec/Stability.h"
#include "spec/Verifier.h"
#include "support/Codec.h"

#include <memory>

namespace fcsl {

/// Adapts a MetaReport into an ObligationResult.
inline ObligationResult toObligation(const MetaReport &R) {
  ObligationResult O;
  O.Passed = R.Passed;
  O.Checks = R.ChecksRun;
  O.Note = R.CounterExample;
  return O;
}

/// Adapts a StabilityReport into an ObligationResult. The closure walk is
/// not an engine exploration, but its volume maps naturally onto the
/// config/env-step counters so `--stats` replay covers it.
inline ObligationResult toObligation(const StabilityReport &R) {
  ObligationResult O;
  O.Passed = R.Stable;
  O.Checks = R.StatesVisited + R.EnvStepsTaken;
  O.Note = R.CounterExample;
  O.Counters.Configs = R.StatesVisited;
  O.Counters.EnvSteps = R.EnvStepsTaken;
  return O;
}

/// Builds the ObligationResult of a PCM-law obligation.
inline ObligationResult lawObligation(bool Passed, uint64_t Checks) {
  ObligationResult O;
  O.Passed = Passed;
  O.Checks = Checks;
  O.Note = "PCM law violated";
  return O;
}

/// Adapts a VerifyResult into an ObligationResult.
inline ObligationResult toObligation(const VerifyResult &R) {
  ObligationResult O;
  O.Passed = R.Holds;
  O.Checks = R.ConfigsExplored + R.TerminalsChecked;
  O.Note = R.FailureNote;
  O.Counters = R.counters();
  return O;
}

//===----------------------------------------------------------------------===//
// Content fingerprints (obligation-cache keys)
//===----------------------------------------------------------------------===//

/// Fingerprint of a value's canonical codec encoding: a process-stable
/// content address for any serializable state type (View, GlobalState,
/// PCMVal, PCMTypeRef, Val, Heap, ...).
template <typename T> uint64_t codecFp(const T &V) {
  Encoder E;
  encode(E, V);
  return fpBytes(E.buffer().data(), E.buffer().size());
}

/// Folds a sample of views (order-sensitively — samples are built
/// deterministically at registration).
inline uint64_t fpOfViews(const std::vector<View> &Views) {
  uint64_t Fp = fpString("views");
  for (const View &V : Views)
    Fp = fpCombine(Fp, codecFp(V));
  return Fp;
}

/// Folds a set of action argument vectors.
inline uint64_t fpOfArgSets(const std::vector<ActionArgs> &ArgSets) {
  uint64_t Fp = fpString("args");
  for (const ActionArgs &Args : ArgSets) {
    Fp = fpCombine(Fp, Args.size());
    for (const Val &V : Args)
      Fp = fpCombine(Fp, codecFp(V));
  }
  return Fp;
}

/// Folds a definition table: sorted names, parameter lists, and the
/// structural fingerprints of the bodies.
inline uint64_t fpOfDefs(const DefTable &Defs) {
  uint64_t Fp = fpString("defs");
  for (const std::string &Name : Defs.names()) {
    const FuncDef &Def = Defs.lookup(Name);
    Fp = fpCombine(Fp, fpString(Name));
    for (const std::string &P : Def.Params)
      Fp = fpCombine(Fp, fpString(P));
    Fp = fpCombine(Fp, Def.Body->fingerprint());
  }
  return Fp;
}

/// Folds one verification instance: the initial global state and the
/// root-thread argument environment.
inline uint64_t fpOfInstance(const VerifyInstance &I) {
  uint64_t Fp = fpCombine(fpString("instance"), codecFp(I.Initial));
  for (const auto &KV : I.InitialEnv) {
    Fp = fpCombine(Fp, fpString(KV.first));
    Fp = fpCombine(Fp, codecFp(KV.second));
  }
  return Fp;
}

/// Folds a PCM-value sample (order-sensitively).
inline uint64_t fpOfPCMSample(const std::vector<PCMVal> &Sample) {
  uint64_t Fp = fpString("pcm-sample");
  for (const PCMVal &V : Sample)
    Fp = fpCombine(Fp, codecFp(V));
  return Fp;
}

/// Declares the inputs of a PCM-law obligation: the algebra under test and
/// the sample it is exercised over. Two sessions may test the *same* type
/// over different samples, so the sample is part of the key. Sites that
/// additionally check cancellativity append `.text("cancellative")`.
inline ObligationInputs pcmLawInputs(const PCMTypeRef &T,
                                     const std::vector<PCMVal> &Sample,
                                     uint64_t Rev) {
  return ObligationInputs(ObKind::Check)
      .mix(codecFp(T))
      .mix(fpOfPCMSample(Sample))
      .rev(Rev);
}

/// Declares the inputs of a metatheory/PCM obligation discharged over a
/// sample of views against one concurroid.
inline ObligationInputs sampleInputs(ObKind Kind, const Concurroid &C,
                                     const std::vector<View> &Sample,
                                     uint64_t Rev) {
  return ObligationInputs(Kind)
      .mix(C.fingerprint())
      .mix(fpOfViews(Sample))
      .rev(Rev);
}

/// Declares the inputs of an atomic-action obligation: the action's name
/// and arity, its concurroid, and the sampled views/arguments it is
/// exercised over. Sites discharging *different checks* over the same
/// action (well-formedness vs totality) must append a distinguishing
/// `.text(...)` so the verdicts do not share a key.
inline ObligationInputs actionInputs(const AtomicAction &A,
                                     const std::vector<View> &Sample,
                                     const std::vector<ActionArgs> &ArgSets,
                                     uint64_t Rev) {
  return ObligationInputs(ObKind::Action)
      .mix(A.concurroid()->fingerprint())
      .text(A.name())
      .num(A.arity())
      .mix(fpOfViews(Sample))
      .mix(fpOfArgSets(ArgSets))
      .rev(Rev);
}

/// Declares the inputs of a stability obligation: the assertion is an
/// opaque predicate, so its *name* plus the site revision stand in for it
/// (DESIGN.md §13 staleness rules).
inline ObligationInputs stabilityInputs(const Concurroid &C,
                                        std::string_view AssertionName,
                                        const std::vector<View> &Seeds,
                                        uint64_t Rev) {
  return ObligationInputs(ObKind::Stability)
      .mix(C.fingerprint())
      .text(AssertionName)
      .mix(fpOfViews(Seeds))
      .rev(Rev);
}

//===----------------------------------------------------------------------===//
// Hoare-triple proof units
//===----------------------------------------------------------------------===//

/// A Main obligation in registration-time form: everything verifyTriple
/// needs, built *before* the session runs so the unit's content can be
/// fingerprinted from the interned program and instance states instead of
/// from names. `Defs` owns the definition table the options point into.
struct TripleCase {
  ProgRef Main;
  Spec S;
  std::vector<VerifyInstance> Instances;
  EngineOptions Opts;
  std::shared_ptr<const DefTable> Defs; ///< null when the program has no calls.
  uint64_t Rev = 1; ///< bump when spec-closure logic changes (Pre/Post
                    ///< are opaque predicates; their names are hashed,
                    ///< their logic is not).
};

/// The declared inputs of a triple unit: the program's structural
/// fingerprint, the spec's name/pre/post names, every instance's initial
/// state and arguments, the definition table, and the engine-relevant
/// bounds (ambient concurroid, interference, MaxConfigs).
inline ObligationInputs tripleInputs(const TripleCase &TC) {
  ObligationInputs In(ObKind::Triple);
  In.mix(TC.Main->fingerprint());
  In.text(TC.S.Name);
  In.text(TC.S.Pre ? TC.S.Pre.name() : "<no-pre>");
  In.text(TC.S.PostName);
  In.num(TC.Instances.size());
  for (const VerifyInstance &I : TC.Instances)
    In.mix(fpOfInstance(I));
  if (TC.Defs)
    In.mix(fpOfDefs(*TC.Defs));
  if (TC.Opts.Ambient)
    In.mix(TC.Opts.Ambient->fingerprint());
  In.flag(TC.Opts.EnvInterference);
  In.num(TC.Opts.MaxConfigs);
  In.rev(TC.Rev);
  return In;
}

/// Registers a Main proof unit for \p TC, explored under the session's
/// POR and symmetry modes.
inline void addTriple(VerificationSession &Session, std::string Name,
                      TripleCase TC) {
  ObligationInputs In = tripleInputs(TC);
  auto Shared = std::make_shared<TripleCase>(std::move(TC));
  Session.addObligation(
      ObCategory::Main, std::move(Name), In,
      [Shared](const ResolvedModes &Modes) {
        EngineOptions Opts = Shared->Opts;
        Opts.Por = Modes.Por;
        Opts.Symmetry = Modes.Sym;
        if (Shared->Defs)
          Opts.Defs = Shared->Defs.get();
        return toObligation(
            verifyTriple(Shared->Main, Shared->S, Shared->Instances, Opts));
      });
}

/// Builds a one-label view.
inline View makeView(Label L, PCMVal Self, Heap Joint, PCMVal Other) {
  View S;
  S.addLabel(L, LabelSlice{std::move(Self), std::move(Joint),
                           std::move(Other)});
  return S;
}

/// A named case study for the suite/bench harness.
struct CaseEntry {
  std::string Name;
  std::function<VerificationSession()> MakeSession;
};

} // namespace fcsl

#endif // FCSL_STRUCTURES_CASECOMMON_H
