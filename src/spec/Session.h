//===- spec/Session.h - Content-addressed proof-unit scheduler --*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A VerificationSession collects the proof obligations of one case study,
/// classified into the categories of the paper's Table 1 — Libs
/// (program-specific library lemmas), Conc (concurroid definitions and
/// their metatheory), Acts (atomic-action obligations), Stab (stability
/// lemmas) and Main (the main function's Hoare triple) — discharges them,
/// and reports per-category counts and timings. Running every session is
/// how bench_table1 regenerates the shape of Table 1.
///
/// Obligations are first-class *proof units*: each carries a canonical
/// content fingerprint declared at registration from the interned
/// artifacts it depends on (program fp, spec strings, concurroid fp,
/// instance views, engine bounds — never session names or registration
/// order). Together with the fingerprint of the session's engine modes
/// this forms the unit's ObligationKey, and `run()` is a scheduler over
/// units: it probes the persistent verdict store (cache/Store.h) first,
/// replays hits bit-identically (stored check counts and engine
/// counters), and dispatches only the misses to the job pool. See
/// DESIGN.md §13.
///
/// A session's POR, symmetry and cache modes are an argument of `run()`
/// (ResolvedModes), handed on to every discharge closure — never read
/// from process globals mid-run — so sessions under different modes can
/// run side by side in one process (the daemon, DESIGN.md §15).
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SPEC_SESSION_H
#define FCSL_SPEC_SESSION_H

#include "cache/Store.h"
#include "support/Intern.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fcsl {

/// The obligation categories of Table 1's columns.
enum class ObCategory : uint8_t { Libs, Conc, Acts, Stab, Main };

/// Renders a category as the paper's column heading.
const char *obCategoryName(ObCategory C);

/// What a proof unit checks; part of its content address, so two units
/// over the same artifacts but of different kinds never share a verdict.
enum class ObKind : uint8_t {
  Check,      ///< a plain boolean lemma (PCM laws, library facts).
  Metatheory, ///< concurroid metatheory over sampled states.
  Action,     ///< atomic-action obligations over sampled states.
  Stability,  ///< assertion stability under environment interference.
  Triple,     ///< a Hoare triple discharged by exhaustive exploration.
};

/// Accumulates a proof unit's declared content fingerprint. Obligation
/// closures are opaque, so each registration site *declares* what its
/// verdict depends on — the fingerprints of the interned artifacts it
/// captures — through this builder. The staleness contract (DESIGN.md
/// §13): a unit's verdict may be served from the store exactly when every
/// declared input is unchanged; a site whose closure logic changes in a
/// way no artifact fingerprint reflects must bump its `rev()`.
class ObligationInputs {
public:
  explicit ObligationInputs(ObKind Kind)
      : Fp(fpCombine(fpString("fcsl-obligation"),
                     static_cast<uint64_t>(Kind))) {}

  /// Mixes a precomputed fingerprint (Prog/View/Concurroid/codecFp).
  ObligationInputs &mix(uint64_t V) {
    Fp = fpCombine(Fp, V);
    return *this;
  }
  /// Mixes a semantic string (spec pre/post text, action names).
  ObligationInputs &text(std::string_view S) {
    Fp = fpCombine(Fp, fpString(S));
    return *this;
  }
  /// Mixes a semantic integer (bounds, arities, seed counts).
  ObligationInputs &num(uint64_t V) {
    Fp = fpCombine(Fp, fpScramble(V + 0x9e3779b97f4a7c15ULL));
    return *this;
  }
  /// Mixes a semantic boolean (EnvInterference, closed-world).
  ObligationInputs &flag(bool B) {
    Fp = fpCombine(Fp, B ? 0x2545f4914f6cdd1dULL : 0x9e6c63d0873d7c4dULL);
    return *this;
  }
  /// Closure-logic revision: bump when the discharge code changes in a
  /// way no artifact fingerprint captures (new sample family, tightened
  /// check), so stale verdicts stop answering.
  ObligationInputs &rev(uint64_t N) {
    Fp = fpCombine(Fp, fpCombine(fpString("rev"), N));
    return *this;
  }

  /// The accumulated content fingerprint; never 0 (0 means "unkeyed").
  uint64_t fp() const { return Fp ? Fp : 1; }

private:
  uint64_t Fp;
};

/// What one discharged obligation reports back.
struct ObligationResult {
  bool Passed = true;
  uint64_t Checks = 0; ///< elementary checks run (states, joins, ...).
  std::string Note;    ///< failure description when !Passed.
  /// Exploration work behind the verdict (zero for sample-based checks);
  /// persisted so warm runs replay `--stats` faithfully.
  EngineCounters Counters;
  bool FromCache = false; ///< served from the store, not discharged.
};

/// A session's execution modes: the POR and symmetry modes its
/// explorations run under, and how it consults the verdict store. Passed
/// explicitly to VerificationSession::run and on to every discharge
/// closure; closures that explore copy Por/Sym into their EngineOptions.
struct ResolvedModes {
  PorMode Por = PorMode::Off;
  SymMode Sym = SymMode::Off;
  cache::CacheMode Cache = cache::CacheMode::Off;

  /// The process defaults (setDefault* / FCSL_POR, FCSL_SYMMETRY,
  /// FCSL_CACHE), read once.
  static ResolvedModes defaults();
};

/// A discharge closure: runs one obligation under the session's modes.
using DischargeFn = std::function<ObligationResult(const ResolvedModes &)>;

/// One first-class obligation: category and name for reporting, a content
/// fingerprint for addressing, and the discharge closure. ContentFp == 0
/// marks a legacy unkeyed unit — always discharged, never cached.
struct ProofUnit {
  ObCategory Category = ObCategory::Libs;
  std::string Name;
  uint64_t ContentFp = 0;
  DischargeFn Run;

  bool keyed() const { return ContentFp != 0; }
  cache::ObligationKey key(uint64_t FlagsFp) const {
    return cache::ObligationKey{ContentFp, FlagsFp};
  }
};

/// The engine-flag fingerprint of a session's POR and symmetry modes
/// (`Dynamic` and `CheckDynamic` hash as `On` and `Check`). Jobs are deliberately excluded — results are bit-identical across job
/// counts, so a verdict computed at --jobs=1 validly answers a --jobs=8
/// query. Bounds and interference are content-side (they vary
/// per unit, not per session).
uint64_t engineFlagsFingerprintFor(PorMode Por, SymMode Sym);

/// engineFlagsFingerprintFor the process-default modes.
uint64_t engineFlagsFingerprint();

/// Per-category tallies.
struct CategoryStats {
  uint64_t Obligations = 0;
  uint64_t Checks = 0;
  double ElapsedMs = 0.0;
};

/// The report of a completed session (one Table 1 row).
struct SessionReport {
  std::string Program;
  bool AllPassed = true;
  CategoryStats PerCategory[5];
  double TotalMs = 0.0;
  std::vector<std::string> Failures;
  /// This session's cache traffic (also accumulated process-wide for
  /// `--stats`): hits replayed, misses discharged, stale-by-flag misses,
  /// records stored, check-mode re-runs and divergences, unkeyed units.
  cache::CacheStats Cache;

  uint64_t totalObligations() const;
  uint64_t totalChecks() const;
};

/// Codec entry points for a whole report (implemented in support/Codec.cpp
/// with the other state types): the payload of the service's Report frame,
/// so a daemon-served report is bit-identical to a local run's. Doubles
/// travel as their IEEE-754 bit patterns. Decode is fail-soft: check
/// `D.failed()` before trusting the result.
void encode(Encoder &E, const SessionReport &R);
SessionReport decodeSessionReport(Decoder &D);

/// Renders a report exactly as `fcsl-verify verify` prints it (verdict
/// line, per-category table, failure lines). Shared by the CLI and
/// fcsl-client so a daemon round-trip diffs clean against a direct run.
std::string renderSessionReport(const SessionReport &R);

/// One completed obligation, streamed to a progress observer while a
/// session runs. Completion order follows the scheduler (store hits
/// first, then fresh discharges as workers finish them); the report still
/// aggregates in registration order.
struct ObligationProgress {
  size_t Completed = 0; ///< completion ordinal, 1-based.
  size_t Total = 0;     ///< total obligations in the session.
  ObCategory Category = ObCategory::Libs;
  std::string Name;
  bool Passed = true;
  bool FromCache = false;
  double ElapsedMs = 0.0; ///< discharge time (0 for replayed hits).
};

/// Progress observer. Invocations are serialized (an internal mutex), but
/// may come from any discharge worker thread.
using ProgressFn = std::function<void(const ObligationProgress &)>;

/// One case study's bundle of proof units.
class VerificationSession {
public:
  explicit VerificationSession(std::string Program)
      : Program(std::move(Program)) {}

  /// Registers a keyed proof unit. Units must be independent: with a
  /// parallel job count they are discharged concurrently, and the report
  /// always aggregates in registration order. \p Inputs declares the
  /// unit's content (see ObligationInputs).
  void addObligation(ObCategory Category, std::string Name,
                     const ObligationInputs &Inputs, DischargeFn Run);

  /// Registers an unkeyed unit — always discharged, never cached. For
  /// obligations whose inputs cannot (yet) be fingerprinted.
  void addObligation(ObCategory Category, std::string Name, DischargeFn Run);

  /// Schedules every unit under \p Modes and reports. \p Jobs is the
  /// worker count for concurrent discharge: 0 = the process default (see
  /// support/ThreadPool.h), 1 = serial. The scheduler first probes the
  /// verdict store under \p Modes (cache/Store.h): hits are replayed with
  /// their stored check counts and engine counters — so the report is
  /// bit-identical to a cold run — and only misses (plus every unit,
  /// under --cache=check) go to the job pool, each discharged with
  /// \p Modes. Fresh verdicts of keyed units are appended to the store in
  /// registration order. \p Progress, when set, observes each obligation
  /// as it completes.
  SessionReport run(const ResolvedModes &Modes, unsigned Jobs = 0,
                    const ProgressFn &Progress = {}) const;

  /// run() under the process-default modes, read once at entry.
  SessionReport run(unsigned Jobs = 0, const ProgressFn &Progress = {}) const {
    return run(ResolvedModes::defaults(), Jobs, Progress);
  }

  /// The daemon's microsecond fast path: when *every* unit is keyed and
  /// has a verdict in \p S under \p FlagsFp, builds the same report a
  /// fully-warm run() would produce — replayed results, cache counters,
  /// registration-order aggregation — without invoking any discharge
  /// closure (the engine never runs). Returns nullopt the moment one unit
  /// is unkeyed or missing, leaving no trace in the process cache stats.
  std::optional<SessionReport>
  serveFromStore(cache::Store &S, uint64_t FlagsFp,
                 const ProgressFn &Progress = {}) const;

  const std::string &program() const { return Program; }
  size_t numObligations() const { return Units.size(); }
  /// The registered units, in registration order (tests key-stability
  /// and the daemon's scheduling on this).
  const std::vector<ProofUnit> &units() const { return Units; }

private:
  std::string Program;
  std::vector<ProofUnit> Units;
};

} // namespace fcsl

#endif // FCSL_SPEC_SESSION_H
