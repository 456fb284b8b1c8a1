//===- prog/Engine.h - Exhaustive interleaving engine -----------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational counterpart of the paper's denotational action-tree
/// semantics (Section 5.1, after Brookes): an explicit-state exploration of
/// every interleaving of a program's atomic actions with each other and
/// with environment interference drawn from the ambient concurroid's
/// transitions.
///
/// Administrative steps (bind, conditionals, calls, fork/join bookkeeping,
/// and the operationally-no-op hide) are performed eagerly — only atomic
/// actions and environment transitions are scheduling points, which is
/// sound because administrative steps commute with every other thread's
/// steps. Revisited configurations are pruned; since `STsep` specs are
/// partial correctness, cutting cycles (e.g. spin loops) loses no
/// terminating behaviours.
///
/// The same commutation argument generalizes to atomic actions through
/// footprint metadata (concurroid/Footprint.h): with partial-order
/// reduction enabled, a thread whose pending action is independent of
/// every step any other agent could ever take explores alone, and sleep
/// sets prune the second order of already-commuted pairs (DESIGN.md §9).
/// Reduction preserves the Safe verdict, the sorted Terminals, and
/// failure detection, and stays bit-identical across job counts; the
/// check modes cross-validate this at runtime with one soundness oracle
/// that compares the reduced exploration against the plain engine.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_PROG_ENGINE_H
#define FCSL_PROG_ENGINE_H

#include "prog/Prog.h"
#include "state/GlobalState.h"

namespace fcsl {

/// Partial-order reduction mode for an exploration.
enum class PorMode : uint8_t {
  Default, ///< use the process default (setDefaultPorMode / FCSL_POR).
  Off,     ///< full interleaving exploration.
  On,      ///< static ample-set + sleep-set reduction.
  Dynamic, ///< a spelling of `On` (the dynamic licence is retired,
           ///< DESIGN.md §12); kept because wire bytes name it.
  Check,   ///< explore with `On` and cross-check against the plain engine.
  CheckDynamic ///< a spelling of `Check`, kept like `Dynamic`.
};

/// Symmetry-reduction mode for an exploration (DESIGN.md §11).
enum class SymMode : uint8_t {
  Default, ///< use the process default (setDefaultSymmetryMode /
           ///< FCSL_SYMMETRY).
  Off,     ///< explore configurations as constructed.
  On,      ///< canonicalize each configuration to its orbit representative.
  Check    ///< explore with `On` and cross-check against the plain engine.
};

/// Parses a `--por` / `FCSL_POR` spelling: off, on (alias 1), dynamic,
/// check, check-dynamic (dynamic and check-dynamic resolve to on and
/// check, see resolveModes). Returns false, leaving \p Out untouched, on any
/// other text. Every tool and the engine's environment fallback share it,
/// so all of them accept and reject the same spellings.
bool parsePorMode(const char *Text, PorMode &Out);
/// Renders a mode as its flag spelling ("default" for Default).
const char *porModeName(PorMode M);
/// The mode \p M spells: On for Dynamic, Check for CheckDynamic, else M.
PorMode canonicalPorMode(PorMode M);

/// Parses a `--symmetry` / `FCSL_SYMMETRY` spelling: off, on (alias 1),
/// check. Returns false, leaving \p Out untouched, on any other text.
bool parseSymMode(const char *Text, SymMode &Out);
/// Renders a mode as its flag spelling ("default" for Default).
const char *symModeName(SymMode M);

/// Exploration parameters.
struct EngineOptions {
  /// The ambient concurroid: source of coherence checking and of
  /// environment interference.
  ConcurroidRef Ambient;
  /// Interleave environment transitions (open-world). Under a top-level
  /// `hide`, turn off for closed-world runs.
  bool EnvInterference = true;
  /// Hard bound on distinct configurations (guards against blow-up).
  uint64_t MaxConfigs = 1u << 22;
  /// Program definitions for `call`.
  const DefTable *Defs = nullptr;
  /// Re-check coherence after every action step (catches buggy actions).
  bool CheckStepCoherence = true;
  /// Worker threads for the exploration. 0 = the process default
  /// (`FCSL_JOBS` / `setDefaultJobs`, see support/ThreadPool.h); 1 =
  /// serial. Results are bit-identical across job counts: terminals are
  /// merged and sorted deterministically, and for complete explorations
  /// every counter is order-independent.
  unsigned Jobs = 0;
  /// Partial-order reduction (see PorMode). `Default` resolves to the
  /// process default, which is Off unless overridden by `--por` /
  /// `FCSL_POR` / setDefaultPorMode.
  PorMode Por = PorMode::Default;
  /// Does nothing: every exploration runs in-process (DESIGN.md §10).
  /// Kept only because perfbench still sets it.
  unsigned Shards = 0;
  /// Symmetry reduction (see SymMode). `Default` resolves to the process
  /// default, which is Off unless overridden by `--symmetry` /
  /// `FCSL_SYMMETRY` / setDefaultSymmetryMode. Composes with POR:
  /// canonicalization happens before dedup and sleep-set keying, so the
  /// two reductions multiply.
  SymMode Symmetry = SymMode::Default;
};

/// The order-independent work counters of one (or several aggregated)
/// exploration runs, split out of RunResult so other layers can carry them
/// around without the full result: an ObligationResult records the
/// counters its discharge cost, and the obligation cache (cache/Store.h)
/// persists them so a warm run replays `--stats` faithfully.
struct EngineCounters {
  uint64_t Configs = 0;
  uint64_t ActionSteps = 0;
  uint64_t EnvSteps = 0;
  uint64_t Terminals = 0;
  uint64_t DedupHits = 0;

  EngineCounters &operator+=(const EngineCounters &O) {
    Configs += O.Configs;
    ActionSteps += O.ActionSteps;
    EnvSteps += O.EnvSteps;
    Terminals += O.Terminals;
    DedupHits += O.DedupHits;
    return *this;
  }
  friend bool operator==(const EngineCounters &A, const EngineCounters &B) {
    return A.Configs == B.Configs && A.ActionSteps == B.ActionSteps &&
           A.EnvSteps == B.EnvSteps && A.Terminals == B.Terminals &&
           A.DedupHits == B.DedupHits;
  }
  friend bool operator!=(const EngineCounters &A, const EngineCounters &B) {
    return !(A == B);
  }
};

/// A terminal execution: the program's result and final state.
struct Terminal {
  Val Result;
  View FinalView; ///< the root thread's final subjective view.

  friend bool operator<(const Terminal &A, const Terminal &B) {
    if (A.Result != B.Result)
      return A.Result < B.Result;
    return A.FinalView < B.FinalView;
  }
};

/// An exploration's reduction modes resolved against the process defaults
/// (see resolveModes): POR is Off or On, symmetry Off or On, and
/// a check spelling of either asks for the soundness oracle on top.
struct ReductionModes {
  PorMode Por = PorMode::Off;
  SymMode Sym = SymMode::Off;
  bool Oracle = false;
};

/// Resolves `Default` to the process defaults, the aliases to what they
/// spell (Dynamic is On, CheckDynamic is Check), and folds the check
/// modes into their reduced mode plus the oracle flag: Check is On,
/// symmetry Check is On. explore() resolves through this one function.
ReductionModes resolveModes(PorMode Por, SymMode Sym);

/// How an exploration was reduced. \c Por and \c Sym are the resolved
/// modes of the call. When the soundness oracle ran, the result's
/// verdict, terminals and counters are those of the plain (Off, Off) run,
/// and \c Por / \c Sym name the reduced run it was checked against.
struct ReductionRecord {
  PorMode Por = PorMode::Off;
  SymMode Sym = SymMode::Off;
  struct OracleRecord {
    bool Ran = false;
    /// The reduced run disagreed with the plain one (forces Safe = false).
    bool Mismatch = false;
    uint64_t PlainConfigs = 0;
    uint64_t ReducedConfigs = 0;
  } Oracle;
};

/// The outcome of an exploration.
struct RunResult {
  bool Safe = true;       ///< no action was applied outside its safe states.
  bool Exhausted = false; ///< MaxConfigs was hit: exploration incomplete.
  std::string FailureNote;
  /// The schedule leading to the failure: one human-readable line per
  /// scheduling decision ("thread 2: trymark -> true", "env: ...").
  /// Empty unless a safety violation occurred.
  std::vector<std::string> FailureTrace;
  std::vector<Terminal> Terminals; ///< deduplicated, sorted ascending.
  uint64_t ConfigsExplored = 0;
  uint64_t ActionSteps = 0;
  uint64_t EnvSteps = 0;
  uint64_t DedupHits = 0;
  /// Final (= peak, the set only grows) visited-set size for this run.
  /// Bytes approximate the retained memory: each visited node with its
  /// handle vector, plus each entry of the run's thread-context and
  /// global-state tables once. Interned values (Val, Heap, ...) are
  /// shared process-wide and counted by support/Intern.h, not here.
  uint64_t VisitedNodes = 0;
  uint64_t VisitedBytes = 0;
  /// Thread-step memo (see DESIGN.md §16): thread steps served from the
  /// run's memo instead of being re-executed, and the (thread, context,
  /// global state) keys it recorded. Not part of counters(): at Jobs > 1
  /// two workers may both miss one key, so both depend on the schedule.
  uint64_t StepMemoHits = 0;
  uint64_t StepMemoEntries = 0;
  /// Env rows (see DESIGN.md §16): reads of the run's rows that found the
  /// row already recorded, and the rows recorded. Plain and reduced
  /// expansion both read rows. Kept out of counters(), like the memo
  /// counters above.
  uint64_t EnvRowHits = 0;
  uint64_t EnvRowEntries = 0;
  /// Exhaustion diagnostics: the MaxConfigs bound that was in effect and,
  /// when it was hit, how many frontier configurations were still pending
  /// at abort (scheduling-dependent; a magnitude, not an exact count).
  uint64_t MaxConfigsBound = 0;
  uint64_t FrontierAtAbort = 0;
  /// Reduction provenance: the resolved modes and what the oracle saw.
  ReductionRecord Reduction;

  bool complete() const { return Safe && !Exhausted; }
  /// Renders the failure trace, one step per line.
  std::string renderTrace() const;
  /// This run's work counters in the detached form the cache persists.
  EngineCounters counters() const {
    EngineCounters C;
    C.Configs = ConfigsExplored;
    C.ActionSteps = ActionSteps;
    C.EnvSteps = EnvSteps;
    C.Terminals = Terminals.size();
    C.DedupHits = DedupHits;
    return C;
  }
};

/// Explores every interleaving of \p Root from \p Initial. The root
/// program runs as thread 1; its variable environment starts from
/// \p InitialEnv (handy for parameterizing a spec's logical variables).
/// With `Opts.Jobs > 1` the frontier is explored by a work-stealing
/// worker team over a lock-striped visited set; the returned result is
/// identical to the serial one (terminals sorted, exact counters), except
/// that when a safety violation exists the reported counterexample is
/// whichever violating schedule a worker reached first.
RunResult explore(const ProgRef &Root, const GlobalState &Initial,
                  const EngineOptions &Opts, const VarEnv &InitialEnv = {});

/// Outcome of a single simulated schedule.
struct SimResult {
  bool Safe = true;
  bool Terminated = false; ///< false: step budget exhausted (livelock?).
  std::string FailureNote;
  Val Result;
  View FinalView;
  uint64_t Steps = 0;
};

/// Executes ONE schedule of \p Root, choosing the next thread (or
/// environment) step pseudo-randomly from \p Seed. This is the
/// reproduction's stand-in for the paper's future-work "program
/// extraction": the same verified model program runs at scales the
/// exhaustive explorer cannot reach, as a randomized test. The engine
/// invariants (action safety, per-step coherence) are still enforced on
/// the sampled path. \p MaxSteps bounds the walk.
SimResult simulate(const ProgRef &Root, const GlobalState &Initial,
                   const EngineOptions &Opts, uint64_t Seed,
                   uint64_t MaxSteps = 1u << 20,
                   const VarEnv &InitialEnv = {});

/// Process-wide high-water marks over every exploration run so far
/// (reported by `fcsl-verify --stats` and the benchmarks).
uint64_t peakVisitedNodes();
uint64_t peakVisitedBytes();

/// Cumulative configurations explored across every run so far. Benchmarks
/// read deltas around a workload to attribute state-space volume to it.
uint64_t totalConfigsExplored();

/// Sets the process-default PorMode used when `EngineOptions::Por` is
/// `Default` (exposed as `fcsl-verify --por=off|on|dynamic|check|...`).
void setDefaultPorMode(PorMode M);

/// The process-default PorMode: the last setDefaultPorMode value, else the
/// `FCSL_POR` environment variable (parsePorMode; an unknown spelling
/// reads as Off), else Off.
PorMode defaultPorMode();

/// Cumulative soundness-oracle work over every oracle run so far: how
/// many explore() calls ran it, the configs of their plain and reduced
/// explorations, and how many of them disagreed.
struct OracleTotals {
  uint64_t Runs = 0;
  uint64_t PlainConfigs = 0;
  uint64_t ReducedConfigs = 0;
  uint64_t Mismatches = 0;
};
OracleTotals oracleTotals();

/// Process-wide partial-order-reduction counters over every POR-reduced
/// run so far (reported by `fcsl-verify --stats`): wakeup replays
/// (re-expansions after a revisit shrank a sleep set or grew a close
/// mask) with the peak number of candidates replayed at once, sleep-set
/// hits (candidates pruned because a commuted order was already taken),
/// and full-expansion fallbacks (no ample singleton at all). These are
/// effort counters: every expansion adds to them, wakeup replays included,
/// and how many replays a node gets depends on the order its routes
/// arrive in, so at Jobs > 1 they may vary from run to run (verdicts,
/// terminals and the work counters do not).
struct PorStats {
  /// Always 0: they counted the retired dynamic licence's refusals. Kept
  /// because perfbench reads them.
  uint64_t RacesDetected = 0;
  uint64_t BacktrackPoints = 0;
  uint64_t WakeupReplays = 0;
  uint64_t WakeupPeak = 0;
  uint64_t SleepHits = 0;
  uint64_t FullExpansions = 0;
};
PorStats porStats();

/// Sets the process-default SymMode used when `EngineOptions::Symmetry` is
/// `Default` (exposed as `fcsl-verify --symmetry=off|on|check`).
void setDefaultSymmetryMode(SymMode M);

/// The process-default SymMode: the last setDefaultSymmetryMode value, else
/// the `FCSL_SYMMETRY` environment variable (parseSymMode; an unknown
/// spelling reads as Off), else Off.
SymMode defaultSymmetryMode();

/// Process-wide symmetry counters over every symmetry-reduced run so far
/// (reported by `fcsl-verify --stats`): canonicalize calls (orbit
/// lookups), how many canonicalizations actually changed the
/// configuration (a proxy for orbit sizes > 1), how many applied a
/// fresh-pointer renaming, how many k-ary orbit groups were formed, and
/// the largest group seen. Lookups, Changed and Renames count wakeup
/// replays' successors too, so like PorStats they may vary with the
/// schedule at Jobs > 1.
struct SymmetryStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0; ///< always 0: there is no orbit cache to hit.
  uint64_t Changed = 0;
  uint64_t Renames = 0;   ///< canonicalizations that renamed fresh pointers.
  uint64_t Groups = 0;    ///< k-ary orbit groups formed at forks.
  uint64_t GroupPeak = 0; ///< largest orbit group (slot count) observed.
};
SymmetryStats symmetryStats();

/// Does nothing: every exploration runs in-process (DESIGN.md §10). Kept
/// only because perfbench still calls it.
void setDefaultShards(unsigned N);

} // namespace fcsl

#endif // FCSL_PROG_ENGINE_H
