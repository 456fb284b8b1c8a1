//===- tests/cache_test.cpp - Obligation-cache tests -----------------------===//
//
// Part of fcsl-cpp.
//
// Pins the content-addressed obligation pipeline (cache/Store.h, DESIGN.md
// §13): obligation keys are process-stable (computed in a freshly exec'd
// process, not a forked copy of this one), a warm rerun serves every keyed
// unit from the store with bit-identical verdicts and counts, editing a
// declared input invalidates exactly the affected unit, a verdict recorded
// under one engine-flag fingerprint never answers a query under another,
// truncated or corrupt logs degrade to misses (never wrong verdicts), and
// --cache=check re-discharges hits and fails loudly on divergence —
// exercised over the full Table-1 suite.
//
//===----------------------------------------------------------------------===//

#include "structures/StackIface.h"
#include "structures/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fcsl;

namespace {

/// A scratch cache directory + process cache-mode scope. Every test runs
/// against its own store and restores the process defaults on exit.
class CacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/fcsl-cache-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Dir = Template;
    cache::setCacheDir(Dir);
    cache::resetActiveStore();
  }

  void TearDown() override {
    cache::setDefaultCacheMode(cache::CacheMode::Off);
    cache::setCacheDir("");
    cache::resetActiveStore();
    std::remove(storePath().c_str());
    ::rmdir(Dir.c_str());
  }

  void setMode(cache::CacheMode M) {
    cache::setDefaultCacheMode(M);
    cache::resetActiveStore();
  }

  std::string storePath() const { return Dir + "/obligations.fcslcache"; }

  uint64_t storeSize() const {
    struct stat St;
    return ::stat(storePath().c_str(), &St) == 0
               ? static_cast<uint64_t>(St.st_size)
               : 0;
  }

  std::string Dir;
};

/// A deterministic toy session: one keyed Libs lemma whose declared input
/// is \p InputFp, reporting \p Checks elementary checks.
VerificationSession toySession(uint64_t InputFp, uint64_t Checks,
                               bool Passes = true) {
  VerificationSession S("Toy");
  S.addObligation(ObCategory::Libs, "toy_lemma",
                  ObligationInputs(ObKind::Check).mix(InputFp).rev(1),
                  [Checks, Passes](const ResolvedModes &) {
                    ObligationResult O;
                    O.Passed = Passes;
                    O.Checks = Checks;
                    O.Counters.Configs = Checks * 2;
                    if (!Passes)
                      O.Note = "toy failure";
                    return O;
                  });
  return S;
}

/// Renders every Table-1 proof unit's content fingerprint (plus the
/// engine-flag fingerprint) as one line per unit — the child process and
/// the parent must produce byte-identical dumps.
std::string dumpAllKeys() {
  std::ostringstream Out;
  std::vector<CaseEntry> Cases = allCaseStudies();
  Cases.push_back(CaseEntry{"Abstract stack", makeStackIfaceSession});
  for (const CaseEntry &Case : Cases) {
    VerificationSession S = Case.MakeSession();
    for (const ProofUnit &U : S.units())
      Out << Case.Name << "/" << U.Name << " " << U.ContentFp << "\n";
  }
  Out << "engine-flags " << engineFlagsFingerprint() << "\n";
  return Out.str();
}

} // namespace

// Re-executes this binary (exec, not fork: fresh address space, fresh
// intern arenas, fresh ASLR) and compares its key dump byte for byte.
// Fingerprints must derive from canonical content only — any pointer or
// registration-order dependence shows up as a mismatch.
TEST(CacheKeyTest, KeysAreProcessStable) {
  if (const char *DumpPath = std::getenv("FCSL_CACHE_TEST_DUMP")) {
    std::ofstream Out(DumpPath);
    ASSERT_TRUE(Out.good());
    Out << dumpAllKeys();
    return;
  }

  char Template[] = "/tmp/fcsl-keys-XXXXXX";
  int Fd = ::mkstemp(Template);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  std::string Path = Template;

  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::setenv("FCSL_CACHE_TEST_DUMP", Path.c_str(), 1);
    const char *Exe = "/proc/self/exe";
    execl(Exe, "cache_test",
          "--gtest_filter=CacheKeyTest.KeysAreProcessStable",
          "--gtest_brief=1", static_cast<char *>(nullptr));
    std::_Exit(127); // exec failed.
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "child key-dump process failed";

  std::ifstream In(Path);
  std::stringstream ChildDump;
  ChildDump << In.rdbuf();
  std::remove(Path.c_str());

  std::string Mine = dumpAllKeys();
  EXPECT_FALSE(Mine.empty());
  EXPECT_EQ(ChildDump.str(), Mine);
}

namespace {

/// The engine-flag fingerprint as every store record was keyed before
/// the oracle modes were salted: the resolved mode values, nothing else.
uint64_t unsaltedFlagsFingerprint(PorMode Por, SymMode Sym) {
  uint64_t Fp = fpString("fcsl-engine-flags");
  Fp = fpCombine(Fp, static_cast<uint64_t>(Por));
  return fpCombine(Fp, static_cast<uint64_t>(Sym));
}

} // namespace

TEST(CacheKeyTest, OracleModesSaltOnlyTheirFlagFingerprints) {
  // An oracle run returns the plain run's counters, so its records must
  // not answer for the older per-reduction harnesses' records; every
  // other mode keeps its fingerprint bit-identical so warm stores hit.
  std::set<uint64_t> Seen;
  for (PorMode Por : {PorMode::Off, PorMode::On, PorMode::Check}) {
    for (SymMode Sym : {SymMode::Off, SymMode::On, SymMode::Check}) {
      uint64_t Fp = engineFlagsFingerprintFor(Por, Sym);
      std::string Tag = std::string(porModeName(Por)) + "/" +
                        symModeName(Sym);
      if (resolveModes(Por, Sym).Oracle)
        EXPECT_NE(Fp, unsaltedFlagsFingerprint(Por, Sym)) << Tag;
      else
        EXPECT_EQ(Fp, unsaltedFlagsFingerprint(Por, Sym)) << Tag;
      EXPECT_TRUE(Seen.insert(Fp).second) << Tag << " collides";
      // The dynamic spellings hash as the modes they spell, so they share
      // those modes' records.
      if (Por != PorMode::Off) {
        PorMode Spelling =
            Por == PorMode::On ? PorMode::Dynamic : PorMode::CheckDynamic;
        EXPECT_EQ(engineFlagsFingerprintFor(Spelling, Sym), Fp) << Tag;
      }
    }
  }
}

TEST(CacheKeyTest, NonOracleFlagFingerprintsArePinned) {
  // The literal keys every existing store was written under: a change to
  // the fingerprint mixing, not only to the formula above, would orphan
  // every warm record of these modes.
  struct Pin {
    PorMode Por;
    SymMode Sym;
    uint64_t Fp;
  };
  const Pin Pins[] = {
      {PorMode::Off, SymMode::Off, 0x39ac37d995fec588ull},
      {PorMode::Off, SymMode::On, 0xa36fd553ffded22dull},
      {PorMode::On, SymMode::Off, 0x1c5717629a529064ull},
      {PorMode::On, SymMode::On, 0x9b9771e8b07282cfull},
      {PorMode::Dynamic, SymMode::Off, 0x1c5717629a529064ull},
      {PorMode::Dynamic, SymMode::On, 0x9b9771e8b07282cfull},
  };
  for (const Pin &P : Pins)
    EXPECT_EQ(engineFlagsFingerprintFor(P.Por, P.Sym), P.Fp)
        << porModeName(P.Por) << "/" << symModeName(P.Sym);
}

TEST_F(CacheTest, OracleModeRecordsFromBeforeTheSaltGoStale) {
  // A record keyed the old way under --por=check --symmetry=check carries
  // a partly reduced run's counters: it must be a stale-by-flag miss, not
  // a --cache=check divergence. The same content keyed under a non-check
  // mode still hits, under that mode's dynamic spelling too.
  VerificationSession S = toySession(0x0c0c, 6);
  ASSERT_EQ(S.units().size(), 1u);
  {
    cache::Store Planted;
    ASSERT_TRUE(Planted.open(storePath(), /*Writable=*/true));
    cache::CacheRecord R;
    R.Key = S.units()[0].key(
        unsaltedFlagsFingerprint(PorMode::Check, SymMode::Check));
    R.Checks = 999; // The fresh discharge reports 6.
    Planted.append(R);
    R.Key = S.units()[0].key(
        unsaltedFlagsFingerprint(PorMode::On, SymMode::On));
    R.Checks = 6;
    R.Counters.Configs = 12;
    Planted.append(R);
  }
  setDefaultPorMode(PorMode::Check);
  setDefaultSymmetryMode(SymMode::Check);
  setMode(cache::CacheMode::Check);
  SessionReport Checked = S.run();
  setDefaultPorMode(PorMode::Dynamic);
  setDefaultSymmetryMode(SymMode::On);
  setMode(cache::CacheMode::Rw);
  SessionReport Warm = S.run();
  setDefaultPorMode(PorMode::Off);
  setDefaultSymmetryMode(SymMode::Off);

  EXPECT_TRUE(Checked.AllPassed);
  EXPECT_EQ(Checked.Cache.Hits, 0u);
  EXPECT_EQ(Checked.Cache.StaleFlags, 1u);
  EXPECT_EQ(Checked.Cache.Divergences, 0u);
  EXPECT_EQ(Warm.Cache.Hits, 1u);
  EXPECT_EQ(Warm.Cache.Misses, 0u);
}

TEST_F(CacheTest, WarmRunReplaysBitIdentically) {
  setMode(cache::CacheMode::Rw);
  VerificationSession S = toySession(0x1234, 7);

  SessionReport Cold = S.run();
  EXPECT_TRUE(Cold.AllPassed);
  EXPECT_EQ(Cold.Cache.Hits, 0u);
  EXPECT_EQ(Cold.Cache.Misses, 1u);
  EXPECT_EQ(Cold.Cache.Stores, 1u);
  EXPECT_EQ(Cold.Cache.Unkeyed, 0u);

  SessionReport Warm = S.run();
  EXPECT_TRUE(Warm.AllPassed);
  EXPECT_EQ(Warm.Cache.Hits, 1u);
  EXPECT_EQ(Warm.Cache.Misses, 0u);
  EXPECT_EQ(Warm.Cache.Stores, 0u);
  EXPECT_EQ(Warm.Cache.ReplayedChecks, 7u);
  EXPECT_EQ(Warm.Cache.ReplayedConfigs, 14u);
  for (size_t C = 0; C != 5; ++C) {
    EXPECT_EQ(Warm.PerCategory[C].Obligations, Cold.PerCategory[C].Obligations);
    EXPECT_EQ(Warm.PerCategory[C].Checks, Cold.PerCategory[C].Checks);
  }

  // Failed verdicts replay too — the cache must not launder a failure.
  VerificationSession Bad = toySession(0x9999, 3, /*Passes=*/false);
  SessionReport BadCold = Bad.run();
  EXPECT_FALSE(BadCold.AllPassed);
  SessionReport BadWarm = Bad.run();
  EXPECT_FALSE(BadWarm.AllPassed);
  EXPECT_EQ(BadWarm.Cache.Hits, 1u);
  ASSERT_EQ(BadWarm.Failures.size(), 1u);
  EXPECT_NE(BadWarm.Failures[0].find("toy failure"), std::string::npos);
}

TEST_F(CacheTest, EditingADeclaredInputInvalidates) {
  setMode(cache::CacheMode::Rw);
  toySession(0xaaaa, 5).run();

  // Same declared input: hit. Different input (an "edited program"): miss,
  // and NOT stale-by-flag — the content itself changed.
  SessionReport Same = toySession(0xaaaa, 5).run();
  EXPECT_EQ(Same.Cache.Hits, 1u);
  SessionReport Edited = toySession(0xbbbb, 5).run();
  EXPECT_EQ(Edited.Cache.Hits, 0u);
  EXPECT_EQ(Edited.Cache.Misses, 1u);
  EXPECT_EQ(Edited.Cache.StaleFlags, 0u);

  // A bumped site revision invalidates as well.
  VerificationSession Bumped("Toy");
  Bumped.addObligation(ObCategory::Libs, "toy_lemma",
                       ObligationInputs(ObKind::Check).mix(0xaaaa).rev(2),
                       [](const ResolvedModes &) {
                         return ObligationResult{};
                       });
  SessionReport Rev = Bumped.run();
  EXPECT_EQ(Rev.Cache.Hits, 0u);
  EXPECT_EQ(Rev.Cache.Misses, 1u);
}

TEST_F(CacheTest, FlagFingerprintSeparatesVerdicts) {
  setMode(cache::CacheMode::Rw);
  ASSERT_EQ(defaultPorMode(), PorMode::Off);
  toySession(0xcccc, 9).run();

  // Same content under --por=dynamic: a miss, reported stale-by-flag. The
  // por=off verdict must never answer the por=dynamic query.
  setDefaultPorMode(PorMode::Dynamic);
  SessionReport Dyn = toySession(0xcccc, 9).run();
  EXPECT_EQ(Dyn.Cache.Hits, 0u);
  EXPECT_EQ(Dyn.Cache.Misses, 1u);
  EXPECT_EQ(Dyn.Cache.StaleFlags, 1u);
  EXPECT_EQ(Dyn.Cache.Stores, 1u);

  // Both flag variants now resident: each mode hits its own record.
  SessionReport DynWarm = toySession(0xcccc, 9).run();
  EXPECT_EQ(DynWarm.Cache.Hits, 1u);
  setDefaultPorMode(PorMode::Off);
  SessionReport OffWarm = toySession(0xcccc, 9).run();
  EXPECT_EQ(OffWarm.Cache.Hits, 1u);
}

TEST_F(CacheTest, RecordsPersistAcrossReopen) {
  setMode(cache::CacheMode::Rw);
  toySession(0xdddd, 4).run();
  ASSERT_GT(storeSize(), 0u);

  // Reopen from disk (fresh Store object, same log).
  cache::resetActiveStore();
  SessionReport Warm = toySession(0xdddd, 4).run();
  EXPECT_EQ(Warm.Cache.Hits, 1u);

  // Read-only mode serves the same hit and never grows the log.
  uint64_t Size = storeSize();
  setMode(cache::CacheMode::Ro);
  SessionReport Ro = toySession(0xdddd, 4).run();
  EXPECT_EQ(Ro.Cache.Hits, 1u);
  SessionReport RoMiss = toySession(0xeeee, 4).run();
  EXPECT_EQ(RoMiss.Cache.Misses, 1u);
  EXPECT_EQ(RoMiss.Cache.Stores, 0u);
  EXPECT_EQ(storeSize(), Size);
}

TEST_F(CacheTest, TruncatedAndCorruptLogsDegradeToMisses) {
  setMode(cache::CacheMode::Rw);
  toySession(0x1111, 2).run();
  toySession(0x2222, 2).run();
  cache::resetActiveStore();
  uint64_t Full = storeSize();
  ASSERT_GT(Full, 8u);

  // Torn tail: drop the last 3 bytes. The first record still loads; the
  // torn one is dropped (a miss, re-discharged and re-stored).
  ASSERT_EQ(::truncate(storePath().c_str(), Full - 3), 0);
  cache::resetActiveStore();
  SessionReport First = toySession(0x1111, 2).run();
  SessionReport Second = toySession(0x2222, 2).run();
  EXPECT_EQ(First.Cache.Hits + Second.Cache.Hits, 1u);
  EXPECT_EQ(First.Cache.Misses + Second.Cache.Misses, 1u);
  EXPECT_TRUE(First.AllPassed && Second.AllPassed);

  // Flip a byte inside the header: the whole log is foreign — every query
  // misses, the session still passes, and the rewrite leaves a clean log.
  {
    std::fstream F(storePath(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    F.seekp(1);
    F.put(static_cast<char>(0xff));
  }
  cache::resetActiveStore();
  SessionReport Corrupt = toySession(0x1111, 2).run();
  EXPECT_EQ(Corrupt.Cache.Hits, 0u);
  EXPECT_EQ(Corrupt.Cache.Misses, 1u);
  EXPECT_TRUE(Corrupt.AllPassed);
  cache::resetActiveStore();
  SessionReport Healed = toySession(0x1111, 2).run();
  EXPECT_EQ(Healed.Cache.Hits, 1u);
}

TEST_F(CacheTest, CheckModeFailsLoudlyOnDivergence) {
  // Plant a tampered record under the toy unit's key, then run in check
  // mode: the re-discharge contradicts the store and the session fails.
  VerificationSession S = toySession(0x5a5a, 6);
  ASSERT_EQ(S.units().size(), 1u);
  cache::ObligationKey Key = S.units()[0].key(engineFlagsFingerprint());

  {
    cache::Store Planted;
    ASSERT_TRUE(Planted.open(storePath(), /*Writable=*/true));
    cache::CacheRecord R;
    R.Key = Key;
    R.Passed = true;
    R.Checks = 999; // The fresh discharge reports 6.
    Planted.append(R);
  }

  setMode(cache::CacheMode::Check);
  SessionReport Report = S.run();
  EXPECT_FALSE(Report.AllPassed);
  EXPECT_EQ(Report.Cache.CheckRuns, 1u);
  EXPECT_EQ(Report.Cache.Divergences, 1u);
  ASSERT_EQ(Report.Failures.size(), 1u);
  EXPECT_NE(Report.Failures[0].find("cache-check divergence"),
            std::string::npos);
}

TEST_F(CacheTest, Table1WarmRunIsAllHitsAndCheckClean) {
  std::vector<CaseEntry> Cases = allCaseStudies();
  ASSERT_EQ(Cases.size(), 11u);

  // Cold run: populate the store; every obligation is keyed.
  setMode(cache::CacheMode::Rw);
  std::vector<SessionReport> Cold;
  for (const CaseEntry &Case : Cases) {
    Cold.push_back(Case.MakeSession().run());
    const SessionReport &R = Cold.back();
    EXPECT_TRUE(R.AllPassed) << Case.Name;
    EXPECT_EQ(R.Cache.Unkeyed, 0u) << Case.Name << " has unkeyed units";
    EXPECT_EQ(R.Cache.Hits, 0u) << Case.Name;
    EXPECT_EQ(R.Cache.Stores, R.totalObligations()) << Case.Name;
  }

  // Warm run: 100% hits, bit-identical verdicts and per-category counts.
  for (size_t I = 0; I != Cases.size(); ++I) {
    SessionReport Warm = Cases[I].MakeSession().run();
    EXPECT_TRUE(Warm.AllPassed) << Cases[I].Name;
    EXPECT_EQ(Warm.Cache.Hits, Warm.totalObligations()) << Cases[I].Name;
    EXPECT_EQ(Warm.Cache.Misses, 0u) << Cases[I].Name;
    for (size_t C = 0; C != 5; ++C) {
      EXPECT_EQ(Warm.PerCategory[C].Obligations,
                Cold[I].PerCategory[C].Obligations)
          << Cases[I].Name;
      EXPECT_EQ(Warm.PerCategory[C].Checks, Cold[I].PerCategory[C].Checks)
          << Cases[I].Name;
    }
  }

  // Check mode over the warm store: every hit re-discharged, zero
  // divergences — the cached corpus agrees with a fresh one.
  setMode(cache::CacheMode::Check);
  for (const CaseEntry &Case : Cases) {
    SessionReport Checked = Case.MakeSession().run();
    EXPECT_TRUE(Checked.AllPassed) << Case.Name;
    EXPECT_EQ(Checked.Cache.CheckRuns, Checked.totalObligations())
        << Case.Name;
    EXPECT_EQ(Checked.Cache.Divergences, 0u) << Case.Name;
  }
}

// Daemon-hardening regression (DESIGN.md §15): N threads hammer ONE log
// path through N distinct Store objects — the worst interleaving the
// per-object mutex cannot serialize. Every append must land whole
// (O_APPEND, single write per record, striped path lock); reopening the
// log afterwards must decode cleanly end to end and index every record.
TEST_F(CacheTest, ConcurrentAppendersNeverTearTheLog) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 200;

  // Seed a well-formed log (header + version) for the appenders to share.
  {
    cache::Store Seed;
    ASSERT_TRUE(Seed.open(storePath(), /*Writable=*/true));
  }

  std::vector<std::unique_ptr<cache::Store>> Stores;
  for (unsigned T = 0; T != Threads; ++T) {
    auto S = std::make_unique<cache::Store>();
    ASSERT_TRUE(S->open(storePath(), /*Writable=*/true));
    Stores.push_back(std::move(S));
  }

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([T, &Stores] {
      for (unsigned I = 0; I != PerThread; ++I) {
        cache::CacheRecord R;
        R.Key.Content = 1 + T * PerThread + I; // disjoint per thread.
        R.Key.Flags = 0x5eed;
        R.Passed = true;
        R.Checks = I;
        R.Counters.Configs = 2 * I;
        R.ElapsedUs = T;
        R.Note = "thread " + std::to_string(T);
        Stores[T]->append(R);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  Stores.clear(); // close every descriptor before reopening.

  // A fresh open must decode the whole log — open() rewrites a torn log,
  // shrinking it, so "every record indexed AND the size is unchanged by
  // reopening" pins that no append tore.
  uint64_t Written = storeSize();
  cache::Store Reopened;
  ASSERT_TRUE(Reopened.open(storePath(), /*Writable=*/true));
  EXPECT_EQ(Reopened.records(), size_t(Threads) * PerThread);
  EXPECT_EQ(storeSize(), Written) << "reopen rewrote a torn log";
  for (unsigned T = 0; T != Threads; ++T)
    for (unsigned I = 0; I != PerThread; ++I) {
      cache::ObligationKey K{1 + T * PerThread + I, 0x5eed};
      const cache::CacheRecord *R = Reopened.lookup(K);
      ASSERT_NE(R, nullptr);
      EXPECT_EQ(R->Checks, I);
      EXPECT_EQ(R->Note, "thread " + std::to_string(T));
    }
}
