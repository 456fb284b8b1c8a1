//===- cache/Store.h - Content-addressed obligation verdict store -*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent obligation cache (DESIGN.md §13): a content-addressed
/// store mapping ObligationKey — the fingerprint of everything a proof
/// unit's verdict depends on — to the verdict, its check counts, and the
/// engine counters of the discharging run. Re-verifying a corpus after a
/// small edit then only re-discharges obligations whose inputs changed;
/// everything else is served from the store in microseconds.
///
/// The on-disk format is an append-only log written through the versioned
/// binary codec: the codec header (magic + version), a cache-record format
/// version, then one length-prefixed record v1 per appended verdict.
/// Decoding is fail-soft end to end — a truncated tail, a corrupt frame,
/// or a header from another codec version degrades to cache *misses*,
/// never to a wrong verdict. Appends go through O_APPEND-style semantics
/// (open in append mode, one fwrite per record), so concurrent writers
/// at worst produce a torn tail that the next load drops.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_CACHE_STORE_H
#define FCSL_CACHE_STORE_H

#include "prog/Engine.h"
#include "support/Codec.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace fcsl {
namespace cache {

/// The canonical address of one proof obligation: `Content` fingerprints
/// the obligation's inputs (program, spec, instances, concurroid, kind,
/// bounds — computed from the interned arenas' canonical encodings, not
/// from session names or registration order), and `Flags` fingerprints the
/// engine-relevant process flags (resolved PorMode/SymMode). A verdict
/// recorded under one key never answers a query under another: a
/// `--por=dynamic` verdict cannot serve a `--por=off` run.
struct ObligationKey {
  uint64_t Content = 0;
  uint64_t Flags = 0;

  friend bool operator==(const ObligationKey &A, const ObligationKey &B) {
    return A.Content == B.Content && A.Flags == B.Flags;
  }
  friend bool operator!=(const ObligationKey &A, const ObligationKey &B) {
    return !(A == B);
  }
  friend bool operator<(const ObligationKey &A, const ObligationKey &B) {
    if (A.Content != B.Content)
      return A.Content < B.Content;
    return A.Flags < B.Flags;
  }
};

/// Bump when the record layout changes; old logs then load as all-miss.
constexpr uint32_t CacheRecordVersion = 1;

/// One cached verdict: everything needed to replay the obligation's
/// contribution to a session report (and `--stats`) without re-running it.
struct CacheRecord {
  ObligationKey Key;
  bool Passed = true;
  uint64_t Checks = 0;          ///< ObligationResult::Checks, bit-exact.
  EngineCounters Counters;      ///< engine counters of the cold discharge.
  uint64_t ElapsedUs = 0;       ///< cold discharge time, for stats.
  std::string Note;             ///< failure note when !Passed.

  friend bool operator==(const CacheRecord &A, const CacheRecord &B) {
    return A.Key == B.Key && A.Passed == B.Passed && A.Checks == B.Checks &&
           A.Counters == B.Counters && A.ElapsedUs == B.ElapsedUs &&
           A.Note == B.Note;
  }
};

/// Codec entry points for one record (no header, no length prefix — the
/// store and the wire layer add their own framing). Decode is fail-soft:
/// check `D.failed()` before trusting the result.
void encode(Encoder &E, const CacheRecord &R);
CacheRecord decodeCacheRecord(Decoder &D);

/// How sessions consult the store (`fcsl-verify --cache=...`).
enum class CacheMode : uint8_t {
  Default, ///< use the process default (setDefaultCacheMode / FCSL_CACHE).
  Off,     ///< no store: every obligation is discharged.
  Rw,      ///< serve hits, discharge misses, append their verdicts.
  Ro,      ///< serve hits, discharge misses, never write.
  Check,   ///< discharge everything; any hit whose stored verdict or
           ///< counts diverge from the fresh run fails loudly (the same
           ///< oracle pattern as --por=check). Misses are appended.
};

/// The persistent store: an append-only log file plus an in-memory index.
///
/// Hardened for multi-session daemon use (DESIGN.md §15): the log is held
/// as an `O_APPEND` file descriptor and every record goes out as ONE
/// `write(2)` of the complete frame (length prefix + body), so the kernel
/// serializes concurrent appends at the file offset — records from
/// different writers may interleave, but never tear. In-process, a striped
/// per-path mutex additionally serializes appends from distinct Store
/// objects sharing one log (the per-object mutex cannot see them).
class Store {
public:
  ~Store();

  /// Opens (and with \p Writable, creates) the log at \p Path, loading
  /// every decodable record into the index. Returns false when the file
  /// cannot be opened for the requested access; a corrupt or stale log is
  /// NOT an error — decoding stops at the first bad frame and the rest of
  /// the file is ignored (all-miss).
  bool open(const std::string &Path, bool Writable);

  /// The record under \p Key, or nullptr (a miss).
  const CacheRecord *lookup(const ObligationKey &Key) const;

  /// True when some record shares \p Content under *any* flags fingerprint
  /// — a miss with this true is "stale by flag", not a content change.
  bool hasContent(uint64_t Content) const;

  /// Indexes \p R and, when writable, appends it to the log. A key already
  /// present is left untouched (first verdict wins; identical by
  /// construction unless the corpus is non-deterministic).
  void append(const CacheRecord &R);

  size_t records() const;
  uint64_t fileBytes() const; ///< current size of the log file (0 if none).
  const std::string &path() const { return Path; }

private:
  void writeRecord(const CacheRecord &R);

  mutable std::mutex M;
  std::string Path;
  int OutFd = -1; ///< O_APPEND log descriptor when writable.
  std::map<ObligationKey, CacheRecord> Index;
  std::set<uint64_t> Contents; ///< every indexed Content fingerprint.
};

/// Sets the process-default CacheMode used when a session runs (exposed as
/// `fcsl-verify --cache=off|rw|ro|check`).
void setDefaultCacheMode(CacheMode M);

/// The process-default CacheMode: the last setDefaultCacheMode value, else
/// the `FCSL_CACHE` environment variable ("off"/"rw"/"ro"/"check"), else
/// Off.
CacheMode defaultCacheMode();

/// Parses a mode spelling; returns false (leaving \p Out untouched) on an
/// unknown value. Shared by the tool's flag parser and the env fallback so
/// both reject the same spellings.
bool parseCacheMode(const char *Text, CacheMode &Out);

/// Renders a mode as its flag spelling.
const char *cacheModeName(CacheMode M);

/// Overrides the store directory (else `FCSL_CACHE_DIR`, else
/// ".fcsl-cache" under the current directory). Empty string clears the
/// override. Takes effect at the next activeStore() after a reset.
void setCacheDir(std::string Dir);
std::string cacheDir();

/// The lazily-opened process store for cacheDir(), or nullptr when \p Mode
/// is Off or the log cannot be opened (fail-soft: the session then just
/// discharges everything). The first call that opens the store fixes its
/// access: Ro opens it read-only. Every later call, under any consulting
/// mode, returns that one store until resetActiveStore().
Store *activeStore(CacheMode Mode = defaultCacheMode());

/// The already-opened process store whatever mode opened it, or nullptr
/// when none has been opened yet.
Store *resolvedStore();

/// Closes the process store so the next activeStore() reopens it — used by
/// tests that switch directories or corrupt the log on disk.
void resetActiveStore();

/// Process-wide cache counters over every session run so far (reported by
/// `fcsl-verify --stats`).
struct CacheStats {
  uint64_t Hits = 0;           ///< obligations served from the store.
  uint64_t Misses = 0;         ///< keyed obligations not found.
  uint64_t StaleFlags = 0;     ///< misses whose content was present under
                               ///< different engine flags.
  uint64_t Stores = 0;         ///< records appended after a cold discharge.
  uint64_t CheckRuns = 0;      ///< hits re-discharged under --cache=check.
  uint64_t Divergences = 0;    ///< check re-runs that contradicted the store.
  uint64_t Unkeyed = 0;        ///< obligations with no content key (never
                               ///< cached).
  uint64_t ReplayedChecks = 0; ///< elementary checks replayed from records.
  uint64_t ReplayedConfigs = 0;///< engine configs replayed from records.
  uint64_t ReplayedUs = 0;     ///< cold wall-clock the hits avoided.
};
CacheStats cacheStats();

/// Internal: accumulate into the process-wide counters (Session::run).
void accumulateCacheStats(const CacheStats &Delta);

} // namespace cache
} // namespace fcsl

#endif // FCSL_CACHE_STORE_H
