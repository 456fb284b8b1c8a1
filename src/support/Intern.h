//===- support/Intern.h - Hash-consing arena + stable fingerprints -*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical interned-state layer. Every structured value of the model
/// checker (Val, Heap, History, PCMVal) is represented by a handle to an
/// immutable node owned by a process-wide arena; structurally equal values
/// share one node, so equality is pointer comparison, copies are O(1), and
/// hashing reads a precomputed 64-bit structural fingerprint instead of
/// walking the structure.
///
/// Fingerprints are computed from payload bytes and child fingerprints with
/// the fixed mixers below — never from node addresses or std::hash — so they
/// are stable across runs and processes. That stability is what makes them
/// usable as obligation-cache keys (cache/Store.h) and lets tests pin
/// golden values.
///
/// The arena is lock-striped (64 stripes keyed by fingerprint, matching the
/// visited-set striping in prog/Engine.cpp) so parallel exploration workers
/// intern without contending on one mutex. Nodes are never freed: the arena
/// is a deliberately leaked singleton, which keeps canonical pointers valid
/// for the life of the process (and through static destructors).
///
/// Because nodes are never freed, a handle names one value forever, so the
/// results of pure operations on canonical values (joins, updates) can be
/// cached by operand handle: ComputedTable below is a small per-thread
/// cache that serves repeats without rebuilding the result's payload or
/// taking an arena lock (DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SUPPORT_INTERN_H
#define FCSL_SUPPORT_INTERN_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

namespace fcsl {

//===----------------------------------------------------------------------===//
// Fingerprint mixing
//===----------------------------------------------------------------------===//

/// Finalizing scramble (splitmix64): spreads low-entropy inputs (small
/// integers, kind tags) over the full 64-bit space. Unsigned arithmetic
/// only, so the result is identical on every conforming platform.
inline uint64_t fpScramble(uint64_t V) {
  V ^= V >> 30;
  V *= 0xbf58476d1ce4e5b9ULL;
  V ^= V >> 27;
  V *= 0x94d049bb133111ebULL;
  V ^= V >> 31;
  return V;
}

/// Mixes \p V into the running fingerprint \p Seed, order-sensitively.
inline uint64_t fpCombine(uint64_t Seed, uint64_t V) {
  return Seed ^ (fpScramble(V) + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                 (Seed >> 2));
}

/// FNV-1a over the bytes of \p S; used for names and salts.
inline uint64_t fpString(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// FNV-1a over a raw byte range. Fingerprinting a value's canonical codec
/// encoding this way yields a process-stable content address for any
/// serializable state type (the obligation cache keys on these).
inline uint64_t fpBytes(const void *Data, size_t N) {
  uint64_t H = 0xcbf29ce484222325ULL;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Arena statistics
//===----------------------------------------------------------------------===//

/// Per-node-type interning counters.
struct InternTypeStats {
  std::string Name;
  uint64_t Requests = 0; ///< intern() calls.
  uint64_t Nodes = 0;    ///< distinct nodes materialized.
};

/// A snapshot of every arena in the process.
struct InternStats {
  std::vector<InternTypeStats> PerType;

  uint64_t totalRequests() const {
    uint64_t N = 0;
    for (const InternTypeStats &S : PerType)
      N += S.Requests;
    return N;
  }
  uint64_t totalNodes() const {
    uint64_t N = 0;
    for (const InternTypeStats &S : PerType)
      N += S.Nodes;
    return N;
  }
  /// Requests per materialized node; > 1 whenever sharing happened.
  double dedupRatio() const {
    uint64_t Nodes = totalNodes();
    return Nodes == 0 ? 1.0
                      : static_cast<double>(totalRequests()) /
                            static_cast<double>(Nodes);
  }
};

/// Snapshots every registered arena (thread-safe).
InternStats internStats();

/// Probe and hit counters of one cached operation (see ComputedTable),
/// summed over every thread that ever ran it.
struct ComputedTableStats {
  std::string Name;
  uint64_t Probes = 0;
  uint64_t Hits = 0;
};

/// Snapshots every cached operation's counters, sorted by name
/// (thread-safe).
std::vector<ComputedTableStats> computedTableStats();

namespace detail {

/// Registers a stats provider under \p Name; called once per arena.
void registerArenaStats(const char *Name,
                        std::function<std::pair<uint64_t, uint64_t>()> Fn);

/// A lock-striped hash-consing arena. NodeT must expose a `uint64_t Fp`
/// member (the precomputed structural fingerprint) and
/// `bool samePayload(const NodeT &) const` (structural equality; children
/// held as canonical node pointers compare by address, so "structural"
/// equality is one shallow level deep).
template <typename NodeT> class InternArena {
public:
  explicit InternArena(const char *Name) {
    registerArenaStats(Name, [this] { return snapshot(); });
  }

  InternArena(const InternArena &) = delete;
  InternArena &operator=(const InternArena &) = delete;

  /// Returns the canonical node structurally equal to \p Candidate,
  /// materializing it on first sight. The returned pointer is valid for
  /// the life of the process.
  const NodeT *intern(NodeT &&Candidate) {
    Stripe &S = Stripes[Candidate.Fp & (NumStripes - 1)];
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Requests;
    auto It = S.Set.find(&Candidate);
    if (It != S.Set.end())
      return *It;
    const NodeT *N = new NodeT(std::move(Candidate));
    S.Set.insert(N);
    return N;
  }

private:
  struct FpHash {
    size_t operator()(const NodeT *N) const {
      return static_cast<size_t>(N->Fp);
    }
  };
  struct PayloadEq {
    bool operator()(const NodeT *A, const NodeT *B) const {
      return A->samePayload(*B);
    }
  };
  struct Stripe {
    std::mutex M;
    std::unordered_set<const NodeT *, FpHash, PayloadEq> Set;
    uint64_t Requests = 0;
  };

  std::pair<uint64_t, uint64_t> snapshot() {
    uint64_t Requests = 0, Nodes = 0;
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      Requests += S.Requests;
      Nodes += S.Set.size();
    }
    return {Requests, Nodes};
  }

  static constexpr size_t NumStripes = 64;
  Stripe Stripes[NumStripes];
};

/// One thread's probe and hit counters for one cached operation. Only the
/// owning thread writes them, with plain relaxed stores (no read-modify-
/// write on a shared cache line); stats snapshots read them.
struct TableCounters {
  std::atomic<uint64_t> Probes{0};
  std::atomic<uint64_t> Hits{0};

  static void bump(std::atomic<uint64_t> &C) {
    C.store(C.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }
};

/// Registers \p C, one thread's counters for operation \p Name, with the
/// stats snapshot; detachTable folds them into the operation's totals when
/// the thread exits.
void attachTable(const char *Name, const TableCounters *C);
void detachTable(const char *Name, const TableCounters *C);

/// A computed table (Brace, Rudell and Bryant, DAC 1990): a direct-mapped
/// cache of one pure operation's results, keyed by its canonical operand
/// handles and scalar operands. Nodes are never freed, so a handle is never
/// reused, and a slot hit compares the whole key: a fingerprint collision
/// can only evict a slot, never return a wrong result. A hit builds no
/// payload and takes no arena lock.
///
/// One table serves one thread: declare it `thread_local` inside the
/// function that probes it. Its slots are heap-allocated when the thread
/// first probes it, so threads that never run the operation pay nothing,
/// and freed when the thread exits. Results are canonical nodes whichever
/// thread computes them, so the cache never changes what callers see.
///
/// KeyT needs `==`, and a value-initialized KeyT (an empty slot) must equal
/// no real key: put a node pointer first, which is never null in a real
/// key. With assertions on, every hit is recomputed through the uncached
/// path and must return the same handle.
template <typename KeyT, typename ResultT> class ComputedTable {
  /// A power of two, so the slot index is a mask of the hash.
  static constexpr size_t NumSlots = 1024;

public:
  explicit ComputedTable(const char *Name)
      : Name(Name), Slots(new Slot[NumSlots]()) {
    attachTable(Name, &Counters);
  }
  ~ComputedTable() { detachTable(Name, &Counters); }

  ComputedTable(const ComputedTable &) = delete;
  ComputedTable &operator=(const ComputedTable &) = delete;

  /// Returns Compute()'s result for \p Key, served from slot \p Hash when
  /// that slot holds \p Key. \p Compute may probe this table again (a
  /// recursive operation).
  template <typename ComputeFn>
  ResultT get(const KeyT &Key, uint64_t Hash, ComputeFn &&Compute) {
    TableCounters::bump(Counters.Probes);
    Slot &S = Slots[Hash & (NumSlots - 1)];
    if (S.Key == Key) {
      TableCounters::bump(Counters.Hits);
      ResultT R = S.Result;
#ifndef NDEBUG
      ResultT Recomputed = Compute();
      assert(Recomputed == R && "computed table served a stale result");
#endif
      return R;
    }
    ResultT R = Compute();
    S.Key = Key;
    S.Result = R;
    return R;
  }

private:
  struct Slot {
    KeyT Key;
    ResultT Result;
  };

  const char *Name;
  std::unique_ptr<Slot[]> Slots;
  TableCounters Counters;
};

} // namespace detail
} // namespace fcsl

#endif // FCSL_SUPPORT_INTERN_H
