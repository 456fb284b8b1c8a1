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
//===----------------------------------------------------------------------===//

#ifndef FCSL_SUPPORT_INTERN_H
#define FCSL_SUPPORT_INTERN_H

#include <cstddef>
#include <cstdint>
#include <functional>
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

} // namespace detail
} // namespace fcsl

#endif // FCSL_SUPPORT_INTERN_H
