//===- pcm/PCMType.h - PCM type descriptors ---------------------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime descriptors of PCM carriers. The paper treats self/other thread
/// contributions uniformly as elements of user-chosen partial commutative
/// monoids; the case studies of Section 6 use: naturals under addition,
/// mutual exclusion, disjoint pointer sets, heaps, time-stamped histories,
/// lifted PCMs and finite products. A PCMType names one such carrier so that
/// the model checker can manufacture units and validate joins generically.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_PCM_PCMTYPE_H
#define FCSL_PCM_PCMTYPE_H

#include <memory>
#include <string>

namespace fcsl {

class PCMVal;
class PCMType;
using PCMTypeRef = std::shared_ptr<const PCMType>;

/// The kinds of PCM carriers supported by the dynamic framework.
enum class PCMKind : uint8_t {
  Nat,    ///< Natural numbers under addition; unit 0 (CG increment).
  Mutex,  ///< {NotOwn, Own}; Own * Own undefined (locks, flat combiner).
  PtrSet, ///< Finite pointer sets under disjoint union (spanning tree).
  HeapPCM,///< Heaps under disjoint union (thread-local state).
  Hist,   ///< Time-stamped histories (snapshot, Treiber stack).
  Pair,   ///< Binary product of two PCMs (lock protecting a client PCM).
  Lift    ///< U + explicit undefined element, making join total.
};

/// An immutable PCM carrier descriptor (a small tree for Pair/Lift).
class PCMType : public std::enable_shared_from_this<PCMType> {
public:
  static PCMTypeRef nat();
  static PCMTypeRef mutex();
  static PCMTypeRef ptrSet();
  static PCMTypeRef heap();
  static PCMTypeRef hist();
  static PCMTypeRef pairOf(PCMTypeRef First, PCMTypeRef Second);
  static PCMTypeRef lifted(PCMTypeRef Inner);

  PCMKind kind() const { return K; }

  /// Component accessors; assert on kind mismatch.
  const PCMTypeRef &first() const;
  const PCMTypeRef &second() const;
  const PCMTypeRef &inner() const;

  /// The unit element of this carrier, built once with the type (types
  /// are immutable, so the unit never changes).
  const PCMVal &unit() const;

  /// Returns true if \p V is an element of this carrier (kind-shape check).
  bool admits(const PCMVal &V) const;

  /// Human-readable carrier name, e.g. "nat", "mutex x heap".
  std::string name() const;

  friend bool operator==(const PCMType &A, const PCMType &B);

  ~PCMType();

private:
  explicit PCMType(PCMKind K) : K(K) {}
  /// Completes a new descriptor: builds its unit from the components'.
  static PCMTypeRef finish(PCMType *T);

  PCMKind K;
  PCMTypeRef First; // Pair
  PCMTypeRef Second; // Pair
  PCMTypeRef Inner; // Lift
  std::unique_ptr<const PCMVal> Unit;
};

/// Structural equality of carrier descriptors.
bool operator==(const PCMType &A, const PCMType &B);

} // namespace fcsl

#endif // FCSL_PCM_PCMTYPE_H
