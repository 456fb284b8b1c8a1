//===- support/Codec.h - Deterministic binary state codec -------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic binary encoding for the model checker's state types:
/// Val, Heap, History, PCMType, PCMVal, View, GlobalState, and frontier
/// configurations. The format is versioned (magic "FCSL" + a u32 version),
/// little-endian and fixed-width, so encoding the same value always yields
/// the same bytes — on any platform — and decode(encode(x)) == x for every
/// state type (the round-trip guarantee codec_test.cpp pins down).
///
/// This is the serialization layer the distributed/sharded exploration
/// follow-on needs (see ROADMAP.md): a frontier configuration references
/// program AST nodes, which are encoded as indices into a ProgTable — a
/// deterministic pre-order enumeration of every Prog node reachable from a
/// root program and a definition table, identical in every process that
/// builds the same program.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SUPPORT_CODEC_H
#define FCSL_SUPPORT_CODEC_H

#include "concurroid/Footprint.h"
#include "prog/Prog.h"
#include "state/GlobalState.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace fcsl {

/// Format version; bump when the wire layout changes.
/// v2: frontier configs carry sleep sets, EnvCloseMask, and footprints.
/// v3: frontier threads carry the symmetry flag (SymChildren).
/// v4: sleep sets and EnvCloseMask left the identity prefix (they are
///     merged wake state, not identity — DESIGN.md §12) and configs carry
///     the dedup-accounting flag (FrontierConfig::Counts).
/// v5: dictionary-streamed frontier frames (DESIGN.md §14): batch frames
///     carry the source shard and per-config ownership fingerprints, and
///     a FrontierBatchDict frame ships each interned node once per
///     connection as a NodeDef, then as a varint dictionary reference.
/// v6: the binary symmetry flag became a k-ary orbit group id
///     (FrontierThread::SymGroup, DESIGN.md §11): threads in a flattened
///     `par` spine of interchangeable siblings carry the id of the group's
///     root thread, so shards agree on orbit representatives.
constexpr uint32_t CodecVersion = 6;

/// Appends fixed-width little-endian primitives to a byte buffer.
class Encoder {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// LEB128 varint: small values (dictionary references, counts) cost one
  /// byte instead of four or eight.
  void vu(uint64_t V) {
    while (V >= 0x80) {
      Buf.push_back(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    Buf.push_back(static_cast<uint8_t>(V));
  }
  /// Zigzag-mapped signed varint.
  void vi(int64_t V) {
    vu((static_cast<uint64_t>(V) << 1) ^
       static_cast<uint64_t>(V >> 63));
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  /// Appends another encoder's buffer verbatim (composite dictionary
  /// definitions are built in a scratch encoder, then spliced in).
  void raw(const std::vector<uint8_t> &Bytes) {
    Buf.insert(Buf.end(), Bytes.begin(), Bytes.end());
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Reads primitives back, fail-soft: the first out-of-bounds or malformed
/// read latches the error flag and every subsequent read returns a default.
/// Callers check failed() once at the end instead of after every field.
class Decoder {
public:
  explicit Decoder(const std::vector<uint8_t> &Buf)
      : Data(Buf.data()), Size(Buf.size()) {}
  Decoder(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() {
    if (!take(1))
      return 0;
    return Data[Pos - 1];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos - 4 + I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos - 8 + I]) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  /// LEB128 varint; more than ten bytes (or a truncated stream) is
  /// malformed and latches the error flag.
  uint64_t vu() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 70; Shift += 7) {
      uint8_t B = u8();
      if (Failed)
        return 0;
      if (Shift == 63 && (B & 0xFE)) {
        Failed = true;
        return 0;
      }
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
    }
    Failed = true;
    return 0;
  }
  int64_t vi() {
    uint64_t V = vu();
    return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
  }
  std::string str() {
    uint32_t Len = u32();
    if (!take(Len))
      return std::string();
    return std::string(reinterpret_cast<const char *>(Data) + Pos - Len, Len);
  }

  /// Marks the stream malformed (used by decoders on bad tags).
  void fail() { Failed = true; }

  bool failed() const { return Failed; }
  bool atEnd() const { return Failed || Pos == Size; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }

private:
  bool take(size_t N) {
    if (Failed || Size - Pos < N) {
      Failed = true;
      return false;
    }
    Pos += N;
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Writes the versioned header (magic "FCSL" + CodecVersion).
void encodeHeader(Encoder &E);

/// Consumes and validates the header; on mismatch latches the decoder's
/// error flag and returns false.
bool decodeHeader(Decoder &D);

// Scalar state types. Decoders return defaults once the stream is failed.
void encode(Encoder &E, Ptr P);
Ptr decodePtr(Decoder &D);

void encode(Encoder &E, const Val &V);
Val decodeVal(Decoder &D);

void encode(Encoder &E, const Heap &H);
Heap decodeHeap(Decoder &D);

void encode(Encoder &E, const History &H);
History decodeHistory(Decoder &D);

/// Nullable: liftUndef carriers may be absent.
void encode(Encoder &E, const PCMTypeRef &T);
PCMTypeRef decodePCMType(Decoder &D);

void encode(Encoder &E, const PCMVal &V);
PCMVal decodePCMVal(Decoder &D);

void encode(Encoder &E, const View &V);
View decodeView(Decoder &D);

void encode(Encoder &E, const GlobalState &S);
GlobalState decodeGlobalState(Decoder &D);

void encode(Encoder &E, const FpAtom &A);
FpAtom decodeFpAtom(Decoder &D);

void encode(Encoder &E, const Footprint &F);
Footprint decodeFootprint(Decoder &D);

/// A deterministic enumeration of every Prog node reachable from \p Root
/// and the bodies of \p Defs (pre-order; definition bodies in sorted name
/// order). Two processes that build the same program structurally build
/// the same table, so u32 indices are a portable representation of AST
/// node references.
class ProgTable {
public:
  static constexpr uint32_t NoProg = ~0u;

  explicit ProgTable(const Prog *Root, const DefTable *Defs = nullptr);

  uint32_t indexOf(const Prog *P) const; ///< asserts P was enumerated.
  const Prog *progAt(uint32_t I) const;  ///< asserts I < size().
  size_t size() const { return Nodes.size(); }

private:
  void visit(const Prog *P);

  std::vector<const Prog *> Nodes;
  std::map<const Prog *, uint32_t> Index;
};

/// One suspended continuation frame of a frontier thread, with program
/// references lowered to ProgTable indices (NoProg encodes "none").
struct FrontierFrame {
  uint8_t Kind = 0; ///< mirrors the engine's Frame::Kind tags.
  uint32_t Node = ProgTable::NoProg;
  uint32_t Rest = ProgTable::NoProg;
  std::string Var;
  VarEnv Env;

  friend bool operator==(const FrontierFrame &A, const FrontierFrame &B) {
    return A.Kind == B.Kind && A.Node == B.Node && A.Rest == B.Rest &&
           A.Var == B.Var && A.Env == B.Env;
  }
};

/// One thread of a frontier configuration.
struct FrontierThread {
  ThreadId Id = 0;
  bool Waiting = false;
  /// The k-ary orbit group this thread belongs to (DESIGN.md §11): the id
  /// of the group's root thread, or 0 when the thread is in no group. Part
  /// of config identity, so it must survive the wire or shards would merge
  /// symmetric and asymmetric parents.
  uint64_t SymGroup = 0;
  std::optional<Val> Done;
  std::vector<FrontierFrame> Frames;

  friend bool operator==(const FrontierThread &A, const FrontierThread &B) {
    return A.Id == B.Id && A.Waiting == B.Waiting &&
           A.SymGroup == B.SymGroup && A.Done == B.Done &&
           A.Frames == B.Frames;
  }
};

/// One sleep-set entry of a frontier configuration (DESIGN.md §9): a step
/// already explored along a sibling branch, suppressed until a dependent
/// step wakes it. Sleep entries are *wake payload*, not config identity
/// (v4): the receiving shard intersects them into its visited node, so
/// backtracking state travels with the owning config across processes.
struct FrontierSleep {
  bool IsEnv = false;
  ThreadId T = 0;
  uint32_t ActNode = ProgTable::NoProg;
  uint64_t EnvIdx = 0;
  Footprint Fp;

  friend bool operator==(const FrontierSleep &A, const FrontierSleep &B) {
    return A.IsEnv == B.IsEnv && A.T == B.T && A.ActNode == B.ActNode &&
           A.EnvIdx == B.EnvIdx && A.Fp == B.Fp;
  }
};

/// A portable frontier configuration: the instrumented global state plus
/// every thread's control stack, the POR wake payload (sleep set and
/// terminal env-closure mask), and the dedup-accounting flag. This is the
/// unit of work sharded exploration ships between processes (src/dist/,
/// DESIGN.md §10), always through the dictionary contexts below.
struct FrontierConfig {
  GlobalState GS;
  std::vector<FrontierThread> Threads;
  std::vector<FrontierSleep> Sleep;
  uint32_t EnvCloseMask = 0;
  /// False when the generating step was a wakeup re-execution: the edge
  /// was produced (and accounted) once before, so the receiving shard
  /// merges the wake payload without counting another dedup hit. Keeps
  /// sharded counters bit-identical to the in-process engine.
  bool Counts = true;

  friend bool operator==(const FrontierConfig &A, const FrontierConfig &B) {
    return A.GS == B.GS && A.Threads == B.Threads && A.Sleep == B.Sleep &&
           A.EnvCloseMask == B.EnvCloseMask && A.Counts == B.Counts;
  }
};

//===----------------------------------------------------------------------===//
// Dictionary-scoped encode/decode contexts (DESIGN.md §14)
//===----------------------------------------------------------------------===//
//
// FCSL states are hash-consed: two configs that share a heap, history, or
// auxiliary subtree share the interned node, and the node's handle is a
// process-stable fingerprint. The value codec above serializes every
// shared subtree in full; the dictionary contexts below serialize each
// node once per logical connection. An encoder context assigns every
// distinct node a dense index the first time it appears, appends its
// definition (children as references to lower indices) to a NodeDef
// stream, and thereafter encodes the node as a varint reference. The
// matching decoder context replays the definition stream into a table and
// resolves references against it — an out-of-range or kind-mismatched
// reference is malformed, never a crash.

/// The definition tags of the NodeDef stream. One shared index space: the
/// Nth definition in the stream — of any kind — gets index N. Thread and
/// LabelState are *composite* definitions: a whole thread stack or one
/// label's global-state slice, interned by its encoded body. Successive
/// configs mostly differ in one thread and one label slice, so the others
/// collapse to single varint references.
enum class DictDef : uint8_t {
  Val = 1,
  Heap = 2,
  Hist = 3,
  Pcm = 4,
  PcmType = 5,
  Str = 6,
  Thread = 7,
  LabelState = 8,
};

/// The sender side of one connection's dictionary. Feed every config of
/// the connection through the same context, in send order; ship each
/// call's definition bytes before (or with) its reference bytes.
class NodeDictEncoder {
public:
  /// Encodes \p C as dictionary references into \p Refs, appending any
  /// definitions this config introduces to \p Defs.
  void encodeConfig(Encoder &Defs, Encoder &Refs, const FrontierConfig &C);

  /// Distinct nodes interned so far (== next index to assign).
  size_t size() const { return Count; }

private:
  uint32_t internVal(Encoder &Defs, const Val &V);
  uint32_t internHeap(Encoder &Defs, const Heap &H);
  uint32_t internHist(Encoder &Defs, const History &H);
  uint32_t internPcm(Encoder &Defs, const PCMVal &V);
  uint32_t internPcmType(Encoder &Defs, const PCMTypeRef &T);
  uint32_t internStr(Encoder &Defs, const std::string &S);
  uint32_t internThread(Encoder &Defs, const FrontierThread &T);
  uint32_t internLabelState(Encoder &Defs, const GlobalState &GS, Label L);

  struct HistHash {
    size_t operator()(const History &H) const {
      return static_cast<size_t>(H.fingerprint());
    }
  };

  std::unordered_map<Val, uint32_t> ValIdx;
  std::unordered_map<Heap, uint32_t> HeapIdx;
  std::unordered_map<History, uint32_t, HistHash> HistIdx;
  std::unordered_map<PCMVal, uint32_t> PcmIdx;
  /// PCMTypes are not interned (deep equality); key by encoded bytes.
  std::map<std::vector<uint8_t>, uint32_t> TypeIdx;
  std::unordered_map<std::string, uint32_t> StrIdx;
  /// Composite definitions are keyed by their encoded bodies: child
  /// references are deterministic per dictionary, so byte equality is
  /// structural equality.
  std::map<std::vector<uint8_t>, uint32_t> ThreadIdx;
  std::map<std::vector<uint8_t>, uint32_t> LabelIdx;
  uint32_t Count = 0;
};

/// The receiver side: one per peer connection. feedDefs() must see the
/// definition streams in send order; decodeConfig() then resolves
/// references. Corruption latches — after a malformed definition stream
/// the table is unusable and every later decode fails.
class NodeDictDecoder {
public:
  /// Replays one frame's definition stream into the table. Returns false
  /// (and latches corrupt()) on any malformed definition.
  bool feedDefs(const uint8_t *Data, size_t N);

  /// Decodes one dictionary-encoded config. Malformed references latch
  /// \p D's error flag; callers check D.failed() as with the plain codec.
  FrontierConfig decodeConfig(Decoder &D);

  bool corrupt() const { return Corrupt; }
  size_t size() const { return Entries.size(); }

private:
  const Val *valAt(Decoder &D);
  const Heap *heapAt(Decoder &D);
  const History *histAt(Decoder &D);
  const PCMVal *pcmAt(Decoder &D);
  const PCMTypeRef *typeAt(Decoder &D);
  const std::string *strAt(Decoder &D);

  struct Entry {
    DictDef Kind = DictDef::Val;
    Val V;
    Heap H;
    History Hist;
    PCMVal P;
    PCMTypeRef T;
    std::string S;
    FrontierThread FT;
    /// One label's global-state slice (DictDef::LabelState).
    Label LsLabel = 0;
    PCMTypeRef LsType;
    Heap LsJoint;
    PCMVal LsEnv;
    bool LsClosed = false;
    std::vector<std::pair<ThreadId, PCMVal>> LsSelves;
  };
  const Entry *entryAt(Decoder &D, DictDef Kind);

  std::vector<Entry> Entries;
  bool Corrupt = false;
};

} // namespace fcsl

#endif // FCSL_SUPPORT_CODEC_H
