//===- support/Codec.h - Deterministic binary state codec -------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic binary encoding for the model checker's state types:
/// Val, Heap, History, PCMType, PCMVal, View and GlobalState, plus the
/// SessionReport the service ships (spec/Session.h). The format is
/// versioned (magic "FCSL" + a u32 version), little-endian and
/// fixed-width, so encoding the same value always yields the same bytes —
/// on any platform — and decode(encode(x)) == x for every state type (the
/// round-trip guarantee codec_test.cpp pins down). The obligation cache's
/// records (cache/Store.h) and the service's frames (dist/Wire.h) are
/// built on it.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SUPPORT_CODEC_H
#define FCSL_SUPPORT_CODEC_H

#include "state/GlobalState.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fcsl {

/// Format version; bump when an encoding changes. Versions 2 to 6 changed
/// only the frontier configs of the retired sharded exploration (DESIGN.md
/// §10). The encodings left here did not change with them, so the version
/// stays at 6 and stores written by earlier builds keep reading.
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
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  /// Appends another encoder's buffer verbatim (a length-prefixed record
  /// body is built in a scratch encoder, then spliced in).
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

} // namespace fcsl

#endif // FCSL_SUPPORT_CODEC_H
