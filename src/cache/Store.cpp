//===- cache/Store.cpp - Content-addressed obligation verdict store -------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "cache/Store.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace fcsl {
namespace cache {

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

void encode(Encoder &E, const CacheRecord &R) {
  E.u64(R.Key.Content);
  E.u64(R.Key.Flags);
  E.u8(R.Passed ? 1 : 0);
  E.u64(R.Checks);
  E.u64(R.Counters.Configs);
  E.u64(R.Counters.ActionSteps);
  E.u64(R.Counters.EnvSteps);
  E.u64(R.Counters.Terminals);
  E.u64(R.Counters.DedupHits);
  E.u64(R.ElapsedUs);
  E.str(R.Note);
}

CacheRecord decodeCacheRecord(Decoder &D) {
  CacheRecord R;
  R.Key.Content = D.u64();
  R.Key.Flags = D.u64();
  uint8_t Passed = D.u8();
  if (Passed > 1)
    D.fail();
  R.Passed = Passed == 1;
  R.Checks = D.u64();
  R.Counters.Configs = D.u64();
  R.Counters.ActionSteps = D.u64();
  R.Counters.EnvSteps = D.u64();
  R.Counters.Terminals = D.u64();
  R.Counters.DedupHits = D.u64();
  R.ElapsedUs = D.u64();
  R.Note = D.str();
  return R;
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

namespace {

/// Striped per-path append locks: distinct Store objects (daemon sessions,
/// tests) sharing one log file serialize their appends here — the
/// per-object mutex cannot see across objects, and interleaved buffered
/// writes would tear records. Stripes bound the table; a cross-path
/// collision costs only contention, never correctness.
std::mutex &pathStripe(const std::string &Path) {
  static std::mutex Stripes[16];
  return Stripes[std::hash<std::string>{}(Path) % 16];
}

/// One full write(2) of \p Buf, retrying EINTR. With O_APPEND the kernel
/// picks the offset atomically per call, so a complete single write never
/// interleaves with another appender's.
bool writeAll(int Fd, const std::vector<uint8_t> &Buf) {
  size_t Done = 0;
  while (Done != Buf.size()) {
    ssize_t N = ::write(Fd, Buf.data() + Done, Buf.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

Store::~Store() {
  std::lock_guard<std::mutex> Lock(M);
  if (OutFd >= 0) {
    ::close(OutFd);
    OutFd = -1;
  }
}

bool Store::open(const std::string &LogPath, bool Writable) {
  std::lock_guard<std::mutex> Lock(M);
  Path = LogPath;
  Index.clear();
  Contents.clear();
  Pending.clear();
  if (OutFd >= 0) {
    ::close(OutFd);
    OutFd = -1;
  }

  // Load whatever is decodable. A missing file is an empty store (fine
  // when writable — the log is created below); any malformed frame stops
  // the load and the tail is ignored.
  std::vector<uint8_t> Bytes;
  bool Existed = false;
  if (std::FILE *In = std::fopen(LogPath.c_str(), "rb")) {
    Existed = true;
    uint8_t Chunk[1 << 16];
    size_t N;
    while ((N = std::fread(Chunk, 1, sizeof Chunk, In)) > 0)
      Bytes.insert(Bytes.end(), Chunk, Chunk + N);
    std::fclose(In);
  }

  // Clean means every byte of the file decoded: appending more frames
  // after the existing tail keeps the log well-formed. A foreign header,
  // stale version, or torn tail forces a rewrite (below, when writable)
  // so future appends stay readable.
  bool Clean = false;
  if (!Bytes.empty()) {
    Decoder D(Bytes);
    if (decodeHeader(D) && D.u32() == CacheRecordVersion && !D.failed()) {
      Clean = true;
      while (!D.atEnd()) {
        uint32_t Len = D.u32();
        if (D.failed() || Len > D.remaining()) {
          Clean = false; // torn tail: keep what loaded so far.
          break;
        }
        Decoder Frame(Bytes.data() + (Bytes.size() - D.remaining()), Len);
        CacheRecord R = decodeCacheRecord(Frame);
        if (Frame.failed() || !Frame.atEnd()) {
          Clean = false;
          break;
        }
        // Advance past the frame body.
        for (uint32_t I = 0; I != Len; ++I)
          D.u8();
        Index.emplace(R.Key, std::move(R));
      }
    }
  }
  for (const auto &KV : Index)
    Contents.insert(KV.first.Content);

  if (!Writable)
    return Existed;

  // All writes below go through the O_APPEND descriptor: one write(2)
  // per frame, serialized per path (in-process) by the stripe lock and
  // (cross-writer) by the kernel's atomic append offset.
  std::lock_guard<std::mutex> PathLock(pathStripe(LogPath));
  if (!Existed || !Clean) {
    // Fresh, foreign, or torn log: rewrite it with the records that
    // survived (none, for a foreign header) so the file is well-formed.
    OutFd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                   0666);
    if (OutFd < 0)
      return false;
    Encoder E;
    encodeHeader(E);
    E.u32(CacheRecordVersion);
    if (!writeAll(OutFd, E.buffer()))
      return false;
    for (const auto &KV : Index)
      writeRecord(KV.second);
    return true;
  }
  OutFd = ::open(LogPath.c_str(), O_WRONLY | O_APPEND);
  return OutFd >= 0;
}

const CacheRecord *Store::lookup(const ObligationKey &Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  return It == Index.end() ? nullptr : &It->second;
}

bool Store::hasContent(uint64_t Content) const {
  std::lock_guard<std::mutex> Lock(M);
  return Contents.count(Content) != 0;
}

void Store::append(const CacheRecord &R) {
  std::lock_guard<std::mutex> Lock(M);
  appendLocked(R, /*TrackPending=*/true);
}

size_t Store::merge(const std::vector<CacheRecord> &Records) {
  std::lock_guard<std::mutex> Lock(M);
  size_t Fresh = 0;
  for (const CacheRecord &R : Records) {
    if (Index.count(R.Key))
      continue;
    appendLocked(R, /*TrackPending=*/true);
    ++Fresh;
  }
  return Fresh;
}

std::vector<CacheRecord> Store::drainPending() {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<CacheRecord> Out;
  Out.swap(Pending);
  return Out;
}

size_t Store::records() const {
  std::lock_guard<std::mutex> Lock(M);
  return Index.size();
}

uint64_t Store::fileBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  if (Path.empty())
    return 0;
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

void Store::appendLocked(const CacheRecord &R, bool TrackPending) {
  auto Ins = Index.emplace(R.Key, R);
  if (!Ins.second)
    return; // first verdict wins.
  Contents.insert(R.Key.Content);
  if (TrackPending)
    Pending.push_back(R);
  if (OutFd >= 0) {
    std::lock_guard<std::mutex> PathLock(pathStripe(Path));
    writeRecord(R);
  }
}

void Store::writeRecord(const CacheRecord &R) {
  // The complete frame — length prefix AND body — in one buffer, shipped
  // as one write(2): concurrent appenders on the same O_APPEND log can
  // interleave whole records but never tear one.
  Encoder Body;
  encode(Body, R);
  Encoder Frame;
  Frame.u32(static_cast<uint32_t>(Body.buffer().size()));
  Frame.raw(Body.buffer());
  writeAll(OutFd, Frame.buffer());
}

//===----------------------------------------------------------------------===//
// Process defaults and the active store
//===----------------------------------------------------------------------===//

namespace {

std::mutex GlobalMutex;
CacheMode DefaultMode = CacheMode::Default; // Default = "not set yet".
std::string DirOverride;
std::unique_ptr<Store> Active;
bool ActiveResolved = false;
CacheStats GlobalStats;

} // namespace

void setDefaultCacheMode(CacheMode Mode) {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  DefaultMode = Mode;
}

CacheMode defaultCacheMode() {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  if (DefaultMode != CacheMode::Default)
    return DefaultMode;
  if (const char *Env = std::getenv("FCSL_CACHE")) {
    CacheMode M;
    if (parseCacheMode(Env, M) && M != CacheMode::Default)
      return M;
  }
  return CacheMode::Off;
}

bool parseCacheMode(const char *Text, CacheMode &OutMode) {
  if (!Text)
    return false;
  if (std::strcmp(Text, "off") == 0)
    OutMode = CacheMode::Off;
  else if (std::strcmp(Text, "rw") == 0)
    OutMode = CacheMode::Rw;
  else if (std::strcmp(Text, "ro") == 0)
    OutMode = CacheMode::Ro;
  else if (std::strcmp(Text, "check") == 0)
    OutMode = CacheMode::Check;
  else
    return false;
  return true;
}

const char *cacheModeName(CacheMode M) {
  switch (M) {
  case CacheMode::Default:
    return "default";
  case CacheMode::Off:
    return "off";
  case CacheMode::Rw:
    return "rw";
  case CacheMode::Ro:
    return "ro";
  case CacheMode::Check:
    return "check";
  }
  return "?";
}

void setCacheDir(std::string Dir) {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  DirOverride = std::move(Dir);
}

std::string cacheDir() {
  {
    std::lock_guard<std::mutex> Lock(GlobalMutex);
    if (!DirOverride.empty())
      return DirOverride;
  }
  if (const char *Env = std::getenv("FCSL_CACHE_DIR"))
    if (*Env)
      return Env;
  return ".fcsl-cache";
}

Store *activeStore(CacheMode Mode) {
  if (Mode == CacheMode::Off || Mode == CacheMode::Default)
    return nullptr;
  std::string Dir = cacheDir();
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  if (ActiveResolved)
    return Active.get();
  ActiveResolved = true;
  bool Writable = Mode != CacheMode::Ro;
  if (Writable)
    ::mkdir(Dir.c_str(), 0777); // best-effort; open() reports failure.
  auto S = std::make_unique<Store>();
  if (!S->open(Dir + "/obligations.fcslcache", Writable))
    return nullptr; // fail-soft: session discharges everything.
  Active = std::move(S);
  return Active.get();
}

Store *resolvedStore() {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  return ActiveResolved ? Active.get() : nullptr;
}

void resetActiveStore() {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  Active.reset();
  ActiveResolved = false;
}

CacheStats cacheStats() {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  return GlobalStats;
}

void accumulateCacheStats(const CacheStats &Delta) {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  GlobalStats.Hits += Delta.Hits;
  GlobalStats.Misses += Delta.Misses;
  GlobalStats.StaleFlags += Delta.StaleFlags;
  GlobalStats.Stores += Delta.Stores;
  GlobalStats.CheckRuns += Delta.CheckRuns;
  GlobalStats.Divergences += Delta.Divergences;
  GlobalStats.Unkeyed += Delta.Unkeyed;
  GlobalStats.ReplayedChecks += Delta.ReplayedChecks;
  GlobalStats.ReplayedConfigs += Delta.ReplayedConfigs;
  GlobalStats.ReplayedUs += Delta.ReplayedUs;
}

} // namespace cache
} // namespace fcsl
