//===- perfbench/src/harness.cpp - Shared benchmark plumbing --------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sys/resource.h>
#include <unordered_set>

using namespace pb;

namespace {

std::string vformat(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out(N > 0 ? size_t(N) : 0, '\0');
  if (N > 0)
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

} // namespace

void Result::op(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailureNotes.size() < 20)
    FailureNotes.push_back(Why);
}

void Result::setLayer(const std::string &Name, double Value) {
  for (const LayerMetricSpec &S : layerMetricTable())
    if (S.Name == Name) {
      Layers[Name] = Metric{Value, S.Unit};
      return;
    }
  std::fprintf(stderr, "perfbench: unknown layer metric '%s'\n", Name.c_str());
  std::abort();
}

void Result::line(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  Lines.push_back(vformat(Fmt, Args));
  va_end(Args);
}

void Result::setupDone(Clock::time_point Start) {
  Setup.push_back(Timed{msSince(Start), Clock::now()});
  Host.sample();
}

double Result::latency(const std::string &Name, const std::vector<Timed> &Ops,
                       double Mult, const char *Unit, bool SetsEndToEnd) {
  std::vector<double> Raw, Scaled;
  for (const Timed &T : Ops) {
    Raw.push_back(T.Ms);
    Scaled.push_back(Host.scaled(T.Ms, T.End));
  }
  Tail ScaledTail = tailOf(Scaled), RawTail = tailOf(Raw);
  double P50 = median(Scaled);
  line("%s_p50 = %.3f %s (raw %.3f %s, n=%zu)", Name.c_str(), P50 * Mult,
       Unit, median(Raw) * Mult, Unit, Raw.size());
  line("%s_p%.1f = %.3f %s (raw %.3f %s, n=%zu, %zu beyond%s)", Name.c_str(),
       ScaledTail.Percentile, ScaledTail.Value * Mult, Unit,
       RawTail.Value * Mult, Unit, ScaledTail.N, ScaledTail.Beyond,
       ScaledTail.Qualified ? "" : "; fewer than 20 samples, max reported");
  if (SetsEndToEnd) {
    EndToEnd["op_ms_p50"] = {P50, "ms"};
    EndToEnd["op_ms_tail"] = {ScaledTail.Value, "ms"};
  }
  return P50;
}

std::string pb::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string S = vformat(Fmt, Args);
  va_end(Args);
  return S;
}

const std::vector<std::string> &pb::sessionSlugs() {
  static const std::vector<std::string> Slugs = {
      "cas_lock",      "ticketed_lock", "cg_increment", "cg_allocator",
      "pair_snapshot", "treiber_stack", "spanning_tree", "flat_combiner",
      "seq_stack",     "fc_stack",      "prod_cons"};
  return Slugs;
}

const std::vector<LayerMetricSpec> &pb::layerMetricTable() {
  static const std::vector<LayerMetricSpec> Table = [] {
    std::vector<LayerMetricSpec> T = {
        {"spec.libs_ms", "ms", "lower"},
        {"spec.conc_ms", "ms", "lower"},
        {"spec.acts_ms", "ms", "lower"},
        {"spec.stab_ms", "ms", "lower"},
        {"spec.main_ms", "ms", "lower"},
        {"spec.obligations", "count", "lower"},
        {"spec.checks", "count", "lower"},
    };
    for (const std::string &Slug : sessionSlugs())
      T.push_back({"spec.session_ms." + Slug, "ms", "lower"});
    std::vector<LayerMetricSpec> Rest = {
        {"prog.configs", "count", "lower"},
        {"prog.action_steps", "count", "lower"},
        {"prog.env_steps", "count", "lower"},
        {"prog.dedup_hits", "count", "lower"},
        {"prog.dedup_ratio", "ratio", "lower"},
        {"prog.explore_ms.j1", "ms", "lower"},
        {"prog.explore_ms.j2", "ms", "lower"},
        {"prog.visited_bytes_per_config", "B", "lower"},
        {"prog.peak_visited_bytes", "B", "lower"},
        {"por.configs_ratio", "ratio", "lower"},
        {"por.races", "count", "lower"},
        {"por.backtracks", "count", "lower"},
        {"por.wakeup_replays", "count", "lower"},
        {"por.sleep_hits", "count", "higher"},
        {"por.full_expansions", "count", "lower"},
        {"sym.orbit_lookups", "count", "lower"},
        {"sym.orbit_hits", "count", "higher"},
        {"sym.canonicalized", "count", "higher"},
        {"sym.renames", "count", "lower"},
        {"sym.canonicalized_ratio", "ratio", "higher"},
        {"intern.requests", "count", "lower"},
        {"intern.new_nodes", "count", "lower"},
        {"intern.dedup_ratio", "ratio", "higher"},
        {"dist.explore_ms", "ms", "lower"},
        {"dist.exchanged_configs", "count", "lower"},
        {"dist.batches", "count", "lower"},
        {"dist.bytes", "B", "lower"},
        {"dist.suppressed_sends", "count", "higher"},
        {"dist.child_rss_mb", "MB", "lower"},
        {"cache.hits", "count", "higher"},
        {"cache.misses", "count", "lower"},
        {"cache.store_records", "count", "lower"},
        {"cache.store_bytes", "B", "lower"},
        {"cache.serve_us", "us", "lower"},
        {"service.warm_serves", "count", "higher"},
        {"service.sessions_run", "count", "lower"},
        {"service.rejected", "count", "lower"},
        {"service.overhead_us_p50", "us", "lower"},
        {"service.engine_rtt_ms_p50", "ms", "lower"},
        {"service.engine_rtt_ms_tail", "ms", "lower"},
        {"codec.report_roundtrip_us", "us", "lower"},
        {"trace.overhead_ratio", "ratio", "lower"},
        {"host.reference_ms", "ms", "lower"},
    };
    T.insert(T.end(), Rest.begin(), Rest.end());
    for (const char *Layer : {"pass", "session", "sample", "explore",
                              "dist_explore", "submit", "serve", "codec"})
      T.push_back({std::string("trace.self_ms.") + Layer, "ms", "lower"});
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double pb::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

Tail pb::tailOf(std::vector<double> Xs) {
  Tail T;
  T.N = Xs.size();
  if (Xs.empty())
    return T;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  // Nearest ranks (0-based) of p50 and p95; back off from p95 until ten
  // samples lie strictly beyond the rank. Below the median it is no tail;
  // above p95 the daemon's warm round trip doubled on a busy host.
  size_t P50 = static_cast<size_t>(std::ceil(0.5 * double(N))) - 1;
  size_t P95 = static_cast<size_t>(std::ceil(0.95 * double(N))) - 1;
  if (N < 11 || N - 11 < P50) {
    T.Value = Xs.back();
    return T;
  }
  size_t Idx = std::min(P95, N - 11);
  T.Value = Xs[Idx];
  T.Percentile = 100.0 * double(Idx + 1) / double(N);
  T.Beyond = N - 1 - Idx;
  T.Qualified = true;
  return T;
}

double OverheadProbe::ratio() const {
  double Off0 = median(Off);
  return Off0 > 0 && !On.empty() ? median(On) / Off0 : 1.0;
}

double pb::peakRssMb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KB on Linux.
}

//===----------------------------------------------------------------------===//
// Host-speed scaling
//===----------------------------------------------------------------------===//

namespace {

/// The reference kernel: the kind of work the engine does (small
/// allocations, string building, hashing, hash-set inserts, random reads)
/// over a working set of about 2 MB, which tracked the corpus workloads'
/// drift best among the sizes tried. Fixed forever: changing it rescales
/// every end-to-end timing.
uint64_t referenceKernel() {
  struct Node {
    std::vector<uint64_t> Kids;
    std::string Name;
  };
  std::vector<Node> Nodes;
  std::unordered_set<uint64_t> Seen;
  uint64_t X = 88172645463325252ULL, Acc = 0;
  for (int I = 0; I != 30000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Node N;
    N.Name = std::to_string(X % 100000);
    for (int K = 0; K != 4; ++K)
      N.Kids.push_back(X >> (K * 8));
    uint64_t H = 1469598103934665603ULL;
    for (char C : N.Name)
      H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
    for (uint64_t V : N.Kids)
      H = (H ^ V) * 1099511628211ULL;
    if (!Seen.insert(H % 50000).second)
      Acc += H;
    Nodes.push_back(std::move(N));
    Acc += Nodes[X % Nodes.size()].Kids[0];
  }
  return Acc;
}

} // namespace

double HostSpeed::sample() {
  std::vector<double> Runs;
  for (int I = 0; I != 3; ++I) {
    Clock::time_point T0 = Clock::now();
    volatile uint64_t Sink = referenceKernel();
    (void)Sink;
    Runs.push_back(msSince(T0));
  }
  double Ms = median(Runs);
  Samples.emplace_back(Clock::now(), Ms);
  return Ms;
}

void HostSpeed::sampleEvery(double Seconds) {
  if (Samples.empty() || msSince(Samples.back().first) >= Seconds * 1000)
    sample();
}

double HostSpeed::scaleAt(Clock::time_point T) const {
  if (Samples.empty())
    return 1.0;
  auto After = std::lower_bound(
      Samples.begin(), Samples.end(), T,
      [](const auto &S, Clock::time_point At) { return S.first < At; });
  double Ref;
  if (After == Samples.begin())
    Ref = After->second;
  else if (After == Samples.end())
    Ref = Samples.back().second;
  else {
    auto Before = std::prev(After);
    double Span = std::chrono::duration<double>(After->first - Before->first)
                      .count();
    double W =
        Span > 0
            ? std::chrono::duration<double>(T - Before->first).count() / Span
            : 0.0;
    Ref = Before->second + W * (After->second - Before->second);
  }
  return NominalMs / Ref;
}

double HostSpeed::scaled(double Ms, Clock::time_point End) const {
  Clock::time_point Mid =
      End - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(Ms / 2));
  return Ms * scaleAt(Mid);
}

double HostSpeed::medianMs() const {
  std::vector<double> Ms;
  for (const auto &S : Samples)
    Ms.push_back(S.second);
  return median(Ms);
}

//===----------------------------------------------------------------------===//
// Seeded generation
//===----------------------------------------------------------------------===//

Rng::Rng(uint64_t Seed, uint64_t Stream)
    : State(Seed * 0x9e3779b97f4a7c15ULL ^ (Stream + 1) * 0xbf58476d1ce4e5b9ULL) {
  next();
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

int64_t pb::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::begin() {
  std::lock_guard<std::mutex> Lock(M);
  return NextId++;
}

void Tracer::end(uint64_t Id, uint64_t Parent, std::string Name,
                 std::string Label, int64_t StartNs) {
  int64_t EndNs = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Records.push_back(SpanRecord{Id, Parent, std::move(Name), std::move(Label),
                               StartNs, EndNs});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Records;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::vector<SpanRecord> All = spans();
  std::map<uint64_t, std::vector<const SpanRecord *>> Children;
  for (const SpanRecord &S : All)
    if (S.Parent)
      Children[S.Parent].push_back(&S);
  std::map<std::string, double> Self;
  for (const SpanRecord &S : All) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (const SpanRecord *C : Children[S.Id])
      Iv.emplace_back(std::max(C->StartNs, S.StartNs),
                      std::min(C->EndNs, S.EndNs));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [B, E] : Iv) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    Self[S.Name] += double(S.EndNs - S.StartNs - Covered) / 1e6;
  }
  return Self;
}

bool Tracer::writeJson(const std::string &Path,
                       const std::string &Provenance) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<SpanRecord> All = spans();
  int64_t T0 = All.empty() ? 0 : All.front().StartNs;
  for (const SpanRecord &S : All)
    T0 = std::min(T0, S.StartNs);
  std::fprintf(F, "{\"provenance\": %s,\n \"spans\": [\n", Provenance.c_str());
  for (size_t I = 0; I != All.size(); ++I) {
    const SpanRecord &S = All[I];
    std::fprintf(F,
                 "  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"label\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 jsonEscape(S.Name).c_str(), jsonEscape(S.Label).c_str(),
                 double(S.StartNs - T0) / 1e3,
                 double(S.EndNs - S.StartNs) / 1e3,
                 I + 1 == All.size() ? "" : ",");
  }
  std::fprintf(F, " ]}\n");
  return std::fclose(F) == 0;
}

Span::Span(Tracer &T, bool On, const char *Name, uint64_t Parent,
           std::string Label)
    : T(T), Name(Name), Parent(Parent), Label(std::move(Label)) {
  if (!On)
    return;
  Id = T.begin();
  StartNs = nowNs();
}

Span::~Span() {
  if (Id)
    T.end(Id, Parent, Name, std::move(Label), StartNs);
}

std::string pb::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}
