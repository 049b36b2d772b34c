// The benchmark program's shared pieces: run options, the result a workload
// returns, the span recorder of the traced run, and the two workloads.
//
// Each workload runs in two modes. The untraced run drives the program's
// own entry points (GroupSession::Join, KeyServer) and times each call;
// every end-to-end number comes from it. The traced run rebuilds the same
// entry points from their layers' public functions, called in the same
// order with the same seeds, and records a span around each call, so it
// reports where the time went. Both runs hash their outputs (IDs, rekey
// messages, delivery records) into a digest; the self-test checks that the
// two digests agree.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// When the process started (first static initializer of the binary).
Clock::time_point ProcessStart();

// The process's peak resident set so far, and its current one, in MiB.
double PeakRssMib();
double CurrentRssMib();

// A fixed reference computation of the benchmark's own, run in short chunks
// between the measured operations of an untraced run. On a shared host the
// machine's speed drifts by a fifth or more over seconds to minutes as
// other tenants load the shared cache and memory, and a run's own median
// cannot average that away. The reference (lookups in a 128k-node std::map
// and an 8 MiB pointer chase) is memory-bound like the program, so it slows
// when the program does; the measured phase's timings are reported scaled
// by how much slower the reference ran than kNominalChunkS. It calls no
// code of the program, so a change to the program moves the scaled
// timings in full.
class Calibrator {
 public:
  Calibrator();
  // Runs one chunk if at least kEveryS has passed since the last chunk
  // ended. Call it only outside timed operations.
  void MaybeRun();
  // Seconds spent in chunks so far.
  double spent_s() const { return spent_s_; }
  int chunks() const { return static_cast<int>(chunk_s_.size()); }
  // Median chunk time, in seconds (0 with no chunks).
  double median_chunk_s() const;
  // kNominalChunkS over the median chunk time: the factor by which the
  // run's timings are scaled (1 with no chunks).
  double factor() const;
  // Resident MiB the reference data added; peak RSS is reported without it.
  double footprint_mb() const { return footprint_mb_; }

  static constexpr double kEveryS = 0.05;
  // About the median chunk time on the machine the bounds were set on (a
  // shared 4-core Xeon container, RelWithDebInfo), so that scaled timings
  // read close to measured ones there.
  static constexpr double kNominalChunkS = 0.0022;

 private:
  void Chunk();
  std::map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint32_t> next_;
  std::uint64_t key_ = 1;
  std::uint32_t at_ = 0;
  std::uint64_t sink_ = 0;
  double spent_s_ = 0.0;
  double footprint_mb_ = 0.0;
  Clock::time_point last_end_;
  std::vector<double> chunk_s_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // > 0: run exactly this many measured rounds and ignore `seconds` (the
  // self-test compares two modes over the same rounds).
  int rounds = 0;
  std::string spans_out;  // traced run: where to write the spans
};

// The layers a traced run records spans for. kRound is the root of one
// measured round; its self time is the time no layer span covers.
enum Layer {
  kRound,
  kTopoGenerate,
  kTopoSpt,
  kIdAssign,
  kDirAdd,
  kDirRemove,
  kKeyUpdate,
  kKeyRekey,
  kTmeshDrain,
  kNiceJoin,
  kNiceDeliver,
  kLayerCount
};
const char* LayerName(Layer l);

// In-memory spans with self-time accounting: a span's self time is its
// duration minus the spans opened inside it.
class Spans {
 public:
  void Open(Layer l);
  void Close();
  double SelfSeconds(Layer l) const {
    return static_cast<double>(self_ns_[l]) * 1e-9;
  }
  double TotalSeconds(Layer l) const {
    return static_cast<double>(total_ns_[l]) * 1e-9;
  }
  std::size_t size() const { return spans_.size(); }
  // Chrome trace-event JSON ("X" events), one per span.
  bool WriteJson(const std::string& path) const;

 private:
  struct Open_ {
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Span {
    Layer layer;
    std::int64_t start, end;
    std::int32_t depth;
  };
  std::vector<Open_> stack_;
  std::vector<Span> spans_;
  std::int64_t self_ns_[kLayerCount] = {};
  std::int64_t total_ns_[kLayerCount] = {};
};

// Opens a span for the scope when a recorder is given.
class SpanScope {
 public:
  SpanScope(Spans* s, Layer l) : s_(s) {
    if (s_ != nullptr) s_->Open(l);
  }
  ~SpanScope() {
    if (s_ != nullptr) s_->Close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* s_;
};

// 64-bit FNV-1a over the bytes of the values fed to it.
class Digest {
 public:
  template <class T>
  void Add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void AddId(const tmesh::DigitString& id) {
    Add(id.size());
    for (int i = 0; i < id.size(); ++i) Add(id.digit(i));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct RunResult {
  Verdict verdict;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t digest = 0;
  int rounds = 0;

  double setup_s = 0.0;
  // Peak RSS once set-up and a fixed number of measured rounds are done:
  // the key server keeps every interval's records, so a later sample would
  // grow with the rounds a run happens to fit in its time.
  double peak_rss_mb = 0.0;
  std::vector<double> round_s;      // wall-clock of each measured round
  std::vector<double> join_ms;      // one join call each
  std::vector<double> leave_ms;     // one leave call each
  std::vector<double> interval_ms;  // tick until the interval drained
  double drain_s = 0.0;             // sum of interval_ms, in seconds
  std::int64_t deliveries = 0;      // copies delivered while draining
  std::vector<double> rekey_delay_ms;
  std::vector<double> data_delay_ms;
  std::vector<double> rekey_cost;             // encryptions per message
  std::vector<double> rekey_encs_per_member;  // per message

  // Untraced run only: the calibration the timings are scaled by.
  double calib_factor = 1.0;
  double calib_median_chunk_s = 0.0;
  int calib_chunks = 0;
  double calib_footprint_mb = 0.0;
  void Calibrated(const Calibrator& c) {
    calib_factor = c.factor();
    calib_median_chunk_s = c.median_chunk_s();
    calib_chunks = c.chunks();
    calib_footprint_mb = c.footprint_mb();
  }

  // Traced run only: per-layer metrics by name, with their units.
  std::map<std::string, std::pair<double, std::string>> layer;
};

// The workloads (workloads.cc). Each fills `out`; `spans` is non-null
// exactly on a traced run.
void RunFig8Gtitm(const RunOptions& o, Spans* spans, RunResult& out);
void RunMcastPlanetlab(const RunOptions& o, Spans* spans, RunResult& out);

// One Fig. 8 replica's series, in RunLatencyExperiment's form; the
// self-test compares the modes (workloads.cc).
struct Fig8Series {
  std::vector<double> tmesh_delay, tmesh_rdp, tmesh_stress;
  std::vector<double> nice_delay, nice_rdp, nice_stress;
  std::vector<double> unicast_ms;  // from the key server, per member
};
enum class Fig8Mode {
  kUntraced,    // the workload's GroupSession path
  kTraced,      // the workload's layer-by-layer path
  kExperiment,  // RunLatencyExperiment on the same network and run seed
};
Fig8Series Fig8ReplicaSeries(std::uint64_t seed, int replica, Fig8Mode mode);

// The self-test (selftest.cc): returns the process exit code.
int SelfTest();

}  // namespace perfbench
