// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <fig8_gtitm|mcast_planetlab> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics on an untraced run (--trace 0) and the
// per-layer metrics on a traced one (--trace 1). Workload-specific
// end-to-end figures (leave latency, interval drain, rekey cost, ...) and
// the output digest go to standard error. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

const char* LayerName(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "round",     "topology.generate", "topology.spt", "id_assignment",
      "directory.add", "directory.remove", "keytree.update", "keytree.rekey",
      "tmesh.drain",   "nice.join",         "nice.deliver"};
  return kNames[l];
}

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Spans::Open(Layer l) { stack_.push_back({l, NowNs(), 0}); }

void Spans::Close() {
  const std::int64_t end = NowNs();
  const Open_ top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - top.start;
  self_ns_[top.layer] += dur - top.child_ns;
  total_ns_[top.layer] += dur;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  spans_.push_back(
      {top.layer, top.start, end, static_cast<std::int32_t>(stack_.size())});
}

bool Spans::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << LayerName(s.layer)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start - t0) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
       << ",\"args\":{\"depth\":" << s.depth << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Calibrator::Calibrator() {
  const double rss0 = CurrentRssMib();
  // A fixed map and a single-cycle permutation, the same on every run.
  std::uint64_t k = 0x2545F4914F6CDD1Dull;
  for (std::uint64_t i = 0; i < (1u << 17); ++i) {
    k = k * 6364136223846793005ull + 1442695040888963407ull;
    map_.emplace(k, i);
  }
  // Sattolo's shuffle: one cycle through every slot.
  next_.resize(1u << 21);
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t r = 88172645463325252ull;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    std::swap(next_[i], next_[r % i]);
  }
  footprint_mb_ = CurrentRssMib() - rss0;
  last_end_ = Clock::now();
}

void Calibrator::Chunk() {
  for (int i = 0; i < 2000; ++i) {
    key_ = key_ * 6364136223846793005ull + 1442695040888963407ull;
    auto it = map_.lower_bound(key_);
    if (it != map_.end()) sink_ += it->second;
    for (int j = 0; j < 4; ++j) at_ = next_[at_];
    sink_ += at_;
  }
}

void Calibrator::MaybeRun() {
  const auto t0 = Clock::now();
  if (Seconds(last_end_, t0) < kEveryS) return;
  Chunk();
  last_end_ = Clock::now();
  const double s = Seconds(t0, last_end_);
  chunk_s_.push_back(s);
  spent_s_ += s;
}

double Calibrator::median_chunk_s() const {
  if (chunk_s_.empty()) return 0.0;
  std::vector<double> v = chunk_s_;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

double Calibrator::factor() const {
  const double m = median_chunk_s();
  return m > 0.0 ? kNominalChunkS / m : 1.0;
}

namespace {

// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " +
         Num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

[[noreturn]] void Usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload "
               "<fig8_gtitm|mcast_planetlab> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n"
               "       %s --selftest\n",
               argv0, why, argv0, argv0);
  std::exit(2);
}

// Strict unsigned parse: the whole string must be a number in range.
std::uint64_t ParseU64(const char* argv0, const char* flag, const char* s,
                       std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0 || v < lo ||
      v > hi) {
    Usage(argv0, (std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return SelfTest();
    if (i + 1 >= argc) Usage(argv[0], ("missing value for " + a).c_str());
    const char* val = argv[++i];
    if (a == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = ParseU64(argv[0], "--seed", val, 0, ~std::uint64_t{0});
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(
          ParseU64(argv[0], "--seconds", val, 1, 3600));
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = ParseU64(argv[0], "--trace", val, 0, 1) == 1;
      have_trace = true;
    } else if (a == "--spans-out") {
      o.spans_out = val;
    } else {
      Usage(argv[0], ("unknown flag " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage(argv[0], "--workload, --seed, --seconds and --trace are required");
  }

  RunResult out;
  Spans spans;
  Spans* sp = o.trace ? &spans : nullptr;
  if (o.workload == "fig8_gtitm") {
    RunFig8Gtitm(o, sp, out);
  } else if (o.workload == "mcast_planetlab") {
    RunMcastPlanetlab(o, sp, out);
  } else {
    Usage(argv[0], ("unknown workload " + o.workload).c_str());
  }
  if (sp != nullptr && !o.spans_out.empty() && !spans.WriteJson(o.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
    return 1;
  }

  std::vector<Metric> ms;
  if (!o.trace) {
    // Timings of the measured phase are scaled to the reference machine's
    // speed (Calibrator); set-up is one cold pass before any chunk runs and
    // is reported as measured.
    const double k = out.calib_factor;
    ms = {
        {"setup_s", out.setup_s, "s"},
        {"run_s", Percentile(out.round_s, 50) * k, "s"},
        {"join_ms_p50", Percentile(out.join_ms, 50) * k, "ms"},
        {"join_ms_p95", Percentile(out.join_ms, 95) * k, "ms"},
        {"rekey_delay_ms_p95", Percentile(out.rekey_delay_ms, 95), "sim_ms"},
        {"peak_rss_mb", out.peak_rss_mb - out.calib_footprint_mb, "MiB"},
    };
    // Figures only some workloads have: reported, not gated.
    std::vector<Metric> extra = {
        {"rounds", static_cast<double>(out.rounds), "count"},
        {"join_samples", static_cast<double>(out.join_ms.size()), "count"},
        {"calib_factor", k, "ratio"},
        {"calib_chunks", static_cast<double>(out.calib_chunks), "count"},
        {"calib_footprint_mb", out.calib_footprint_mb, "MiB"},
        {"run_s_measured", Percentile(out.round_s, 50), "s"},
        {"join_ms_p50_measured", Percentile(out.join_ms, 50), "ms"},
    };
    if (!out.leave_ms.empty()) {
      extra.push_back({"leave_ms_p50", Percentile(out.leave_ms, 50) * k, "ms"});
      extra.push_back({"leave_ms_p95", Percentile(out.leave_ms, 95) * k, "ms"});
    }
    if (!out.interval_ms.empty()) {
      extra.push_back(
          {"interval_ms_p50", Percentile(out.interval_ms, 50) * k, "ms"});
      extra.push_back({"deliveries_per_s",
                       static_cast<double>(out.deliveries) / out.drain_s / k,
                       "1/s"});
    }
    if (!out.rekey_cost.empty()) {
      extra.push_back({"rekey_cost", Mean(out.rekey_cost), "encryptions"});
      extra.push_back({"rekey_encs_per_member",
                       Mean(out.rekey_encs_per_member), "encryptions"});
    }
    if (!out.data_delay_ms.empty()) {
      extra.push_back({"data_delay_ms_p95",
                       Percentile(out.data_delay_ms, 95), "sim_ms"});
    }
    std::fprintf(stderr, "perfbench: extra %s\n", MetricsJson(extra).c_str());
  } else {
    for (const auto& [name, vu] : out.layer) {
      ms.push_back({name, vu.first, vu.second});
    }
    // The traced rounds' median, to set against the untraced run_s.
    const std::vector<Metric> extra = {
        {"rounds", static_cast<double>(out.rounds), "count"},
        {"run_s", Percentile(out.round_s, 50), "s"},
    };
    std::fprintf(stderr, "perfbench: extra %s\n", MetricsJson(extra).c_str());
  }
  std::fprintf(stderr, "perfbench: digest %016llx rounds %d\n",
               static_cast<unsigned long long>(out.digest), out.rounds);
  if (!out.verdict.ok()) {
    std::fprintf(stderr, "perfbench: %d check failures; first: %s\n",
                 out.verdict.failures(), out.verdict.first().c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.verdict.ok() ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), MetricsJson(ms).c_str());
  return 0;
}
