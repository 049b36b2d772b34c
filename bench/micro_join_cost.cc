// §3.1.4: the communication cost for a joining user to determine its ID is
// O(P·D·N^{1/D}) messages on average. This driver measures the observed
// per-join query counts across group sizes and prints them next to the
// asymptotic prediction (scaled to match at the smallest N), with the
// records those queries return (what step 1 has to sift per join).
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "protocols/group_session.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"micro_join_cost",
                             "§3.1.4: probing cost per join vs group size",
                             100};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);

  std::vector<int> sizes = f.full ? std::vector<int>{64, 128, 256, 512, 1024}
                                  : std::vector<int>{64, 128, 256, 512};
  SessionConfig scfg = PaperSession();
  const int d = scfg.group.digits;
  const int p = scfg.assign.collect_target;

  std::printf("# §3.1.4: probing cost per join vs group size (D=%d, P=%d)\n",
              d, p);
  std::printf("%8s%16s%16s%18s%18s\n", "N", "avg_queries", "avg_rtt_probes",
              "P*D*N^(1/D)", "avg_records");
  for (int n : sizes) {
    auto net = MakeNetwork(Topo::kGtItm, n + 1, f.seed + static_cast<std::uint64_t>(n));
    SessionConfig cfg = scfg;
    cfg.with_nice = false;
    cfg.seed = f.seed;
    GroupSession session(*net, 0, cfg);
    // Measure the last quarter of joins (the group is near size N).
    double queries = 0, probes = 0, records = 0;
    int measured = 0;
    for (HostId h = 1; h <= n; ++h) {
      IdAssignStats stats;
      auto id = session.Join(h, h, &stats);
      if (!id.has_value()) break;
      if (h > 3 * n / 4) {
        queries += stats.queries;
        probes += stats.rtt_probes;
        records += stats.records_examined;
        ++measured;
      }
    }
    double predicted =
        p * d * std::pow(static_cast<double>(n), 1.0 / static_cast<double>(d));
    std::printf("%8d%16.1f%16.1f%18.1f%18.1f\n", n, queries / measured,
                probes / measured, predicted, records / measured);
    // No simulator runs here; the artifact carries the table itself as
    // per-group-size gauges.
    if (MetricsRegistry* reg = art.metrics(); reg != nullptr) {
      const std::string suffix = ".n" + std::to_string(n);
      reg->GetGauge("joincost.avg_queries" + suffix)->Set(queries / measured);
      reg->GetGauge("joincost.avg_rtt_probes" + suffix)
          ->Set(probes / measured);
      reg->GetGauge("joincost.predicted" + suffix)->Set(predicted);
      reg->GetGauge("joincost.avg_records" + suffix)->Set(records / measured);
    }
  }
  art.Write();
  return 0;
}
