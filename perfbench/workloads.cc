// The two workloads. See README.md for their make-up and for which
// layer each one stresses.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_set>

#include "common/rng.h"
#include "core/cluster_rekeying.h"
#include "core/directory.h"
#include "core/id_assignment.h"
#include "core/key_server.h"
#include "core/modified_key_tree.h"
#include "core/tmesh.h"
#include "metrics/registry.h"
#include "nice/nice_overlay.h"
#include "perfbench.h"
#include "protocols/group_session.h"
#include "protocols/latency_experiment.h"
#include "sim/sim_metrics.h"
#include "sim/simulator.h"
#include "topology/gtitm.h"
#include "topology/planetlab.h"
#include "transport/sim_transport.h"

namespace perfbench {

using tmesh::ClusterRekeying;
using tmesh::Counter;
using tmesh::Directory;
using tmesh::FromSeconds;
using tmesh::GroupSession;
using tmesh::GtItmNetwork;
using tmesh::HostId;
using tmesh::IdAssigner;
using tmesh::IdAssignStats;
using tmesh::KeyId;
using tmesh::KeyServer;
using tmesh::MetricsRegistry;
using tmesh::ModifiedKeyTree;
using tmesh::Network;
using tmesh::NiceOverlay;
using tmesh::RekeyMessage;
using tmesh::Rng;
using tmesh::SessionConfig;
using tmesh::SimTime;
using tmesh::Simulator;
using tmesh::SimTransport;
using tmesh::TMesh;
using tmesh::UserId;

namespace {

constexpr HostId kServer = 0;

double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

// The paper's T-mesh parameters (§4): D=5, B=256, K=4, P=10, F=90,
// R=(150,30,9,3) ms, NICE k=3 — the figure benches' session.
SessionConfig PaperSession() {
  SessionConfig s;
  s.group = tmesh::GroupParams{5, 256, 4};
  s.assign.collect_target = 10;
  s.assign.percentile = 90.0;
  s.assign.thresholds_ms = {150.0, 30.0, 9.0, 3.0};
  s.nice.k = 3;
  return s;
}

// Whole rounds until the time is up and at least `min_rounds` are done, or
// exactly o.rounds when given.
bool Done(const RunOptions& o, int rounds, int min_rounds,
          Clock::time_point start) {
  if (o.rounds > 0) return rounds >= o.rounds;
  return rounds >= min_rounds && Seconds(start, Clock::now()) >= o.seconds;
}

// Per-layer work counters a traced run sums over the measured phase.
struct LayerCounts {
  std::int64_t joins = 0;
  std::int64_t queries = 0;
  std::int64_t rtt_probes = 0;
  std::int64_t self_digits = 0;
  std::int64_t spt_count = 0;
  std::int64_t encryptions = 0;
  void AddAssign(const IdAssignStats& st) {
    ++joins;
    queries += st.queries;
    rtt_probes += st.rtt_probes;
    self_digits += st.digits_self_determined;
  }
};

// Layer self times at the start of the measured phase.
struct SpanMark {
  double s[kLayerCount] = {};
  double round_total = 0.0;
  void Take(const Spans* spans) {
    for (int l = 0; l < kLayerCount; ++l) {
      s[l] = spans->SelfSeconds(static_cast<Layer>(l));
    }
    round_total = spans->TotalSeconds(kRound);
  }
};

std::int64_t CounterValue(const MetricsRegistry& reg, const char* name) {
  const Counter* c = reg.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// The per-layer metrics every traced run reports (README.md lists which
// end-to-end metric each one should move).
void ReportLayers(const Spans& spans, const SpanMark& mark,
                  const LayerCounts& n, const Directory::OpStats& dir_delta,
                  const MetricsRegistry& reg, std::int64_t events_run,
                  int digits, RunResult& out) {
  auto self = [&](Layer l) { return spans.SelfSeconds(l) - mark.s[l]; };
  auto put = [&](const char* name, double v, const char* unit) {
    out.layer[name] = {v, unit};
  };
  // Topology work is set-up: whole-run totals. Everything else covers the
  // measured phase only.
  put("topology.generate_s", spans.SelfSeconds(kTopoGenerate), "s");
  put("topology.spt_s", spans.SelfSeconds(kTopoSpt), "s");
  put("topology.spt_count", static_cast<double>(n.spt_count), "count");
  put("id_assignment.s", self(kIdAssign), "s");
  put("id_assignment.queries", static_cast<double>(n.queries), "count");
  put("id_assignment.rtt_probes", static_cast<double>(n.rtt_probes),
      "count");
  put("id_assignment.self_digit_ratio",
      n.joins > 0 ? static_cast<double>(n.self_digits) /
                        static_cast<double>((digits - 1) * n.joins)
                  : 0.0,
      "ratio");
  put("directory.add_s", self(kDirAdd), "s");
  put("directory.s", self(kDirAdd) + self(kDirRemove), "s");
  put("directory.holders_examined",
      static_cast<double>(dir_delta.holders_examined), "count");
  put("directory.holders_updated",
      static_cast<double>(dir_delta.holders_updated), "count");
  put("directory.candidates_probed",
      static_cast<double>(dir_delta.candidates_probed), "count");
  put("directory.refill_calls", static_cast<double>(dir_delta.refill_calls),
      "count");
  put("keytree.update_s", self(kKeyUpdate), "s");
  put("keytree.rekey_s", self(kKeyRekey), "s");
  put("keytree.encryptions", static_cast<double>(n.encryptions), "count");
  const double drain = self(kTmeshDrain);
  const auto sent = CounterValue(reg, "tmesh.messages_sent");
  const auto delivered = CounterValue(reg, "tmesh.deliveries");
  put("tmesh.drain_s", drain, "s");
  put("tmesh.messages_sent", static_cast<double>(sent), "count");
  put("tmesh.deliveries", static_cast<double>(delivered), "count");
  put("tmesh.encs_sent",
      static_cast<double>(CounterValue(reg, "tmesh.encs_sent")), "count");
  put("tmesh.split_messages",
      static_cast<double>(CounterValue(reg, "tmesh.split_messages")),
      "count");
  put("tmesh.retries",
      static_cast<double>(CounterValue(reg, "tmesh.retries")), "count");
  put("tmesh.uplink_bytes",
      static_cast<double>(CounterValue(reg, "tmesh.uplink_bytes")), "count");
  put("tmesh.delivery_ratio",
      sent > 0 ? static_cast<double>(delivered) / static_cast<double>(sent)
               : 0.0,
      "ratio");
  put("sim.events_run", static_cast<double>(events_run), "count");
  put("sim.events_per_s",
      drain > 0.0 ? static_cast<double>(events_run) / drain : 0.0, "1/s");
  put("nice.join_s", self(kNiceJoin), "s");
  put("nice.deliver_s", self(kNiceDeliver), "s");
  // The measured rounds' wall-clock, and the part of it no layer span
  // covers (benchmark bookkeeping, clock reads, span overhead).
  put("trace.measured_s", spans.TotalSeconds(kRound) - mark.round_total,
      "s");
  put("trace.uncovered_s", self(kRound), "s");
}

void AddDelivery(Digest& d, const TMesh::Result& r) {
  d.Add(r.messages_sent);
  d.Add(r.messages_lost);
  d.Add(r.deliveries_failed);
  for (const auto& m : r.member) {
    d.Add(m.copies);
    d.Add(m.delay_ms);
    d.Add(m.from);
    d.Add(m.forward_level);
    d.Add(m.stress);
    d.Add(m.encs_received);
  }
  for (const auto& encs : r.member_encs) {
    d.Add(encs.size());
    for (std::int32_t i : encs) d.Add(i);
  }
}

// ---------------------------------------------------------------------------
// fig8_gtitm: Fig. 8's replica (protocols/latency_experiment.cc, rekey path)
// ---------------------------------------------------------------------------

constexpr int kFig8Users = 1024;
constexpr int kFig8SimRounds = 12;  // replicas whose delays feed the metrics
constexpr double kFig8JoinWindowS = 2048.0;  // the GT-ITM figures' window

// The GT-ITM router graph is fixed for the workload; each replica generates
// it afresh (a new network has no cached shortest-path trees) and attaches
// its hosts with its own seed. A graph per seed would swing the rekey delay
// percentile by a sixth between seeds.
constexpr std::uint64_t kFig8GraphSeed = 1;

std::uint64_t Fig8RunSeed(std::uint64_t seed, int replica) {
  return seed + static_cast<std::uint64_t>(replica) * 1000003;
}

std::unique_ptr<GtItmNetwork> Fig8Network(std::uint64_t seed, int replica,
                                          Spans* spans) {
  SpanScope span(spans, kTopoGenerate);
  tmesh::GtItmParams p;
  p.seed = kFig8GraphSeed;
  return std::make_unique<GtItmNetwork>(p, kFig8Users + 1,
                                        Fig8RunSeed(seed, replica) * 31 + 1);
}

struct Fig8Out {
  std::vector<UserId> ids;
  std::vector<double> join_ms;
  TMesh::Result tmesh;
  NiceOverlay::Delivery nice;
};

// One replica: the joins, one rekey multicast from the key server, then the
// NICE baseline delivery — RunLatencyExperiment's steps, with each join
// timed. Untraced (spans == null) it calls GroupSession::Join; traced it
// calls the layers GroupSession::Join bundles, in the same order.
void Fig8Replica(const GtItmNetwork& net, std::uint64_t run_seed,
                 Spans* spans, Calibrator* calib, MetricsRegistry* reg,
                 LayerCounts* counts, Directory::OpStats* dir_stats,
                 Fig8Out& out) {
  Rng rng(run_seed);
  SessionConfig scfg = PaperSession();
  scfg.seed = rng.Fork().engine()();
  std::vector<std::pair<SimTime, HostId>> joins;
  joins.reserve(kFig8Users);
  for (HostId h = 1; h <= kFig8Users; ++h) {
    joins.push_back({FromSeconds(rng.UniformReal(0.0, kFig8JoinWindowS)), h});
  }
  std::sort(joins.begin(), joins.end());
  out.ids.reserve(kFig8Users);
  out.join_ms.reserve(kFig8Users);
  const RekeyMessage rekey_msg;  // latency only: splitting changes no path

  if (spans == nullptr) {
    GroupSession session(net, kServer, scfg);
    for (const auto& [t, h] : joins) {
      if (calib != nullptr) calib->MaybeRun();
      const auto t0 = Clock::now();
      std::optional<UserId> id = session.Join(h, t);
      out.join_ms.push_back(Ms(t0, Clock::now()));
      if (id.has_value()) out.ids.push_back(*id);
    }
    session.FlushRekeyState();
    Simulator sim;
    TMesh tmesh(session.directory(), sim);
    TMesh::Handle handle = tmesh.BeginRekey(rekey_msg, TMesh::Options{});
    sim.Run();
    out.tmesh = handle.TakeResult();
    out.nice = session.nice()->RekeyFromServer(kServer);
    return;
  }

  {
    // Every host's shortest-path tree, before the joins that would
    // otherwise compute them lazily.
    SpanScope span(spans, kTopoSpt);
    for (HostId h = 0; h < net.host_count(); ++h) (void)net.SptFromHost(h);
    counts->spt_count += net.host_count();
  }
  Directory dir(net, scfg.group, kServer);
  IdAssigner assigner(dir, scfg.assign, scfg.seed);
  ModifiedKeyTree mtree(scfg.group.digits);
  ClusterRekeying clusters(scfg.group.digits);
  NiceOverlay nice(net, scfg.nice);
  for (const auto& [t, h] : joins) {
    const auto t0 = Clock::now();
    std::optional<UserId> id;
    IdAssignStats st;
    {
      SpanScope span(spans, kIdAssign);
      id = assigner.AssignId(h, &st);
    }
    counts->AddAssign(st);
    if (id.has_value()) {
      {
        SpanScope span(spans, kDirAdd);
        dir.AddMember(*id, h, t);
      }
      {
        SpanScope span(spans, kKeyUpdate);
        mtree.Join(*id);
        clusters.Join(*id, t);
      }
      {
        SpanScope span(spans, kNiceJoin);
        nice.Join(h);
      }
      out.ids.push_back(*id);
    }
    out.join_ms.push_back(Ms(t0, Clock::now()));
  }
  {
    SpanScope span(spans, kKeyRekey);
    counts->encryptions +=
        static_cast<std::int64_t>(mtree.Rekey().RekeyCost());
    (void)clusters.Rekey();
  }
  Simulator sim;
  TMesh tmesh(dir, sim);
  tmesh.SetMetrics(reg);
  {
    SpanScope span(spans, kTmeshDrain);
    TMesh::Handle handle = tmesh.BeginRekey(rekey_msg, TMesh::Options{});
    sim.Run();
    out.tmesh = handle.TakeResult();
  }
  tmesh.FlushMetrics();
  tmesh.SetMetrics(nullptr);
  tmesh::ExportSimMetrics(sim, *reg);
  {
    SpanScope span(spans, kNiceDeliver);
    out.nice = nice.RekeyFromServer(kServer);
  }
  const Directory::OpStats& s = dir.op_stats();
  dir_stats->holders_examined += s.holders_examined;
  dir_stats->holders_updated += s.holders_updated;
  dir_stats->candidates_probed += s.candidates_probed;
  dir_stats->refill_calls += s.refill_calls;
}

Fig8Series SeriesOf(const Network& net, const Fig8Out& r) {
  Fig8Series s;
  for (HostId h = 1; h <= kFig8Users; ++h) {
    const auto& rec = r.tmesh.member[static_cast<std::size_t>(h)];
    s.tmesh_delay.push_back(rec.delay_ms);
    s.tmesh_rdp.push_back(rec.rdp);
  }
  for (HostId h = 1; h <= kFig8Users; ++h) {
    s.tmesh_stress.push_back(r.tmesh.member[static_cast<std::size_t>(h)].stress);
  }
  for (HostId h = 1; h <= kFig8Users; ++h) {
    const double delay = r.nice.delay_ms[static_cast<std::size_t>(h)];
    const double unicast = net.OneWayDelayMs(kServer, h);
    s.nice_delay.push_back(delay);
    s.nice_rdp.push_back(unicast > 0.0 ? delay / unicast : 1.0);
    s.unicast_ms.push_back(unicast);
  }
  for (HostId h = 1; h <= kFig8Users; ++h) {
    s.nice_stress.push_back(r.nice.stress[static_cast<std::size_t>(h)]);
  }
  return s;
}

// RTTs by the benchmark's own Dijkstra over the router links, for a sample
// of host pairs.
void CheckGtItmRtts(const GtItmNetwork& net, std::uint64_t sample_seed,
                    Verdict& v) {
  LinkList g;
  g.nodes = net.router_count();
  for (tmesh::LinkId l = 0; l < net.graph().link_count(); ++l) {
    const auto& link = net.graph().link(l);
    g.links.push_back({link.a, link.b, link.rtt_ms});
  }
  std::vector<int> attach(static_cast<std::size_t>(net.host_count()));
  for (HostId h = 0; h < net.host_count(); ++h) {
    attach[static_cast<std::size_t>(h)] = net.attach_router(h);
  }
  Rng rng(sample_seed);
  std::vector<std::pair<int, int>> pairs;
  for (int s = 0; s < 4; ++s) {
    const int a = static_cast<int>(rng.UniformInt(0, net.host_count() - 1));
    for (int k = 0; k < 32; ++k) {
      pairs.push_back(
          {a, static_cast<int>(rng.UniformInt(0, net.host_count() - 1))});
    }
  }
  CheckRtts(g, attach, [&](int a, int b) { return net.RttHosts(a, b); },
            pairs, v);
}

void CheckFig8(const GtItmNetwork& net, const Fig8Out& r,
               std::uint64_t sample_seed, Verdict& v) {
  CheckUniqueIds(r.ids, PaperSession().group.digits, v);
  std::vector<int> expected(static_cast<std::size_t>(net.host_count()), 1);
  expected[kServer] = 0;
  CheckExactlyOnce(r.tmesh, expected, "fig8 rekey (T-mesh)", v);
  CheckConservation(r.tmesh, "fig8 rekey (T-mesh)", v);
  CheckExactlyOnce(r.nice.copies, expected, "fig8 rekey (NICE)", v);
  const Fig8Series s = SeriesOf(net, r);
  CheckRdp(s.tmesh_delay, s.unicast_ms, "fig8 T-mesh", v);
  CheckRdp(s.nice_delay, s.unicast_ms, "fig8 NICE", v);
  CheckGtItmRtts(net, sample_seed, v);
}

// ---------------------------------------------------------------------------
// mcast_planetlab: the online KeyServer loop
// ---------------------------------------------------------------------------

struct KsSpec {
  int hosts;         // network size, the key server's host 0 included
  int members;       // the group set-up builds
  int joins;         // per interval
  int leaves;        // per interval
  int data;          // data multicasts started at each tick
  double uplink_kbps;  // 0: no access-link model
  double loss;         // rekey transmission loss probability
  // The simulated outputs (delays, rekey cost) of the first sim_rounds
  // measured rounds feed the metrics, so those metrics are the same for a
  // seed however many rounds a run fits in its time; every run does at
  // least that many rounds.
  int sim_rounds;
  int rss_rounds;      // measured rounds before peak RSS is sampled
  // Measured rounds per epoch. Each epoch rebuilds the initial group and
  // churns it afresh, so a run averages over many churn histories: the
  // join work follows the group's history, and one long history per run
  // made a run's join time depend on its seed by up to 13%.
  int epoch_rounds;
  std::uint64_t tag;   // mixes the workload into its seed
  // The topology is fixed per workload; --seed varies everything that runs
  // on it (join order, hosts, leavers, senders, IDs, loss draws). A seeded
  // topology would swing the simulated delay percentiles by a third between
  // seeds and drown the effect of a protocol change.
  std::uint64_t net_seed;
};

constexpr KsSpec kMcastPlanetlab{227, 192, 8,  8,  128, 1000.0,
                                 0.02, 512, 64, 64,  13, 1};
const SimTime kInterval = FromSeconds(512);  // the paper's §4.3 value

// KeyServer rebuilt from the layers it bundles, for the traced run: the
// same members, the same calls in the same order, the same transport
// schedule — so IDs, rekey messages, and deliveries come out identical —
// with a span around each layer call. Covers the configuration the
// workloads use (no cluster heuristic, no failures, no crash injection).
class LayerServer {
 public:
  LayerServer(tmesh::Transport& transport, const KeyServer::Config& cfg,
              Spans* spans, LayerCounts* counts)
      : cfg_(cfg),
        dir_(*cfg.net, cfg.group, cfg.server_host),
        assigner_(dir_, cfg.assign, cfg.seed),
        mtree_(cfg.group.digits),
        clusters_(cfg.group.digits),
        transport_(transport),
        tmesh_(dir_, transport),
        spans_(spans),
        counts_(counts) {
    TMESH_CHECK(!cfg.cluster_heuristic && cfg.rekey_shards == 1);
  }

  void SetIntervalHandler(
      std::function<void(const KeyServer::IntervalRecord&)> handler) {
    on_interval_ = std::move(handler);
  }
  // Where later calls record their spans (none if null) and counts.
  void Trace(Spans* spans, LayerCounts* counts) {
    spans_ = spans;
    counts_ = counts;
  }
  void Start() {
    tick_at_ = transport_.Now() + cfg_.rekey_interval;
    transport_.ScheduleIn(cfg_.rekey_interval, [this]() { EndInterval(); });
  }
  std::optional<UserId> RequestJoin(HostId host) {
    std::optional<UserId> id;
    IdAssignStats st;
    {
      SpanScope span(spans_, kIdAssign);
      id = assigner_.AssignId(host, &st);
    }
    counts_->AddAssign(st);
    if (!id.has_value()) return std::nullopt;
    {
      SpanScope span(spans_, kDirAdd);
      dir_.AddMember(*id, host, transport_.Now());
    }
    {
      SpanScope span(spans_, kKeyUpdate);
      mtree_.Join(*id);
      clusters_.Join(*id, transport_.Now());
    }
    ++interval_joins_;
    return id;
  }
  void RequestLeave(UserId id) {
    TMESH_CHECK(dir_.IsAlive(id));
    {
      SpanScope span(spans_, kDirRemove);
      dir_.RemoveMember(id);
    }
    {
      SpanScope span(spans_, kKeyUpdate);
      mtree_.Leave(id);
      clusters_.Leave(id);
    }
    ++interval_leaves_;
  }
  TMesh::Handle MulticastData(const UserId& sender) {
    return tmesh_.BeginData(sender);
  }

  Directory& directory() { return dir_; }
  const ModifiedKeyTree& key_tree() const { return mtree_; }
  TMesh& mesh() { return tmesh_; }
  std::uint32_t group_key_version() const {
    return mtree_.KeyVersion(tmesh::DigitString{});
  }
  SimTime next_interval_at() const { return tick_at_; }
  const std::vector<KeyServer::IntervalRecord>& history() const {
    return history_;
  }
  const TMesh::Result& delivery(int i) const {
    return deliveries_[static_cast<std::size_t>(i)].result();
  }
  const RekeyMessage& message(int i) const {
    return *messages_[static_cast<std::size_t>(i)];
  }

 private:
  void EndInterval() {
    const SimTime fired_at = tick_at_;
    KeyServer::IntervalRecord rec;
    rec.when = transport_.Now();
    rec.joins = interval_joins_;
    rec.leaves = interval_leaves_;
    interval_joins_ = 0;
    interval_leaves_ = 0;
    RekeyMessage chosen;
    {
      SpanScope span(spans_, kKeyRekey);
      chosen = mtree_.Rekey(cfg_.rekey_shards);
      clusters_.DiscardPending();
    }
    rec.rekey_cost = chosen.RekeyCost();
    if (rec.rekey_cost > 0 && dir_.alive_count() > 0) {
      counts_->encryptions += static_cast<std::int64_t>(rec.rekey_cost);
      messages_.push_back(std::make_unique<RekeyMessage>(std::move(chosen)));
      TMesh::Options opts;
      opts.split = cfg_.split;
      opts.record_encryptions = cfg_.record_encryptions;
      opts.loss_prob = cfg_.loss_prob;
      opts.max_send_attempts = cfg_.max_send_attempts;
      opts.loss_seed = cfg_.seed * 0x9E3779B97F4A7C15ull +
                       static_cast<std::uint64_t>(deliveries_.size());
      deliveries_.push_back(tmesh_.BeginRekey(*messages_.back(), opts));
      rec.delivery = static_cast<int>(deliveries_.size()) - 1;
    }
    history_.push_back(rec);
    tick_at_ = std::max(fired_at + cfg_.rekey_interval, transport_.Now());
    transport_.ScheduleAt(tick_at_, [this]() { EndInterval(); });
    if (on_interval_) on_interval_(history_.back());
  }

  KeyServer::Config cfg_;
  Directory dir_;
  IdAssigner assigner_;
  ModifiedKeyTree mtree_;
  ClusterRekeying clusters_;
  tmesh::Transport& transport_;
  TMesh tmesh_;
  Spans* spans_;
  LayerCounts* counts_;
  SimTime tick_at_ = tmesh::kNoTime;
  int interval_joins_ = 0;
  int interval_leaves_ = 0;
  std::function<void(const KeyServer::IntervalRecord&)> on_interval_;
  std::vector<KeyServer::IntervalRecord> history_;
  std::vector<TMesh::Handle> deliveries_;
  std::vector<std::unique_ptr<RekeyMessage>> messages_;
};

std::unique_ptr<Network> KsNetwork(const KsSpec& spec, std::uint64_t seed) {
  tmesh::PlanetLabParams p;
  p.seed = seed;
  p.hosts = spec.hosts;
  return std::make_unique<tmesh::PlanetLabNetwork>(p);
}

template <class Server>
void KsRun(const KsSpec& spec, const RunOptions& o, Spans* spans,
           RunResult& out) {
  std::unique_ptr<Network> net;
  {
    SpanScope span(spans, kTopoGenerate);
    net = KsNetwork(spec, spec.net_seed);
  }
  if (spans != nullptr) {
    // No router graph here: a host's distances come straight from the
    // RTT model. The traced run reads every host's distance row up front,
    // the counterpart of GT-ITM's shortest-path trees.
    SpanScope span(spans, kTopoSpt);
    double sum = 0.0;
    for (HostId a = 0; a < net->host_count(); ++a) {
      for (HostId b = 0; b < net->host_count(); ++b) sum += net->RttHosts(a, b);
    }
    if (!(sum > 0.0)) out.verdict.Fail("RTT rows sum to zero");
  }

  const int digits = PaperSession().group.digits;
  Digest digest;
  LayerCounts counts;        // the measured rounds'
  LayerCounts setup_counts;  // a traced set-up's, not reported
  SpanMark mark;
  MetricsRegistry reg;
  Directory::OpStats dir_delta;
  std::int64_t events = 0;
  std::optional<Calibrator> calib;  // untraced measured phase only
  Clock::time_point start;
  std::vector<HostId> final_hosts;

  for (int epoch = 0;; ++epoch) {
    // The initial group is the same for every seed and epoch: a group's
    // ID-tree shape persists through churn and sets the ID-assignment work
    // per join, which differed by 40% between 1024-member groups built from
    // different seeds. --seed and the epoch drive everything after set-up:
    // joining hosts, leavers, data senders.
    Rng setup_rng(spec.tag);
    Rng rng((o.seed * 1000003 + spec.tag) ^
            (static_cast<std::uint64_t>(epoch) * 0x9E3779B97F4A7C15ull));
    Simulator sim;
    SimTransport transport(sim, kServer);
    KeyServer::Config cfg;
    cfg.net = net.get();
    cfg.server_host = kServer;
    cfg.group = PaperSession().group;
    cfg.assign = PaperSession().assign;
    cfg.rekey_interval = kInterval;
    cfg.split = true;
    cfg.record_encryptions = true;
    cfg.loss_prob = spec.loss;
    cfg.seed = setup_rng.engine()();
    std::unique_ptr<Server> srv;
    if constexpr (std::is_same_v<Server, KeyServer>) {
      srv = std::make_unique<KeyServer>(transport, cfg);
    } else {
      srv = std::make_unique<LayerServer>(transport, cfg, nullptr,
                                          &setup_counts);
    }
    if (spec.uplink_kbps > 0.0) {
      TMesh::UplinkModel uplink;
      uplink.kbps = spec.uplink_kbps;
      srv->mesh().SetUplinkModel(uplink);
    }

    struct Member {
      UserId id;
      HostId host;
    };
    struct Departed {
      KeyRing ring;
      std::uint32_t group_version;
    };
    std::vector<HostId> free_hosts;
    for (HostId h = 1; h < net->host_count(); ++h) free_hosts.push_back(h);
    std::shuffle(free_hosts.begin(), free_hosts.end(), setup_rng.engine());
    std::vector<Member> alive;
    std::unordered_set<UserId> alive_ids;
    std::vector<KeyRing> rings(static_cast<std::size_t>(net->host_count()));
    std::vector<Departed> departed;
    std::vector<std::pair<TMesh::Handle, HostId>> data;  // this tick's
    bool measured = false;
    auto calibrate = [&]() {
      if (measured && calib.has_value()) calib->MaybeRun();
    };

    srv->SetIntervalHandler([&](const KeyServer::IntervalRecord&) {
      for (int i = 0; i < spec.data; ++i) {
        const Member& m = alive[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
        data.emplace_back(srv->MulticastData(m.id), m.host);
      }
    });

    auto join = [&]() {
      const HostId h = free_hosts.back();
      free_hosts.pop_back();
      calibrate();
      const auto t0 = Clock::now();
      std::optional<UserId> id = srv->RequestJoin(h);
      const double ms = Ms(t0, Clock::now());
      if (measured) {
        out.join_ms.push_back(ms);
        ++out.attempted;
      }
      if (!id.has_value()) {
        if (measured) ++out.failed;
        free_hosts.insert(free_hosts.begin(), h);
        return;
      }
      digest.AddId(*id);
      if (id->size() != digits || !alive_ids.insert(*id).second) {
        out.verdict.Fail("join got id " + id->ToString() +
                         ", not unique among members or not full length");
      }
      KeyRing& ring = rings[static_cast<std::size_t>(h)];
      ring.clear();
      for (const KeyId& k : srv->key_tree().KeysOf(*id)) {
        Grant(ring, k, srv->key_tree().KeyVersion(k));
      }
      alive.push_back({*id, h});
    };
    auto leave = [&]() {
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      const Member m = alive[i];
      alive[i] = alive.back();
      alive.pop_back();
      Departed d{std::move(rings[static_cast<std::size_t>(m.host)]), 0};
      for (const KeyId& k : srv->key_tree().KeysOf(m.id)) {
        Grant(d.ring, k, srv->key_tree().KeyVersion(k));
      }
      d.group_version = GroupKeyVersion(d.ring);
      calibrate();
      const auto t0 = Clock::now();
      srv->RequestLeave(m.id);
      const double ms = Ms(t0, Clock::now());
      if (measured) {
        out.leave_ms.push_back(ms);
        ++out.attempted;
      }
      digest.AddId(m.id);
      alive_ids.erase(m.id);
      departed.push_back(std::move(d));
      free_hosts.push_back(m.host);
      std::swap(free_hosts.back(),
                free_hosts[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(free_hosts.size()) - 1))]);
    };
    // Runs the next tick and drains its multicasts; the next tick must be
    // the only event left.
    auto run_interval = [&]() {
      const SimTime next = srv->next_interval_at() + kInterval;
      const tmesh::RunStatus st =
          sim.RunFor(tmesh::EventBudget::Until(next - 1));
      if (st.next_event_time != next) {
        out.verdict.Fail("interval did not drain before the next tick");
      }
    };
    std::size_t checked = 0;
    auto check_interval = [&]() {
      const auto& hist = srv->history();
      if (hist.size() != checked + 1) {
        out.verdict.Fail("expected one interval record per tick");
        return;
      }
      checked = hist.size();
      const bool sampled = measured && out.rounds <= spec.sim_rounds;
      const KeyServer::IntervalRecord& rec = hist.back();
      std::vector<int> expected(static_cast<std::size_t>(net->host_count()), 0);
      for (const Member& m : alive) {
        expected[static_cast<std::size_t>(m.host)] = 1;
      }
      if (rec.delivery < 0) {
        out.verdict.Fail("interval sent no rekey message");
      } else {
        const TMesh::Result& r = srv->delivery(rec.delivery);
        const RekeyMessage& msg = srv->message(rec.delivery);
        CheckExactlyOnce(r, expected, "rekey", out.verdict);
        CheckConservation(r, "rekey", out.verdict);
        const std::uint32_t gv = srv->group_key_version();
        std::int64_t encs = 0;
        for (const Member& m : alive) {
          const auto h = static_cast<std::size_t>(m.host);
          Close(rings[h], msg, r.member_encs[h]);
          if (GroupKeyVersion(rings[h]) != gv) {
            out.verdict.Fail("member " + m.id.ToString() +
                             " cannot decrypt group key version " +
                             std::to_string(gv));
          }
          encs += r.member[h].encs_received;
          if (sampled) out.rekey_delay_ms.push_back(r.member[h].delay_ms);
        }
        const MessageIndex index(msg);
        for (Departed& d : departed) {
          index.Close(d.ring);
          if (GroupKeyVersion(d.ring) > d.group_version) {
            out.verdict.Fail("a departed member decrypts group key version " +
                             std::to_string(GroupKeyVersion(d.ring)));
          }
        }
        for (const auto& e : msg.encryptions) {
          digest.AddId(e.enc_key_id);
          digest.AddId(e.new_key_id);
          digest.Add(e.new_key_version);
          digest.Add(e.enc_key_version);
        }
        AddDelivery(digest, r);
        if (measured) {
          ++out.attempted;
          if (r.deliveries_failed > 0) ++out.failed;
          for (const auto& m : r.member) out.deliveries += m.copies;
        }
        if (sampled) {
          out.rekey_cost.push_back(static_cast<double>(msg.RekeyCost()));
          out.rekey_encs_per_member.push_back(
              static_cast<double>(encs) / static_cast<double>(alive.size()));
        }
      }
      for (auto& [handle, sender] : data) {
        const TMesh::Result& r = handle.result();
        std::vector<int> want = expected;
        want[static_cast<std::size_t>(sender)] = 0;
        CheckExactlyOnce(r, want, "data", out.verdict);
        CheckConservation(r, "data", out.verdict);
        AddDelivery(digest, r);
        if (measured) {
          ++out.attempted;
          if (r.deliveries_failed > 0) ++out.failed;
          for (const auto& m : r.member) out.deliveries += m.copies;
        }
        if (sampled) {
          for (const Member& m : alive) {
            if (m.host != sender) {
              out.data_delay_ms.push_back(
                  r.member[static_cast<std::size_t>(m.host)].delay_ms);
            }
          }
        }
      }
      data.clear();
    };

    // Set-up: the initial group and its first interval.
    srv->Start();
    for (int i = 0; i < spec.members; ++i) join();
    run_interval();
    if (epoch == 0) out.setup_s = Seconds(ProcessStart(), Clock::now());
    check_interval();

    // Measured phase: whole intervals of churn, tick, and drain.
    measured = true;
    const Directory::OpStats dir0 = srv->directory().op_stats();
    const std::uint64_t events0 = sim.stats().events_run;
    if (spans != nullptr) {
      if constexpr (!std::is_same_v<Server, KeyServer>) {
        srv->Trace(spans, &counts);
      }
      if (epoch == 0) mark.Take(spans);
      srv->mesh().SetMetrics(&reg);
    } else if (epoch == 0) {
      calib.emplace();
    }
    if (epoch == 0) start = Clock::now();
    for (int r = 0;
         r < spec.epoch_rounds && !Done(o, out.rounds, spec.sim_rounds, start);
         ++r) {
      calibrate();
      const double calib0 = calib.has_value() ? calib->spent_s() : 0.0;
      const auto r0 = Clock::now();
      {
        SpanScope round(spans, kRound);
        for (int k = 0; k < std::max(spec.joins, spec.leaves); ++k) {
          if (k < spec.joins) join();
          if (k < spec.leaves) leave();
        }
        const auto t0 = Clock::now();
        {
          SpanScope drain(spans, kTmeshDrain);
          run_interval();
        }
        const auto t1 = Clock::now();
        out.interval_ms.push_back(Ms(t0, t1));
        out.drain_s += Seconds(t0, t1);
        out.round_s.push_back(
            Seconds(r0, t1) -
            (calib.has_value() ? calib->spent_s() - calib0 : 0.0));
      }
      ++out.rounds;
      if (out.rounds == spec.rss_rounds) out.peak_rss_mb = PeakRssMib();
      check_interval();
    }
    if (spans != nullptr) {
      srv->mesh().FlushMetrics();
      srv->mesh().SetMetrics(nullptr);
      const Directory::OpStats& d1 = srv->directory().op_stats();
      dir_delta.holders_examined += d1.holders_examined - dir0.holders_examined;
      dir_delta.holders_updated += d1.holders_updated - dir0.holders_updated;
      dir_delta.candidates_probed +=
          d1.candidates_probed - dir0.candidates_probed;
      dir_delta.refill_calls += d1.refill_calls - dir0.refill_calls;
      events += static_cast<std::int64_t>(sim.stats().events_run - events0);
    }
    if (Done(o, out.rounds, spec.sim_rounds, start)) {
      for (const Member& m : alive) final_hosts.push_back(m.host);
      break;
    }
  }
  if (out.rounds < spec.rss_rounds) out.peak_rss_mb = PeakRssMib();
  if (calib.has_value()) out.Calibrated(*calib);

  if (spans != nullptr) {
    // The NICE baseline over the final group: the overlay the paper
    // compares T-mesh with, built in the same join order and delivering
    // one rekey from the key server (traced run only; after the rounds).
    NiceOverlay nice(*net, PaperSession().nice);
    {
      SpanScope span(spans, kNiceJoin);
      for (HostId h : final_hosts) nice.Join(h);
    }
    NiceOverlay::Delivery d;
    {
      SpanScope span(spans, kNiceDeliver);
      d = nice.RekeyFromServer(kServer);
    }
    std::vector<int> expected(static_cast<std::size_t>(net->host_count()), 0);
    for (HostId h : final_hosts) expected[static_cast<std::size_t>(h)] = 1;
    CheckExactlyOnce(d.copies, expected, "NICE baseline", out.verdict);
    ReportLayers(*spans, mark, counts, dir_delta, reg, events, digits, out);
  }
  out.digest = digest.value();
}

}  // namespace


Fig8Series Fig8ReplicaSeries(std::uint64_t seed, int replica,
                             Fig8Mode mode) {
  std::unique_ptr<GtItmNetwork> net = Fig8Network(seed, replica, nullptr);
  const std::uint64_t run_seed = Fig8RunSeed(seed, replica) * 7 + 13;
  if (mode == Fig8Mode::kExperiment) {
    tmesh::LatencyRunConfig cfg;
    cfg.users = kFig8Users;
    cfg.join_window_s = kFig8JoinWindowS;
    cfg.data_path = false;
    cfg.session = PaperSession();
    const tmesh::LatencyRunResult r =
        tmesh::RunLatencyExperiment(*net, cfg, run_seed);
    return {r.tmesh.delay_ms, r.tmesh.rdp,    r.tmesh.stress, r.nice.delay_ms,
            r.nice.rdp,       r.nice.stress, {}};
  }
  Spans spans;
  MetricsRegistry reg;
  LayerCounts counts;
  Directory::OpStats dir_stats;
  Fig8Out out;
  Fig8Replica(*net, run_seed, mode == Fig8Mode::kTraced ? &spans : nullptr,
              nullptr, &reg, &counts, &dir_stats, out);
  return SeriesOf(*net, out);
}

void RunFig8Gtitm(const RunOptions& o, Spans* spans, RunResult& out) {
  std::unique_ptr<GtItmNetwork> net = Fig8Network(o.seed, 0, spans);
  out.setup_s = Seconds(ProcessStart(), Clock::now());
  MetricsRegistry reg;
  LayerCounts counts;
  Directory::OpStats dir_stats;
  SpanMark mark;
  if (spans != nullptr) mark.Take(spans);
  std::optional<Calibrator> calib;
  if (spans == nullptr) calib.emplace();
  Digest digest;
  const auto start = Clock::now();
  for (int r = 0; !Done(o, r, kFig8SimRounds, start); ++r) {
    if (r > 0) net = Fig8Network(o.seed, r, spans);
    const GtItmNetwork& g = *net;
    const std::uint64_t run_seed = Fig8RunSeed(o.seed, r) * 7 + 13;
    Fig8Out rep;
    Calibrator* c = calib.has_value() ? &*calib : nullptr;
    const double calib0 = c != nullptr ? c->spent_s() : 0.0;
    const auto t0 = Clock::now();
    {
      SpanScope round(spans, kRound);
      Fig8Replica(g, run_seed, spans, c, &reg, &counts, &dir_stats, rep);
    }
    out.round_s.push_back(Seconds(t0, Clock::now()) -
                          (c != nullptr ? c->spent_s() - calib0 : 0.0));
    ++out.rounds;
    if (r == 0) out.peak_rss_mb = PeakRssMib();  // replicas are alike

    CheckFig8(g, rep, run_seed ^ 0x5bd1e995, out.verdict);
    out.attempted += kFig8Users + 2;  // the joins and two multicasts
    out.failed += kFig8Users - static_cast<std::int64_t>(rep.ids.size());
    out.join_ms.insert(out.join_ms.end(), rep.join_ms.begin(),
                       rep.join_ms.end());
    for (HostId h = 1; h <= kFig8Users && r < kFig8SimRounds; ++h) {
      out.rekey_delay_ms.push_back(
          rep.tmesh.member[static_cast<std::size_t>(h)].delay_ms);
    }
    for (const UserId& id : rep.ids) digest.AddId(id);
    AddDelivery(digest, rep.tmesh);
    for (std::size_t h = 0; h < rep.nice.copies.size(); ++h) {
      digest.Add(rep.nice.copies[h]);
      digest.Add(rep.nice.delay_ms[h]);
    }
  }
  out.digest = digest.value();
  if (calib.has_value()) out.Calibrated(*calib);
  if (spans != nullptr) {
    ReportLayers(*spans, mark, counts, dir_stats, reg,
                 CounterValue(reg, "sim.events_run"),
                 PaperSession().group.digits, out);
  }
}

void RunMcastPlanetlab(const RunOptions& o, Spans* spans, RunResult& out) {
  if (spans == nullptr) {
    KsRun<KeyServer>(kMcastPlanetlab, o, nullptr, out);
  } else {
    KsRun<LayerServer>(kMcastPlanetlab, o, spans, out);
  }
}

}  // namespace perfbench
