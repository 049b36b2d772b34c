// The benchmark's self-test: every correctness check passes on the
// program's real outputs and fails on a deliberately corrupted copy; the
// fig8_gtitm replica reproduces RunLatencyExperiment's series; and on every
// workload the traced run reproduces the untraced run's IDs, rekey
// messages, and delivery records (equal output digests).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/key_server.h"
#include "perfbench.h"
#include "protocols/latency_figure.h"
#include "sim/simulator.h"
#include "topology/gtitm.h"
#include "topology/synthetic_wan.h"
#include "transport/sim_transport.h"

namespace perfbench {

using tmesh::HostId;
using tmesh::KeyId;
using tmesh::KeyServer;
using tmesh::RekeyMessage;
using tmesh::TMesh;
using tmesh::UserId;

namespace {

int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

// A check run on good data must pass, on corrupted data must fail.
void ExpectCatches(const Verdict& good, const Verdict& bad,
                   const std::string& what) {
  Expect(good.ok(), what + ": passes on the real output" +
                        (good.ok() ? "" : " (" + good.first() + ")"));
  Expect(!bad.ok(), what + ": fails on the corrupted output");
}

// A small online group: 48 members on a synthetic WAN, then one interval
// with 4 joins and 4 leaves. Keeps what the key and delivery checks need.
struct SmallGroup {
  std::unique_ptr<tmesh::SyntheticWanNetwork> net;
  tmesh::Simulator sim;
  std::unique_ptr<tmesh::SimTransport> transport;
  std::unique_ptr<KeyServer> ks;
  std::vector<std::pair<UserId, HostId>> alive;
  std::vector<KeyRing> rings;  // by host, after the first interval
  KeyRing departed_ring;       // one departed member's keys at departure
  std::uint32_t departed_version = 0;
  UserId departed_id;
};

void BuildSmallGroup(SmallGroup& g) {
  tmesh::SyntheticWanParams p;
  p.seed = 5;
  p.hosts = 97;
  g.net = std::make_unique<tmesh::SyntheticWanNetwork>(p);
  g.transport = std::make_unique<tmesh::SimTransport>(g.sim, 0);
  KeyServer::Config cfg;
  cfg.net = g.net.get();
  cfg.record_encryptions = true;
  cfg.split = true;
  cfg.seed = 9;
  g.ks = std::make_unique<KeyServer>(*g.transport, cfg);
  g.rings.resize(static_cast<std::size_t>(p.hosts));
  auto join = [&](HostId h) {
    auto id = g.ks->RequestJoin(h);
    TMESH_CHECK(id.has_value());
    for (const KeyId& k : g.ks->key_tree().KeysOf(*id)) {
      Grant(g.rings[static_cast<std::size_t>(h)], k,
            g.ks->key_tree().KeyVersion(k));
    }
    g.alive.push_back({*id, h});
  };
  g.ks->Start();
  for (HostId h = 1; h <= 48; ++h) join(h);
  g.sim.RunUntil(cfg.rekey_interval * 2 - 1);
  {
    const auto& rec = g.ks->history().back();
    const TMesh::Result& r = g.ks->delivery(rec.delivery);
    for (const auto& [id, h] : g.alive) {
      Close(g.rings[static_cast<std::size_t>(h)], g.ks->message(rec.delivery),
            r.member_encs[static_cast<std::size_t>(h)]);
    }
  }
  for (int k = 0; k < 4; ++k) {
    join(60 + k);
    const auto [id, h] = g.alive[static_cast<std::size_t>(3 * k + 1)];
    if (k == 0) {
      g.departed_ring = g.rings[static_cast<std::size_t>(h)];
      g.departed_version = GroupKeyVersion(g.departed_ring);
      g.departed_id = id;
    }
    g.ks->RequestLeave(id);
    g.alive.erase(g.alive.begin() + 3 * k + 1);
  }
  g.sim.RunUntil(cfg.rekey_interval * 3 - 1);
}

void TestKeyChecks(SmallGroup& g) {
  const auto& rec = g.ks->history().back();
  const TMesh::Result& r = g.ks->delivery(rec.delivery);
  const RekeyMessage& msg = g.ks->message(rec.delivery);
  const std::uint32_t gv = g.ks->group_key_version();

  // Decryption closure over the received encryptions.
  Verdict good, bad;
  for (const auto& [id, h] : g.alive) {
    KeyRing ring = g.rings[static_cast<std::size_t>(h)];
    Close(ring, msg, r.member_encs[static_cast<std::size_t>(h)]);
    if (GroupKeyVersion(ring) != gv) good.Fail("closure " + id.ToString());
  }
  {
    // Drop the one received encryption that carries the group key.
    const auto& [id, h] = g.alive.front();
    std::vector<std::int32_t> got = r.member_encs[static_cast<std::size_t>(h)];
    std::vector<std::int32_t> dropped;
    bool removed = false;
    for (std::int32_t i : got) {
      const auto& e = msg.encryptions[static_cast<std::size_t>(i)];
      if (!removed && e.new_key_id.size() == 0 && e.enc_key_id.IsPrefixOf(id)) {
        removed = true;
        continue;
      }
      dropped.push_back(i);
    }
    Expect(removed, "closure: the member received the group-key encryption");
    KeyRing ring = g.rings[static_cast<std::size_t>(h)];
    Close(ring, msg, dropped);
    if (GroupKeyVersion(ring) != gv) bad.Fail("closure after a drop");
  }
  ExpectCatches(good, bad, "decryption closure, one encryption dropped");

  // Forward secrecy: the departed member's keys against the later message,
  // and against the same message with one encryption of the new group key
  // under the departed member's own leaf key added.
  Verdict fs_good, fs_bad;
  {
    KeyRing ring = g.departed_ring;
    MessageIndex(msg).Close(ring);
    if (GroupKeyVersion(ring) > g.departed_version) fs_good.Fail("fs");
    RekeyMessage leaky = msg;
    tmesh::Encryption e;
    e.enc_key_id = g.departed_id;
    e.enc_key_version = g.departed_ring.at(g.departed_id);
    e.new_key_id = KeyId{};
    e.new_key_version = gv;
    leaky.encryptions.push_back(e);
    KeyRing ring2 = g.departed_ring;
    MessageIndex(leaky).Close(ring2);
    if (GroupKeyVersion(ring2) > g.departed_version) fs_bad.Fail("fs");
  }
  ExpectCatches(fs_good, fs_bad, "forward secrecy, leaking encryption added");

  // Exactly once and conservation on the real delivery record.
  std::vector<int> expected(static_cast<std::size_t>(g.net->host_count()), 0);
  for (const auto& [id, h] : g.alive) expected[static_cast<std::size_t>(h)] = 1;
  Verdict once_good, once_dup, once_miss;
  CheckExactlyOnce(r, expected, "rekey", once_good);
  TMesh::Result dup = r;
  ++dup.member[static_cast<std::size_t>(g.alive.front().second)].copies;
  CheckExactlyOnce(dup, expected, "rekey", once_dup);
  TMesh::Result miss = r;
  miss.member[static_cast<std::size_t>(g.alive.back().second)].copies = 0;
  CheckExactlyOnce(miss, expected, "rekey", once_miss);
  ExpectCatches(once_good, once_dup, "exactly once, one delivery duplicated");
  ExpectCatches(once_good, once_miss, "exactly once, one delivery missing");

  Verdict cons_good, cons_bad;
  CheckConservation(r, "rekey", cons_good);
  CheckConservation(dup, "rekey", cons_bad);
  ExpectCatches(cons_good, cons_bad, "conservation, one copy duplicated");

  // Unique, full-length IDs.
  std::vector<UserId> ids;
  for (const auto& [id, h] : g.alive) ids.push_back(id);
  Verdict id_good, id_dup, id_short;
  CheckUniqueIds(ids, 5, id_good);
  std::vector<UserId> twice = ids;
  twice.push_back(ids.front());
  CheckUniqueIds(twice, 5, id_dup);
  std::vector<UserId> cut = ids;
  cut.back() = cut.back().Prefix(4);
  CheckUniqueIds(cut, 5, id_short);
  ExpectCatches(id_good, id_dup, "unique ids, one id repeated");
  ExpectCatches(id_good, id_short, "unique ids, one id truncated");
}

void TestRtts() {
  auto net_box = tmesh::MakeFigureNetwork(tmesh::FigureTopology::kGtItm, 65, 3);
  const auto& net = dynamic_cast<const tmesh::GtItmNetwork&>(*net_box);
  LinkList g;
  g.nodes = net.router_count();
  for (tmesh::LinkId l = 0; l < net.graph().link_count(); ++l) {
    const auto& link = net.graph().link(l);
    g.links.push_back({link.a, link.b, link.rtt_ms});
  }
  std::vector<int> attach;
  for (HostId h = 0; h < net.host_count(); ++h) {
    attach.push_back(net.attach_router(h));
  }
  std::vector<std::pair<int, int>> pairs;
  for (int b = 0; b < net.host_count(); ++b) pairs.push_back({7, b});
  auto rtt = [&](int a, int b) { return net.RttHosts(a, b); };
  Verdict good, bad;
  CheckRtts(g, attach, rtt, pairs, good);

  // Shorten one link on a shortest path from host 7's router to host 40's:
  // the last link into the target whose endpoints' distances differ by
  // exactly its length.
  const int src = attach[7], dst = attach[40];
  const std::vector<double> dist = DijkstraMs(g, src);
  LinkList perturbed = g;
  bool found = false;
  for (auto& l : perturbed.links) {
    for (int flip = 0; flip < 2 && !found; ++flip) {
      const int u = flip == 0 ? l.a : l.b, w = flip == 0 ? l.b : l.a;
      if (w == dst &&
          std::abs(dist[static_cast<std::size_t>(u)] + l.rtt_ms -
                   dist[static_cast<std::size_t>(w)]) < 1e-9) {
        l.rtt_ms *= 0.5;
        found = true;
      }
    }
    if (found) break;
  }
  Expect(found, "rtt: found a link on the shortest path");
  CheckRtts(perturbed, attach, rtt, pairs, bad);
  ExpectCatches(good, bad, "RTTs by Dijkstra, one link RTT perturbed");
}

void TestRdp(const Fig8Series& s) {
  Verdict good, bad;
  CheckRdp(s.tmesh_delay, s.unicast_ms, "T-mesh", good);
  CheckRdp(s.nice_delay, s.unicast_ms, "NICE", good);
  std::vector<double> low = s.tmesh_delay;
  low[low.size() / 2] = 0.97 * s.unicast_ms[low.size() / 2];
  CheckRdp(low, s.unicast_ms, "T-mesh", bad);
  ExpectCatches(good, bad, "RDP >= 1, one member's RDP lowered");
}

bool SameSeries(const Fig8Series& a, const Fig8Series& b) {
  return a.tmesh_delay == b.tmesh_delay && a.tmesh_rdp == b.tmesh_rdp &&
         a.tmesh_stress == b.tmesh_stress && a.nice_delay == b.nice_delay &&
         a.nice_rdp == b.nice_rdp && a.nice_stress == b.nice_stress;
}

void TestTracedMatchesUntraced(const char* name,
                               void (*run)(const RunOptions&, Spans*,
                                           RunResult&),
                               int rounds) {
  RunOptions o;
  o.workload = name;
  o.seed = 4;
  o.rounds = rounds;
  RunResult plain, traced;
  Spans spans;
  run(o, nullptr, plain);
  run(o, &spans, traced);
  Expect(plain.verdict.ok() && traced.verdict.ok(),
         std::string(name) + ": every check passes in both modes" +
             (plain.verdict.ok() ? "" : " (" + plain.verdict.first() + ")") +
             (traced.verdict.ok() ? "" : " (" + traced.verdict.first() + ")"));
  Expect(plain.digest == traced.digest && plain.digest != 0,
         std::string(name) +
             ": traced run reproduces the untraced IDs, messages and "
             "deliveries");
  Expect(plain.attempted == traced.attempted && plain.failed == 0,
         std::string(name) + ": same operations, none failed");
  Expect(spans.size() > 0 && traced.layer.size() > 20,
         std::string(name) + ": traced run recorded spans and layer metrics");
}

}  // namespace

int SelfTest() {
  SmallGroup g;
  BuildSmallGroup(g);
  TestKeyChecks(g);
  TestRtts();

  const std::uint64_t seed = 2;
  const Fig8Series mine = Fig8ReplicaSeries(seed, 0, Fig8Mode::kUntraced);
  const Fig8Series layered = Fig8ReplicaSeries(seed, 0, Fig8Mode::kTraced);
  const Fig8Series theirs = Fig8ReplicaSeries(seed, 0, Fig8Mode::kExperiment);
  Expect(SameSeries(mine, theirs),
         "fig8_gtitm replica equals RunLatencyExperiment's series");
  Expect(SameSeries(layered, theirs),
         "fig8_gtitm traced replica equals RunLatencyExperiment's series");
  TestRdp(mine);

  TestTracedMatchesUntraced("fig8_gtitm", RunFig8Gtitm, 1);
  // 70 rounds: past the first epoch, so the group is rebuilt once.
  TestTracedMatchesUntraced("mcast_planetlab", RunMcastPlanetlab, 70);

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
