#include "checks.h"

#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>

namespace perfbench {

using tmesh::Encryption;
using tmesh::KeyId;
using tmesh::RekeyMessage;

void Grant(KeyRing& ring, const KeyId& id, std::uint32_t version) {
  auto [it, inserted] = ring.emplace(id, version);
  if (!inserted && it->second < version) it->second = version;
}

void Close(KeyRing& ring, const RekeyMessage& msg,
           const std::vector<std::int32_t>& received) {
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::int32_t i : received) {
      const Encryption& e = msg.encryptions[static_cast<std::size_t>(i)];
      auto held = ring.find(e.enc_key_id);
      if (held == ring.end() || held->second != e.enc_key_version) continue;
      auto have = ring.find(e.new_key_id);
      if (have != ring.end() && have->second >= e.new_key_version) continue;
      Grant(ring, e.new_key_id, e.new_key_version);
      grew = true;
    }
  }
}

MessageIndex::MessageIndex(const RekeyMessage& msg) : msg_(msg) {
  for (std::size_t i = 0; i < msg.encryptions.size(); ++i) {
    by_key_[msg.encryptions[i].enc_key_id].push_back(
        static_cast<std::int32_t>(i));
  }
}

void MessageIndex::Close(KeyRing& ring) const {
  std::vector<KeyId> todo;
  for (const auto& [id, version] : ring) todo.push_back(id);
  while (!todo.empty()) {
    KeyId k = std::move(todo.back());
    todo.pop_back();
    auto hit = by_key_.find(k);
    if (hit == by_key_.end()) continue;
    for (std::int32_t i : hit->second) {
      const Encryption& e = msg_.encryptions[static_cast<std::size_t>(i)];
      if (ring.at(k) != e.enc_key_version) continue;
      auto have = ring.find(e.new_key_id);
      if (have != ring.end() && have->second >= e.new_key_version) continue;
      Grant(ring, e.new_key_id, e.new_key_version);
      todo.push_back(e.new_key_id);
    }
  }
}

std::uint32_t GroupKeyVersion(const KeyRing& ring) {
  auto it = ring.find(KeyId{});
  return it == ring.end() ? 0 : it->second;
}

void CheckUniqueIds(const std::vector<tmesh::UserId>& ids, int digits,
                    Verdict& v) {
  std::unordered_set<tmesh::UserId> seen;
  for (const tmesh::UserId& id : ids) {
    if (id.size() != digits) {
      v.Fail("id " + id.ToString() + " is not " + std::to_string(digits) +
             " digits long");
    }
    if (!seen.insert(id).second) v.Fail("id " + id.ToString() + " assigned twice");
  }
}

void CheckExactlyOnce(const std::vector<int>& copies,
                      const std::vector<int>& expected, const char* what,
                      Verdict& v) {
  if (copies.size() < expected.size()) {
    v.Fail(std::string(what) + ": delivery record covers too few hosts");
    return;
  }
  for (std::size_t h = 0; h < copies.size(); ++h) {
    const int want = h < expected.size() ? expected[h] : 0;
    if (copies[h] != want) {
      v.Fail(std::string(what) + ": host " + std::to_string(h) + " got " +
             std::to_string(copies[h]) + " copies, expected " +
             std::to_string(want));
    }
  }
}

void CheckExactlyOnce(const tmesh::TMesh::Result& r,
                      const std::vector<int>& expected, const char* what,
                      Verdict& v) {
  std::vector<int> copies(r.member.size());
  for (std::size_t h = 0; h < r.member.size(); ++h) {
    copies[h] = r.member[h].copies;
  }
  CheckExactlyOnce(copies, expected, what, v);
}

void CheckConservation(const tmesh::TMesh::Result& r, const char* what,
                       Verdict& v) {
  std::int64_t received = 0;
  for (const auto& m : r.member) received += m.copies;
  if (received + r.messages_lost != r.messages_sent) {
    v.Fail(std::string(what) + ": " + std::to_string(received) +
           " copies received + " + std::to_string(r.messages_lost) +
           " lost != " + std::to_string(r.messages_sent) + " sent");
  }
}

void CheckRdp(const std::vector<double>& delay_ms,
              const std::vector<double>& unicast_ms, const char* what,
              Verdict& v) {
  constexpr double kRoundingMs = 0.0005 * 8;  // half a microsecond per hop
  for (std::size_t i = 0; i < delay_ms.size(); ++i) {
    if (!(delay_ms[i] >= unicast_ms[i] - kRoundingMs)) {
      v.Fail(std::string(what) + ": delay " + std::to_string(delay_ms[i]) +
             " ms is under the unicast delay " +
             std::to_string(unicast_ms[i]) + " ms (RDP < 1) at member " +
             std::to_string(i));
    }
  }
}

std::vector<double> DijkstraMs(const LinkList& g, int source) {
  std::vector<std::vector<std::pair<int, double>>> adj(
      static_cast<std::size_t>(g.nodes));
  for (const LinkList::Link& l : g.links) {
    adj[static_cast<std::size_t>(l.a)].push_back({l.b, l.rtt_ms});
    adj[static_cast<std::size_t>(l.b)].push_back({l.a, l.rtt_ms});
  }
  std::vector<double> dist(static_cast<std::size_t>(g.nodes),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[static_cast<std::size_t>(source)] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (auto [w, len] : adj[static_cast<std::size_t>(u)]) {
      if (d + len < dist[static_cast<std::size_t>(w)]) {
        dist[static_cast<std::size_t>(w)] = d + len;
        pq.push({d + len, w});
      }
    }
  }
  return dist;
}

void CheckRtts(const LinkList& g, const std::vector<int>& attach,
               const std::function<double(int, int)>& rtt,
               const std::vector<std::pair<int, int>>& pairs, Verdict& v) {
  int source = -1;
  std::vector<double> dist;
  for (const auto& [a, b] : pairs) {
    if (a != source) {
      source = a;
      dist = DijkstraMs(g, attach[static_cast<std::size_t>(a)]);
    }
    const double want =
        a == b ? 0.0 : dist[static_cast<std::size_t>(attach[
                           static_cast<std::size_t>(b)])];
    const double got = rtt(a, b);
    if (!(std::abs(got - want) <= 1e-3 + 1e-5 * want)) {
      v.Fail("RTT between hosts " + std::to_string(a) + " and " +
             std::to_string(b) + " is " + std::to_string(got) +
             " ms; the shortest path is " + std::to_string(want) + " ms");
    }
  }
}

}  // namespace perfbench
