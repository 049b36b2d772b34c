// Correctness checks the benchmark runs on every run. Each check is
// computed from the program's outputs by code of its own (key closure,
// delivery accounting, Dijkstra), not by asking the program to check
// itself, and reports the first violation it finds. selftest.cc shows that
// every check fails on a deliberately corrupted input.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/tmesh.h"
#include "keytree/rekey_types.h"
#include "topology/network.h"

namespace perfbench {

// Collects failures; keeps the first message and a count.
class Verdict {
 public:
  void Fail(const std::string& what) {
    if (failures_ == 0) first_ = what;
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }
  int failures() const { return failures_; }
  const std::string& first() const { return first_; }

 private:
  int failures_ = 0;
  std::string first_;
};

// The keys a member holds: key ID -> newest version held.
using KeyRing = std::unordered_map<tmesh::KeyId, std::uint32_t>;

// Adds `id` at `version` unless a newer version is already held.
void Grant(KeyRing& ring, const tmesh::KeyId& id, std::uint32_t version);

// Extends `ring` to its closure over the encryptions of `msg` a member
// received (`received` indexes msg.encryptions): an encryption {k'}_k is
// decryptable iff the ring holds k at exactly the encrypting version.
// Iterates to a fixed point, so the message order does not matter.
void Close(KeyRing& ring, const tmesh::RekeyMessage& msg,
           const std::vector<std::int32_t>& received);

// A rekey message's encryptions grouped by encrypting key ID, so the
// closure of a small ring over a large message touches only the
// encryptions the ring can open.
class MessageIndex {
 public:
  explicit MessageIndex(const tmesh::RekeyMessage& msg);
  // Extends `ring` to its closure over the whole message.
  void Close(KeyRing& ring) const;

 private:
  const tmesh::RekeyMessage& msg_;
  std::unordered_map<tmesh::KeyId, std::vector<std::int32_t>> by_key_;
};

// The group key (the empty key ID) version in `ring`, 0 if absent.
std::uint32_t GroupKeyVersion(const KeyRing& ring);

// Every ID is distinct and exactly `digits` long.
void CheckUniqueIds(const std::vector<tmesh::UserId>& ids, int digits,
                    Verdict& v);

// `expected[h]` copies at each host h (1 for every recipient, 0 elsewhere):
// Theorem 1's exactly-once delivery.
void CheckExactlyOnce(const tmesh::TMesh::Result& r,
                      const std::vector<int>& expected, const char* what,
                      Verdict& v);

// Same, for a delivery given as per-host copy counts (the NICE baseline).
void CheckExactlyOnce(const std::vector<int>& copies,
                      const std::vector<int>& expected, const char* what,
                      Verdict& v);

// Copies received plus transmissions lost equals transmissions sent.
void CheckConservation(const tmesh::TMesh::Result& r, const char* what,
                       Verdict& v);

// Every recipient's relative delay penalty is at least 1: its delay is no
// shorter than the one-way unicast delay from the sender — true whenever
// RTTs form a shortest-path metric, as on GT-ITM. The simulator rounds each
// hop to a whole microsecond, so a delay may read up to half a microsecond
// per hop under the unicast delay.
void CheckRdp(const std::vector<double>& delay_ms,
              const std::vector<double>& unicast_ms, const char* what,
              Verdict& v);

// The benchmark's own shortest paths over a router graph given as a link
// list, to compare with the topology's RTTs.
struct LinkList {
  int nodes = 0;
  struct Link {
    int a, b;
    double rtt_ms;
  };
  std::vector<Link> links;
};
std::vector<double> DijkstraMs(const LinkList& g, int source);

// For each (a, b) host pair, `rtt(a, b)` must equal the shortest path in
// `g` between the hosts' routers (`attach[h]`), up to the topology's
// single-precision path sums.
void CheckRtts(const LinkList& g, const std::vector<int>& attach,
               const std::function<double(int, int)>& rtt,
               const std::vector<std::pair<int, int>>& pairs, Verdict& v);

}  // namespace perfbench
