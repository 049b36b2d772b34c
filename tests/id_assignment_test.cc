#include "core/id_assignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "topology/planetlab.h"

namespace tmesh {
namespace {

IdAssignParams SmallParams(int d) {
  IdAssignParams p;
  p.collect_target = 4;
  p.thresholds_ms.assign(static_cast<std::size_t>(d - 1), 50.0);
  return p;
}

TEST(IdAssignment, FirstJoinGetsAllZeros) {
  PlanetLabParams np;
  np.hosts = 5;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 4, 2}, 0);
  IdAssigner assigner(dir, SmallParams(3), 1);
  auto id = assigner.AssignId(1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, (UserId{0, 0, 0}));
}

TEST(IdAssignment, ThresholdVectorMustMatchDepth) {
  PlanetLabParams np;
  np.hosts = 3;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{4, 4, 2}, 0);
  IdAssignParams p;
  p.thresholds_ms = {100.0};  // needs 3
  EXPECT_THROW(IdAssigner(dir, p, 1), std::logic_error);
}

TEST(IdAssignment, AssignedIdsAreUnique) {
  PlanetLabParams np;
  np.hosts = 60;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 8, 4}, 0);
  IdAssigner assigner(dir, SmallParams(3), 7);
  std::set<UserId> seen;
  for (HostId h = 1; h < 60; ++h) {
    auto id = assigner.AssignId(h);
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(seen.insert(*id).second) << "duplicate " << id->ToString();
    dir.AddMember(*id, h, h);
  }
  dir.CheckKConsistency();
}

TEST(IdAssignment, ExhaustsTinyIdSpaceGracefully) {
  PlanetLabParams np;
  np.hosts = 10;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{2, 2, 2}, 0);  // 4 possible IDs
  IdAssigner assigner(dir, SmallParams(2), 3);
  int assigned = 0;
  for (HostId h = 1; h < 10; ++h) {
    auto id = assigner.AssignId(h);
    if (!id.has_value()) break;
    dir.AddMember(*id, h, h);
    ++assigned;
  }
  EXPECT_EQ(assigned, 4);
  EXPECT_FALSE(assigner.AssignId(9).has_value());
}

TEST(IdAssignment, ProximityGroupsSameSiteUsers) {
  // With thresholds far above intra-site RTTs, users of one site should end
  // up sharing their first digits far more often than users of different
  // continents.
  PlanetLabParams np;
  np.hosts = 120;
  np.seed = 21;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{5, 256, 4}, 0);
  IdAssignParams p;
  p.collect_target = 10;
  p.thresholds_ms = {150.0, 30.0, 9.0, 3.0};  // the paper's defaults
  IdAssigner assigner(dir, p, 9);

  std::map<HostId, UserId> ids;
  for (HostId h = 1; h < 120; ++h) {
    auto id = assigner.AssignId(h);
    ASSERT_TRUE(id.has_value());
    dir.AddMember(*id, h, h);
    ids[h] = *id;
  }

  double same_site_cpl = 0, cross_continent_cpl = 0;
  int same_site_pairs = 0, cross_pairs = 0;
  for (HostId a = 1; a < 120; ++a) {
    for (HostId b = a + 1; b < 120; ++b) {
      int cpl = ids[a].CommonPrefixLen(ids[b]);
      if (net.site_of(a) == net.site_of(b)) {
        same_site_cpl += cpl;
        ++same_site_pairs;
      } else if (net.continent_of(a) != net.continent_of(b)) {
        cross_continent_cpl += cpl;
        ++cross_pairs;
      }
    }
  }
  ASSERT_GT(same_site_pairs, 0);
  ASSERT_GT(cross_pairs, 0);
  same_site_cpl /= same_site_pairs;
  cross_continent_cpl /= cross_pairs;
  // Same-site users share long prefixes; cross-continent users almost none.
  EXPECT_GT(same_site_cpl, 2.0);
  EXPECT_LT(cross_continent_cpl, 1.0);
}

TEST(IdAssignment, StatsCountProbes) {
  PlanetLabParams np;
  np.hosts = 40;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 16, 4}, 0);
  IdAssigner assigner(dir, SmallParams(3), 5);
  IdAssignStats stats;
  for (HostId h = 1; h < 40; ++h) {
    auto id = assigner.AssignId(h, &stats);
    ASSERT_TRUE(id.has_value());
    dir.AddMember(*id, h, h);
  }
  // The last joiner of a populated group must have probed someone.
  EXPECT_GT(stats.queries, 0);
  EXPECT_GT(stats.rtt_probes, 0);
}

TEST(IdAssignment, ServerTailWhenNobodyIsClose) {
  // Thresholds of 0 ms force the "not close to anyone" path: the server
  // assigns a fresh subtree at digit 0, so every user gets its own level-1
  // subtree until the digits run out.
  PlanetLabParams np;
  np.hosts = 12;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 16, 4}, 0);
  IdAssignParams p;
  p.collect_target = 4;
  p.thresholds_ms = {0.0, 0.0};
  IdAssigner assigner(dir, p, 5);
  std::set<int> first_digits;
  for (HostId h = 1; h < 12; ++h) {
    IdAssignStats stats;
    auto id = assigner.AssignId(h, &stats);
    ASSERT_TRUE(id.has_value());
    if (h > 1) {
      EXPECT_TRUE(stats.server_assigned_tail);
    }
    dir.AddMember(*id, h, h);
    first_digits.insert(id->digit(0));
  }
  EXPECT_EQ(first_digits.size(), 11u);
}

// Work-counter gate for step 1: a seeded build of a paper-shaped group
// (D=5, B=256, K=4, P=10) on PlanetLab under joins, leaves, crashes and
// repairs. The IDs, queries and RTT probes are pinned to the values of the
// earlier step-1 implementation, which copied every reply and looked up
// every record's liveness before checking its bucket; records_examined, the
// records the replies offer, is bounded per join.
TEST(IdAssignment, ChurnedGroupBuildWorkIsPinned) {
  PlanetLabParams np;
  np.hosts = 227;
  np.seed = 3;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{5, 256, 4}, 0);
  IdAssigner assigner(dir, IdAssignParams{}, 11);
  Rng churn(29);

  std::vector<HostId> free_hosts;
  for (HostId h = net.host_count() - 1; h >= 1; --h) free_hosts.push_back(h);
  std::vector<UserId> alive;
  std::vector<UserId> failed;
  auto pick = [&churn](std::vector<UserId>& from) {
    std::size_t i = static_cast<std::size_t>(
        churn.UniformInt(0, static_cast<std::int64_t>(from.size()) - 1));
    UserId id = from[i];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    return id;
  };

  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over the IDs
  std::int64_t joins = 0, queries = 0, rtt_probes = 0, examined = 0;
  int max_examined = 0;
  for (int step = 0; step < 600; ++step) {
    const double roll = churn.UniformReal(0.0, 1.0);
    if (!free_hosts.empty() && (alive.size() < 8 || roll < 0.6)) {
      const HostId h = free_hosts.back();
      free_hosts.pop_back();
      IdAssignStats st;
      auto id = assigner.AssignId(h, &st);
      ASSERT_TRUE(id.has_value());
      dir.AddMember(*id, h, step);
      alive.push_back(*id);
      for (int i = 0; i < id->size(); ++i) {
        digest = (digest ^ static_cast<std::uint64_t>(id->digit(i))) *
                 1099511628211ull;
      }
      ++joins;
      queries += st.queries;
      rtt_probes += st.rtt_probes;
      examined += st.records_examined;
      max_examined = std::max(max_examined, st.records_examined);
    } else if (roll < 0.8) {
      const UserId id = pick(alive);
      free_hosts.push_back(dir.HostOf(id));
      dir.RemoveMember(id);
    } else if (roll < 0.92) {
      const UserId id = pick(alive);
      dir.MarkFailed(id);
      failed.push_back(id);
    } else if (!failed.empty()) {
      const UserId id = pick(failed);
      free_hosts.push_back(dir.HostOf(id));
      dir.RepairFailure(id);
    }
  }

  EXPECT_EQ(joins, 357);
  EXPECT_EQ(digest, 15682939219797178884ull);
  EXPECT_EQ(queries, 17803);
  EXPECT_EQ(rtt_probes, 27934);
  // Measured: 727931 records in all (2039 per join, 41 per query), at most
  // 7187 in one join. The bounds leave ~3% headroom.
  EXPECT_LE(examined, 2100 * joins);
  EXPECT_LE(max_examined, 7400);
}

}  // namespace
}  // namespace tmesh
