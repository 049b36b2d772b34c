// The distributed user-ID assignment protocol (§3.1).
//
// A joining user determines its ID digit by digit. For digit i it
//   (1) collects up to P user records per (i,j)-ID subtree by querying users
//       it already knows (each query returns the neighbors of the queried
//       user's table matching the target prefix);
//   (2) measures gateway-router RTTs r(u,w) to the collected users;
//   (3) computes, per subtree j, the F-percentile f_{i,j} of those RTTs and
//       compares the minimum against the delay threshold R_{i+1}: at or
//       under the threshold it adopts that digit and recurses one level
//       deeper; over the threshold it asks the key server for a fresh
//       subtree (digits i..D-1);
//   (4) finally asks the key server for the last digit, which the server
//       picks to keep IDs unique (with the footnote-3 fallback when the
//       level-(D-1) subtree is full).
//
// The paper's defaults: P = 10, F = 90-percentile, R = (150, 30, 9, 3) ms
// for D = 5. Probing cost is O(P·D·N^{1/D}) messages on average (§3.1.4) —
// the stats struct counts queries and RTT probes so the bench can verify.
#pragma once

#include <optional>

#include "common/rng.h"
#include "core/directory.h"
#include "topology/gnp.h"

namespace tmesh {

struct IdAssignParams {
  int collect_target = 10;     // P
  double percentile = 90.0;    // F
  // R_1 .. R_{D-1} in ms; must have exactly D-1 entries.
  std::vector<double> thresholds_ms = {150.0, 30.0, 9.0, 3.0};
  // Optional GNP model (§5): when set, gateway RTTs are *estimated* from
  // coordinates instead of probed — zero probe traffic, at the price of the
  // embedding's estimation error.
  const GnpModel* gnp = nullptr;
};

struct IdAssignStats {
  int queries = 0;      // user-to-user record queries (step 1)
  int records_examined = 0;  // records offered to step 1's admission check
  int rtt_probes = 0;   // gateway RTT measurements (step 2)
  int digits_self_determined = 0;  // digits chosen by proximity (step 3)
  bool server_assigned_tail = false;  // fell through to the key server early
};

class IdAssigner {
 public:
  // `seed` drives the random first contact and the server's random choice
  // among unused digits.
  IdAssigner(Directory& directory, IdAssignParams params, std::uint64_t seed);

  // Determines an ID for a user at `joiner` (not yet a member). Returns
  // nullopt only if the ID space is exhausted. Does NOT add the member to
  // the directory — callers decide when the join completes.
  std::optional<UserId> AssignId(HostId joiner, IdAssignStats* stats = nullptr);

  // §5's GNP variant: "if the key server knows the GNP coordinates of all
  // the users, it can determine the ID for a joining user by centralized
  // computing." The oracle equivalent: the server applies the same
  // F-percentile/threshold rule over *all* members of each subtree — no
  // queries, no sampling error, no probe traffic from the joiner.
  std::optional<UserId> AssignIdCentralized(HostId joiner,
                                            IdAssignStats* stats = nullptr);

 private:
  // Key-server assignment of digits [from_pos, D-1] under `prefix`
  // (prefix.size() == from_pos): prefers an unused digit (fresh subtree,
  // rest zeros); when every digit is occupied, descends into the least
  // populated subtree; backtracks across siblings on dead ends.
  std::optional<UserId> ServerAssignTail(const DigitString& prefix,
                                         int from_pos);
  // Footnote 3: make the whole ID unique when the target level-(D-1)
  // subtree is full, by re-choosing ever earlier digits.
  std::optional<UserId> ServerAssignLastDigit(const DigitString& prefix);
  // Gateway RTT: probed from the network, or estimated from GNP
  // coordinates when a model is configured.
  double GatewayRtt(HostId a, HostId b) const;

  Directory& dir_;
  IdAssignParams params_;
  Rng rng_;
};

}  // namespace tmesh
