#pragma once
// Correctness checks that do not trust the program's own verdicts: each
// recomputes a result from independent inputs (packet sizes, power
// bounds, positions, a second execution) and compares. They are pure
// functions so the self-test can feed each one a perturbed input and
// show it fails.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mac/mac_factory.hpp"
#include "phy/energy.hpp"
#include "stats/invariant_auditor.hpp"
#include "stats/metrics.hpp"

namespace aquamac::perf {

/// bits_delivered == packets_delivered * packet_bits (fixed-size payloads).
[[nodiscard]] bool bits_match_packets(const RunStats& stats, std::uint32_t packet_bits);

/// throughput_kbps recomputed from bits_delivered / traffic_duration_s.
[[nodiscard]] bool throughput_matches_bits(const RunStats& stats);

/// Delivered packets and bits never exceed offered ones.
[[nodiscard]] bool delivered_within_offered(const RunStats& stats);

/// N * idle_w * elapsed <= total energy <= N * tx_w * elapsed.
[[nodiscard]] bool energy_within_power_bounds(const RunStats& stats, const PowerProfile& power);

/// Paper Fig. 6 at one load: EW-MAC's mean throughput above ROPA's and
/// above S-FAMA's.
[[nodiscard]] bool fig6_ordering_holds(const std::map<MacKind, double>& mean_throughput);

/// An audit that ran some checks and recorded no violation other than of
/// the §4 extra-overlap theorem. On seed-derived inputs extra overlaps are
/// counted and reported (extra_overlaps), not gated: ROPA and CS-MAC steal
/// the channel without claiming the theorem, and EW-MAC breaks it on some
/// seeds only. The theorem binds EW-MAC on a fixed input instead
/// (workloads.cpp, kOverlapCaseSeed).
[[nodiscard]] bool auditor_clean(const InvariantAuditor& auditor);
[[nodiscard]] std::size_t extra_overlaps(const InvariantAuditor& auditor);

/// Two runs' full RunStats (as stats_json) are byte-identical.
[[nodiscard]] bool same_stats(const std::string& a, const std::string& b);

/// Sorted receiver ids reported by the channel equal the brute-force
/// scan's, and every reached receiver lies within the cutoff radius.
[[nodiscard]] bool receivers_match(const std::vector<std::uint32_t>& reported,
                                   const std::vector<std::uint32_t>& brute_force,
                                   double farthest_reach_m, double cutoff_m);

/// One end-to-end packet: its origin node and e2e id.
struct PacketId {
  std::uint32_t origin;
  std::uint64_t id;
  auto operator<=>(const PacketId&) const = default;
};

struct SinkArrival {
  std::uint32_t sink;
  PacketId packet;
  auto operator<=>(const SinkArrival&) const = default;
};

struct DeadLetter {
  PacketId packet;
  std::int64_t reason;  ///< kRelayDeadLetter's b: 0 exhausted, 1 overflow, 2 no-route, 3 duplicate
};

/// The multi-hop packet ledger, read from the trace (kRelayOriginate,
/// kRelayArrive, kRelayDeadLetter).
struct E2eLedger {
  std::vector<PacketId> originated;
  std::vector<SinkArrival> arrivals;
  std::vector<DeadLetter> dead_letters;
};

/// Conservation between RunStats' end-to-end counters and the trace
/// ledger, event for event: each packet is originated once and
/// e2e_originated agrees; e2e_arrived_at_sink equals the sink arrivals;
/// each dead-letter counter equals the dead letters of its reason; and
/// every arrival and dead letter names an originated packet. The drop
/// counters (no-route, hop-limit, MAC) have no trace event, so they are
/// not covered.
[[nodiscard]] bool e2e_conserved(const E2eLedger& ledger, const RunStats& stats);

/// No packet absorbed twice by the same sink.
[[nodiscard]] bool no_duplicate_arrivals(std::vector<SinkArrival> arrivals);

/// Feeds every check above a healthy and a perturbed input built from
/// `sample` (a real run's stats); returns the names of checks that
/// accepted the perturbed input or rejected the healthy one.
[[nodiscard]] std::vector<std::string> self_test(const RunStats& sample,
                                                 const PowerProfile& power,
                                                 std::uint32_t packet_bits);

}  // namespace aquamac::perf
