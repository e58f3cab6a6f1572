#include "checks.hpp"

#include "perf.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

namespace aquamac::perf {

namespace {

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

bool bits_match_packets(const RunStats& stats, std::uint32_t packet_bits) {
  return stats.bits_delivered == stats.packets_delivered * packet_bits &&
         stats.bits_offered == stats.packets_offered * packet_bits;
}

bool throughput_matches_bits(const RunStats& stats) {
  if (stats.traffic_duration_s <= 0.0) return false;
  const double kbps = static_cast<double>(stats.bits_delivered) / stats.traffic_duration_s / 1e3;
  return close(stats.throughput_kbps, kbps);
}

bool delivered_within_offered(const RunStats& stats) {
  return stats.packets_delivered <= stats.packets_offered &&
         stats.bits_delivered <= stats.bits_offered;
}

bool energy_within_power_bounds(const RunStats& stats, const PowerProfile& power) {
  const double node_seconds = static_cast<double>(stats.node_count) * stats.elapsed_s;
  const double low = node_seconds * power.idle_w;
  const double high = node_seconds * power.tx_w;
  return stats.elapsed_s > 0.0 && stats.total_energy_j >= low * (1.0 - 1e-9) &&
         stats.total_energy_j <= high * (1.0 + 1e-9);
}

bool fig6_ordering_holds(const std::map<MacKind, double>& mean_throughput) {
  const auto at = [&mean_throughput](MacKind kind) {
    const auto it = mean_throughput.find(kind);
    return it == mean_throughput.end() ? std::nan("") : it->second;
  };
  const double ew = at(MacKind::kEwMac);
  return ew > at(MacKind::kRopa) && ew > at(MacKind::kSFama);
}

bool auditor_clean(const InvariantAuditor& auditor) {
  return auditor.checks() > 0 && extra_overlaps(auditor) == auditor.violations().size();
}

std::size_t extra_overlaps(const InvariantAuditor& auditor) {
  return static_cast<std::size_t>(
      std::count_if(auditor.violations().begin(), auditor.violations().end(),
                    [](const InvariantAuditor::Violation& v) {
                      return v.kind == InvariantKind::kExtraOverlap;
                    }));
}

bool same_stats(const std::string& a, const std::string& b) { return !a.empty() && a == b; }

bool receivers_match(const std::vector<std::uint32_t>& reported,
                     const std::vector<std::uint32_t>& brute_force, double farthest_reach_m,
                     double cutoff_m) {
  return reported == brute_force && farthest_reach_m <= cutoff_m;
}

bool e2e_conserved(const E2eLedger& ledger, const RunStats& stats) {
  const std::set<PacketId> originated(ledger.originated.begin(), ledger.originated.end());
  if (originated.empty() || originated.size() != ledger.originated.size() ||
      originated.size() != stats.e2e_originated ||
      ledger.arrivals.size() != stats.e2e_arrived_at_sink) {
    return false;
  }
  for (const SinkArrival& arrival : ledger.arrivals) {
    if (!originated.contains(arrival.packet)) return false;
  }
  std::array<std::uint64_t, 4> by_reason{};
  for (const DeadLetter& letter : ledger.dead_letters) {
    if (!originated.contains(letter.packet) || letter.reason < 0 || letter.reason > 3) {
      return false;
    }
    ++by_reason[static_cast<std::size_t>(letter.reason)];
  }
  return by_reason[0] == stats.e2e_dead_letter_exhausted &&
         by_reason[1] == stats.e2e_dead_letter_overflow &&
         by_reason[2] == stats.e2e_dead_letter_no_route;
}

bool no_duplicate_arrivals(std::vector<SinkArrival> arrivals) {
  std::sort(arrivals.begin(), arrivals.end());
  return std::adjacent_find(arrivals.begin(), arrivals.end()) == arrivals.end();
}

std::vector<std::string> self_test(const RunStats& sample, const PowerProfile& power,
                                   std::uint32_t packet_bits) {
  std::vector<std::string> broken;
  // Each entry: the check on the healthy input must hold, on the
  // perturbed input it must not.
  const auto expect = [&broken](const std::string& name, bool healthy, bool perturbed) {
    if (!healthy || perturbed) broken.push_back(name);
  };

  RunStats bad = sample;
  bad.bits_delivered += 1;
  expect("bits_match_packets", bits_match_packets(sample, packet_bits),
         bits_match_packets(bad, packet_bits));

  bad = sample;
  bad.throughput_kbps *= 1.001;
  expect("throughput_matches_bits", throughput_matches_bits(sample),
         throughput_matches_bits(bad));

  bad = sample;
  bad.packets_delivered = bad.packets_offered + 1;
  expect("delivered_within_offered", delivered_within_offered(sample),
         delivered_within_offered(bad));

  bad = sample;
  bad.total_energy_j = static_cast<double>(bad.node_count) * bad.elapsed_s * power.tx_w * 1.01;
  RunStats idle = sample;
  idle.total_energy_j =
      static_cast<double>(idle.node_count) * idle.elapsed_s * power.idle_w * 0.99;
  expect("energy_within_power_bounds", energy_within_power_bounds(sample, power),
         energy_within_power_bounds(bad, power) || energy_within_power_bounds(idle, power));

  const std::map<MacKind, double> paper{
      {MacKind::kEwMac, 0.9}, {MacKind::kRopa, 0.7}, {MacKind::kSFama, 0.5}};
  std::map<MacKind, double> swapped = paper;
  swapped[MacKind::kRopa] = 0.95;
  expect("fig6_ordering_holds", fig6_ordering_holds(paper), fig6_ordering_holds(swapped));

  // An off-slot RTS in a whole-second slot grid (§4.1).
  InvariantAuditor::Config config{};
  config.slotted = true;
  config.omega = Duration::milliseconds(100);
  config.tau_max = Duration::milliseconds(900);
  config.slot_length = config.omega + config.tau_max;
  InvariantAuditor healthy_auditor{config};
  InvariantAuditor bad_auditor{config};
  TraceEvent rts{};
  rts.kind = TraceEventKind::kTxStart;
  rts.frame_type = FrameType::kRts;
  rts.node = rts.src = 1;
  rts.dst = 2;
  rts.seq = 5;
  rts.at = rts.window_begin = Time::from_seconds(2.0);
  rts.window_end = rts.at + Duration::milliseconds(5);
  healthy_auditor.record(rts);
  rts.at = rts.window_begin = Time::from_seconds(3.25);
  rts.window_end = rts.at + Duration::milliseconds(5);
  bad_auditor.record(rts);
  expect("auditor_clean", auditor_clean(healthy_auditor), auditor_clean(bad_auditor));

  const std::string json = stats_json(sample);
  expect("same_stats", same_stats(json, json), same_stats(json, stats_json(bad)));

  const std::vector<std::uint32_t> reached{3, 8, 13};
  expect("receivers_match", receivers_match(reached, reached, 1400.0, 1500.0),
         receivers_match(reached, {3, 13}, 1400.0, 1500.0) ||
             receivers_match(reached, reached, 1600.0, 1500.0));

  E2eLedger ledger;
  ledger.originated = {{4, 1}, {4, 2}, {5, 1}};
  ledger.arrivals = {{0, {4, 1}}, {1, {4, 1}}, {0, {5, 1}}};
  ledger.dead_letters = {{{4, 2}, 0}, {{5, 1}, 3}};
  RunStats counted{};
  counted.e2e_originated = 3;
  counted.e2e_arrived_at_sink = 3;
  counted.e2e_dead_letter_exhausted = 1;
  E2eLedger phantom = ledger;
  phantom.arrivals.back() = {0, {6, 1}};
  RunStats more_arrived = counted;
  more_arrived.e2e_arrived_at_sink += 1;
  RunStats wrong_reason = counted;
  wrong_reason.e2e_dead_letter_exhausted = 0;
  wrong_reason.e2e_dead_letter_overflow = 1;
  expect("e2e_conserved", e2e_conserved(ledger, counted),
         e2e_conserved(phantom, counted) || e2e_conserved(ledger, more_arrived) ||
             e2e_conserved(ledger, wrong_reason));

  const std::vector<SinkArrival> once{{0, {4, 1}}, {0, {4, 2}}, {1, {4, 1}}};
  std::vector<SinkArrival> twice = once;
  twice.push_back({0, {4, 2}});
  expect("no_duplicate_arrivals", no_duplicate_arrivals(once), no_duplicate_arrivals(twice));
  return broken;
}

}  // namespace aquamac::perf
