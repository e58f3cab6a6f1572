#include "harness/config_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"

namespace aquamac {
namespace {

/// Every scenario key set away from its paper_default_scenario() value,
/// small and short enough that aquamac_sim runs it in about a second.
ScenarioConfig every_key_non_default() {
  ScenarioConfig c = paper_default_scenario();
  c.mac = MacKind::kSFama;
  c.node_count = 6;
  c.seed = 9'007'199'254'740'993;  // 2^53 + 1: not representable as a double
  c.jobs = 2;
  c.shards = 2;
  c.sim_time = Duration::from_seconds(4.5);
  c.hello_window = Duration::from_seconds(1.5);
  c.hello_rounds = 3;
  c.channel.freq_khz = 12.5;
  c.channel.bandwidth_hz = 10'000.0;
  c.channel.source_level_db = 150.0;
  c.channel.comm_range_m = 1'200.0;
  c.channel.interference_range_m = 1'800.0;
  c.bit_rate_bps = 9'600.0;
  c.sound_speed_mps = 1'510.0;
  c.propagation = PropagationKind::kBellhopLite;
  c.channel.spreading = Spreading::kCylindrical;
  c.reception = ReceptionKind::kSinrPer;
  c.channel.noise.shipping = 0.75;
  c.channel.noise.wind_mps = 3.25;
  c.deployment.kind = DeploymentKind::kLayeredColumn;
  c.deployment.width_m = 1'500.0;
  c.deployment.length_m = 1'600.0;
  c.deployment.depth_m = 1'700.0;
  c.deployment.layer_spacing_m = 250.0;
  c.deployment.jitter_m = 50.0;
  c.enable_mobility = false;
  c.mobility.speed_mps = 0.5;
  c.clock_offset_stddev_s = 0.001;
  c.mac_config.control_bits = 96;
  c.mac_config.max_retries = 4;
  c.mac_config.cw_min_slots = 3;
  c.mac_config.cw_max_slots = 24;
  c.mac_config.queue_limit = 64;
  c.mac_config.enable_extra = false;
  c.mac_config.enable_priority = false;
  c.traffic.mode = TrafficMode::kBatch;
  c.traffic.offered_load_kbps = 0.75;
  c.traffic.packet_bits_min = 1'024;
  c.traffic.packet_bits_max = 4'096;
  c.traffic.batch_packets = 10;
  c.multi_hop = true;
  c.sink_fraction = 0.25;
  c.hop_limit = 200;
  c.routing = RoutingKind::kDv;
  c.routing_beacon = Duration::from_seconds(2.5);
  c.greedy_blacklist = false;
  c.reliability.max_retries = 2;
  c.reliability.queue_limit = 16;
  c.reliability.drop_policy = RelayDropPolicy::kOldestFirst;
  c.reliability.backoff_base = Duration::from_seconds(1.5);
  c.reliability.backoff_max = Duration::from_seconds(30.0);
  c.reliability.failover = false;
  c.node_failure_fraction = 0.2;
  c.node_failure_time = Duration::from_seconds(1.0);
  c.channel.enable_surface_echo = true;
  c.channel.surface_reflection_loss_db = 4.5;
  c.channel.cache_paths = false;
  c.channel.use_spatial_index = false;
  c.fault.drift_ppm_stddev = 20.0;
  c.fault.drift_jitter_stddev_s = 0.0005;
  c.fault.drift_jitter_interval = Duration::from_seconds(5.0);
  c.fault.outage_rate_per_hour = 2.0;
  c.fault.outage_mean_duration = Duration::from_seconds(3.0);
  c.fault.duty_cycle = 0.9;
  c.fault.duty_period = Duration::from_seconds(20.0);
  c.fault.ge_p_bad = 0.01;
  c.fault.ge_p_good = 0.2;
  c.fault.ge_loss_bad = 0.5;
  c.fault.ge_loss_good = 0.01;
  c.fault.ge_step = Duration::from_seconds(0.5);
  c.fault.storm_rate_per_hour = 1.0;
  c.fault.storm_mean_duration = Duration::from_seconds(2.0);
  c.fault.storm_loss_prob = 0.8;
  c.mac_config.neighbor_max_age = Duration::from_seconds(40.0);
  c.mac_config.dead_neighbor_threshold = 3;
  c.mac_config.dead_probe_interval = Duration::from_seconds(15.0);
  c.mac_config.guard_slack = Duration::from_seconds(0.002);
  c.mac_config.neighbor_ewma = 0.5;
  c.checkpoint_every = Duration::from_seconds(2.0);
  c.checkpoint_path = "every-key.ckpt";
  return c;
}

std::string saved(const ScenarioConfig& config) {
  std::ostringstream os;
  save_scenario(config, os);
  return os.str();
}

/// A save_scenario output recorded before the key table replaced the
/// hand-written emitter (tests/golden/).
std::string golden(const std::string& name) {
  std::ifstream is{std::string{AQUAMAC_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(is) << name;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::map<std::string, std::string> key_values(const std::string& text) {
  std::map<std::string, std::string> values;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find(" = ");
    if (line.empty() || line.front() == '#' || eq == std::string::npos) continue;
    values[line.substr(0, eq)] = line.substr(eq + 3);
  }
  return values;
}

TEST(ConfigIo, RoundTripPreservesEveryScalar) {
  ScenarioConfig original = paper_default_scenario();
  original.mac = MacKind::kCsMac;
  original.node_count = 123;
  original.seed = 99;
  original.sim_time = Duration::from_seconds(123.5);
  original.channel.comm_range_m = 1'234.0;
  original.propagation = PropagationKind::kBellhopLite;
  original.reception = ReceptionKind::kSinrPer;
  original.deployment.kind = DeploymentKind::kLayeredColumn;
  original.deployment.depth_m = 5'432.0;
  original.enable_mobility = false;
  original.clock_offset_stddev_s = 0.25;
  original.mac_config.max_retries = 9;
  original.mac_config.enable_extra = false;
  original.traffic.mode = TrafficMode::kBatch;
  original.traffic.offered_load_kbps = 0.77;
  original.traffic.batch_packets = 55;
  original.multi_hop = true;
  original.sink_fraction = 0.2;
  original.hop_limit = 7;
  original.routing = RoutingKind::kDv;
  original.routing_beacon = Duration::from_seconds(17.5);

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, paper_default_scenario());

  EXPECT_EQ(loaded.mac, original.mac);
  EXPECT_EQ(loaded.node_count, original.node_count);
  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.sim_time, original.sim_time);
  EXPECT_DOUBLE_EQ(loaded.channel.comm_range_m, original.channel.comm_range_m);
  EXPECT_EQ(loaded.propagation, original.propagation);
  EXPECT_EQ(loaded.reception, original.reception);
  EXPECT_EQ(loaded.deployment.kind, original.deployment.kind);
  EXPECT_DOUBLE_EQ(loaded.deployment.depth_m, original.deployment.depth_m);
  EXPECT_EQ(loaded.enable_mobility, original.enable_mobility);
  EXPECT_DOUBLE_EQ(loaded.clock_offset_stddev_s, original.clock_offset_stddev_s);
  EXPECT_EQ(loaded.mac_config.max_retries, original.mac_config.max_retries);
  EXPECT_EQ(loaded.mac_config.enable_extra, original.mac_config.enable_extra);
  EXPECT_EQ(loaded.traffic.mode, original.traffic.mode);
  EXPECT_DOUBLE_EQ(loaded.traffic.offered_load_kbps, original.traffic.offered_load_kbps);
  EXPECT_EQ(loaded.traffic.batch_packets, original.traffic.batch_packets);
  EXPECT_EQ(loaded.multi_hop, original.multi_hop);
  EXPECT_DOUBLE_EQ(loaded.sink_fraction, original.sink_fraction);
  EXPECT_EQ(loaded.hop_limit, original.hop_limit);
  EXPECT_EQ(loaded.routing, original.routing);
  EXPECT_EQ(loaded.routing_beacon, original.routing_beacon);
}

TEST(ConfigIo, LoadedScenarioRunsIdenticallyToOriginal) {
  ScenarioConfig original = small_test_scenario();
  original.mac = MacKind::kEwMac;
  original.seed = 5;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  const RunStats a = run_scenario(original);
  const RunStats b = run_scenario(loaded);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.bits_delivered, b.bits_delivered);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(ConfigIo, PartialFileKeepsBaseDefaults) {
  std::stringstream buffer{"mac = S-FAMA\nnode-count = 7\n"};
  ScenarioConfig base = small_test_scenario();
  base.traffic.offered_load_kbps = 0.42;
  const ScenarioConfig loaded = load_scenario(buffer, base);
  EXPECT_EQ(loaded.mac, MacKind::kSFama);
  EXPECT_EQ(loaded.node_count, 7u);
  EXPECT_DOUBLE_EQ(loaded.traffic.offered_load_kbps, 0.42) << "untouched";
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer{
      "# a comment\n"
      "\n"
      "seed = 11   # trailing comment\n"
      "   mobility = false   \n"};
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_EQ(loaded.seed, 11u);
  EXPECT_FALSE(loaded.enable_mobility);
}

TEST(ConfigIo, UnknownKeyThrows) {
  std::stringstream buffer{"nodes = 60\n"};  // correct key is node-count
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, MalformedValueThrowsWithLineNumber) {
  std::stringstream buffer{"seed = eleven\n"};
  try {
    (void)load_scenario(buffer, small_test_scenario());
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("seed"), std::string::npos);
  }
}

TEST(ConfigIo, MissingEqualsThrows) {
  std::stringstream buffer{"just some words\n"};
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, FaultAndHardeningKeysRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.fault.drift_ppm_stddev = 1'234.0;
  original.fault.drift_jitter_stddev_s = 0.0025;
  original.fault.drift_jitter_interval = Duration::from_seconds(7.5);
  original.fault.outage_rate_per_hour = 42.0;
  original.fault.outage_mean_duration = Duration::from_seconds(12.5);
  original.fault.duty_cycle = 0.85;
  original.fault.duty_period = Duration::from_seconds(45.0);
  original.fault.ge_p_bad = 0.07;
  original.fault.ge_p_good = 0.21;
  original.fault.ge_loss_bad = 0.88;
  original.fault.ge_loss_good = 0.02;
  original.fault.ge_step = Duration::from_seconds(0.25);
  original.fault.storm_rate_per_hour = 3.5;
  original.fault.storm_mean_duration = Duration::from_seconds(8.0);
  original.fault.storm_loss_prob = 0.95;
  original.mac_config.neighbor_max_age = Duration::from_seconds(60.0);
  original.mac_config.dead_neighbor_threshold = 5;
  original.mac_config.dead_probe_interval = Duration::from_seconds(25.0);
  original.mac_config.guard_slack = Duration::from_seconds(0.015);

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_DOUBLE_EQ(loaded.fault.drift_ppm_stddev, original.fault.drift_ppm_stddev);
  EXPECT_DOUBLE_EQ(loaded.fault.drift_jitter_stddev_s, original.fault.drift_jitter_stddev_s);
  EXPECT_EQ(loaded.fault.drift_jitter_interval, original.fault.drift_jitter_interval);
  EXPECT_DOUBLE_EQ(loaded.fault.outage_rate_per_hour, original.fault.outage_rate_per_hour);
  EXPECT_EQ(loaded.fault.outage_mean_duration, original.fault.outage_mean_duration);
  EXPECT_DOUBLE_EQ(loaded.fault.duty_cycle, original.fault.duty_cycle);
  EXPECT_EQ(loaded.fault.duty_period, original.fault.duty_period);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_p_bad, original.fault.ge_p_bad);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_p_good, original.fault.ge_p_good);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_loss_bad, original.fault.ge_loss_bad);
  EXPECT_DOUBLE_EQ(loaded.fault.ge_loss_good, original.fault.ge_loss_good);
  EXPECT_EQ(loaded.fault.ge_step, original.fault.ge_step);
  EXPECT_DOUBLE_EQ(loaded.fault.storm_rate_per_hour, original.fault.storm_rate_per_hour);
  EXPECT_EQ(loaded.fault.storm_mean_duration, original.fault.storm_mean_duration);
  EXPECT_DOUBLE_EQ(loaded.fault.storm_loss_prob, original.fault.storm_loss_prob);
  EXPECT_EQ(loaded.mac_config.neighbor_max_age, original.mac_config.neighbor_max_age);
  EXPECT_EQ(loaded.mac_config.dead_neighbor_threshold,
            original.mac_config.dead_neighbor_threshold);
  EXPECT_EQ(loaded.mac_config.dead_probe_interval, original.mac_config.dead_probe_interval);
  EXPECT_EQ(loaded.mac_config.guard_slack, original.mac_config.guard_slack);
  EXPECT_TRUE(loaded.fault.enabled());
}

TEST(ConfigIo, ReliabilityKeysRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.reliability.max_retries = 4;
  original.reliability.queue_limit = 12;
  original.reliability.drop_policy = RelayDropPolicy::kOldestFirst;
  original.reliability.backoff_base = Duration::from_seconds(7.5);
  original.reliability.backoff_max = Duration::from_seconds(95.0);
  original.reliability.failover = false;
  original.greedy_blacklist = false;
  original.mac_config.neighbor_ewma = 0.25;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_EQ(loaded.reliability.max_retries, original.reliability.max_retries);
  EXPECT_EQ(loaded.reliability.queue_limit, original.reliability.queue_limit);
  EXPECT_EQ(loaded.reliability.drop_policy, original.reliability.drop_policy);
  EXPECT_EQ(loaded.reliability.backoff_base, original.reliability.backoff_base);
  EXPECT_EQ(loaded.reliability.backoff_max, original.reliability.backoff_max);
  EXPECT_EQ(loaded.reliability.failover, original.reliability.failover);
  EXPECT_FALSE(loaded.greedy_blacklist);
  EXPECT_DOUBLE_EQ(loaded.mac_config.neighbor_ewma, original.mac_config.neighbor_ewma);
  EXPECT_TRUE(loaded.reliability.enabled());
}

TEST(ConfigIo, DefaultSaveKeepsFaultsDisabled) {
  // A default round-trip must not accidentally enable fault injection —
  // the strict no-op guarantee has to survive save/load.
  std::stringstream buffer;
  save_scenario(small_test_scenario(), buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_FALSE(loaded.fault.enabled());
  EXPECT_TRUE(loaded.mac_config.guard_slack.is_zero());
  EXPECT_EQ(loaded.mac_config.dead_neighbor_threshold, 0u);
}

TEST(ConfigIo, UnknownFaultKeyThrows) {
  std::stringstream buffer{"fault-drip-ppm = 100\n"};  // typo for fault-drift-ppm
  EXPECT_THROW((void)load_scenario(buffer, small_test_scenario()), std::invalid_argument);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/aquamac_scenario_test.cfg";
  ScenarioConfig original = small_test_scenario();
  original.seed = 321;
  save_scenario_file(original, path);
  const ScenarioConfig loaded = load_scenario_file(path, small_test_scenario());
  EXPECT_EQ(loaded.seed, 321u);
  EXPECT_THROW((void)load_scenario_file("/nonexistent/path.cfg", small_test_scenario()),
               std::invalid_argument);
}

TEST(ConfigIo, DoublesRoundTripExactly) {
  // save_scenario must emit max_digits10 significant digits: the stream
  // default of 6 silently perturbed every non-round double (sim-time-s,
  // freq-khz, fault rates) on save -> load, so a "replayed" scenario was
  // not the scenario that ran.
  ScenarioConfig original = small_test_scenario();
  original.sim_time = Duration::from_seconds(123.456789012345);
  original.channel.freq_khz = 10.123456789012345;
  original.traffic.offered_load_kbps = 1.0 / 3.0;
  original.fault.storm_loss_prob = 0.123456789012345;

  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());

  EXPECT_EQ(loaded.sim_time, original.sim_time) << "lost nanoseconds";
  EXPECT_EQ(loaded.channel.freq_khz, original.channel.freq_khz) << "bit-exact, not approx";
  EXPECT_EQ(loaded.traffic.offered_load_kbps, original.traffic.offered_load_kbps);
  EXPECT_EQ(loaded.fault.storm_loss_prob, original.fault.storm_loss_prob);
}

TEST(ConfigIo, NegativeIntegerRejected) {
  // std::stoull accepts a leading '-' by wrapping modulo 2^64; the parser
  // must reject it before "node-count = -1" becomes 2^64 - 1 nodes. The
  // same holds for every value the member cannot hold: an integer above
  // its type's maximum (a uint8_t hop-limit of 300 used to become 44), a
  // non-finite double, and a zero node or shard count.
  const std::pair<std::string, std::string> cases[] = {
      {"node-count = -1", "expected an integer"},
      {"seed = -3", "expected an integer"},
      {"batch-packets = -7", "expected an integer"},
      {"hop-limit = 300", "expected an integer in [0, 255]"},
      {"hello-rounds = 4294967296", "expected an integer in [0, 4294967295]"},
      {"seed = 18446744073709551616", "expected an integer"},
      {"jobs =  -1", "expected an integer"},
      {"node-count = 0", "expected a positive integer"},
      {"shards = 0", "expected a positive integer"},
      {"freq-khz = nan", "expected a finite number"},
      {"offered-load-kbps = inf", "expected a finite number"},
      {"sim-time-s = -inf", "expected a finite number"},
      {"routing-beacon-s = 1e300", "expected a duration within"},
  };
  for (const auto& [line, expected] : cases) {
    SCOPED_TRACE(line);
    const std::string key = line.substr(0, line.find(' '));
    std::stringstream buffer{line + "\n"};
    try {
      (void)load_scenario(buffer, small_test_scenario());
      FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(expected), std::string::npos) << e.what();
      EXPECT_NE(std::string{e.what()}.find("'" + key + "'"), std::string::npos) << e.what();
    }
    // The one setter rejects the value without touching the config.
    ScenarioConfig config = small_test_scenario();
    const std::string value = line.substr(line.find('=') + 2);
    EXPECT_THROW(apply_scenario_key(config, key, value), std::invalid_argument);
    EXPECT_EQ(saved(config), saved(small_test_scenario()));
  }
}

TEST(ConfigIo, SavedKeysAndAcceptedKeysMatchExactly) {
  // Two-way exhaustiveness: every key save_scenario emits must be
  // loadable, and every key load_scenario accepts must be emitted —
  // otherwise a knob silently fails to survive the round trip.
  std::stringstream buffer;
  save_scenario(small_test_scenario(), buffer);

  std::vector<std::string> written;
  std::string line;
  while (std::getline(buffer, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t", eq - 1);
    const auto begin = line.find_first_not_of(" \t");
    written.push_back(line.substr(begin, end - begin + 1));
  }
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written.size(), std::set<std::string>(written.begin(), written.end()).size())
      << "duplicate keys written";

  const std::vector<std::string> accepted = scenario_keys();  // sorted
  EXPECT_EQ(written, accepted);

  // The checkpoint knobs are part of the contract.
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), "checkpoint-every-s"), accepted.end());
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), "checkpoint-path"), accepted.end());
}

TEST(ConfigIo, SaveIsByteIdenticalToGolden) {
  // Checkpoint containers embed this text, so any byte change would break
  // the bit-identical container and the loading of older checkpoints.
  EXPECT_EQ(saved(paper_default_scenario()), golden("paper_default.cfg"));
  EXPECT_EQ(saved(small_test_scenario()), golden("small_test.cfg"));
  EXPECT_EQ(saved(every_key_non_default()), golden("every_key.cfg"));
}

TEST(ConfigIo, EveryKeyGoldenSetsEveryKeyAwayFromDefault) {
  const auto defaults = key_values(saved(paper_default_scenario()));
  const auto every = key_values(golden("every_key.cfg"));
  ASSERT_EQ(every.size(), scenario_keys().size());
  for (const std::string& key : scenario_keys()) {
    ASSERT_EQ(every.count(key), 1u) << key;
    EXPECT_NE(every.at(key), defaults.at(key)) << key;
  }
  // And a file written before the table loads back to the same bytes.
  std::istringstream is{golden("every_key.cfg")};
  EXPECT_EQ(saved(load_scenario(is, paper_default_scenario())), golden("every_key.cfg"));
}

TEST(ConfigIo, CheckpointKnobsRoundTrip) {
  ScenarioConfig original = small_test_scenario();
  original.checkpoint_every = Duration::from_seconds(2.5);
  original.checkpoint_path = "/tmp/run.ckpt";
  std::stringstream buffer;
  save_scenario(original, buffer);
  const ScenarioConfig loaded = load_scenario(buffer, small_test_scenario());
  EXPECT_EQ(loaded.checkpoint_every, original.checkpoint_every);
  EXPECT_EQ(loaded.checkpoint_path, original.checkpoint_path);
}

}  // namespace
}  // namespace aquamac
