#include "harness/config_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace aquamac {

namespace {

std::string_view to_string(DeploymentKind kind) {
  switch (kind) {
    case DeploymentKind::kUniformBox: return "uniform-box";
    case DeploymentKind::kLayeredColumn: return "layered-column";
    case DeploymentKind::kGrid: return "grid";
  }
  return "?";
}

DeploymentKind deployment_from_string(const std::string& name) {
  if (name == "uniform-box") return DeploymentKind::kUniformBox;
  if (name == "layered-column") return DeploymentKind::kLayeredColumn;
  if (name == "grid") return DeploymentKind::kGrid;
  throw std::invalid_argument("unknown deployment kind: " + name);
}

std::string_view to_string(PropagationKind kind) {
  return kind == PropagationKind::kStraightLine ? "straight" : "bellhop";
}

PropagationKind propagation_from_string(const std::string& name) {
  if (name == "straight") return PropagationKind::kStraightLine;
  if (name == "bellhop") return PropagationKind::kBellhopLite;
  throw std::invalid_argument("unknown propagation kind: " + name);
}

std::string_view to_string(ReceptionKind kind) {
  return kind == ReceptionKind::kDeterministic ? "deterministic" : "sinr";
}

ReceptionKind reception_from_string(const std::string& name) {
  if (name == "deterministic") return ReceptionKind::kDeterministic;
  if (name == "sinr") return ReceptionKind::kSinrPer;
  throw std::invalid_argument("unknown reception kind: " + name);
}

std::string_view to_string(Spreading spreading) {
  switch (spreading) {
    case Spreading::kCylindrical: return "cylindrical";
    case Spreading::kPractical: return "practical";
    case Spreading::kSpherical: return "spherical";
  }
  return "?";
}

Spreading spreading_from_string(const std::string& name) {
  if (name == "cylindrical") return Spreading::kCylindrical;
  if (name == "practical") return Spreading::kPractical;
  if (name == "spherical") return Spreading::kSpherical;
  throw std::invalid_argument("unknown spreading: " + name);
}

std::string_view to_string(TrafficMode mode) {
  return mode == TrafficMode::kPoisson ? "poisson" : "batch";
}

TrafficMode traffic_mode_from_string(const std::string& name) {
  if (name == "poisson") return TrafficMode::kPoisson;
  if (name == "batch") return TrafficMode::kBatch;
  throw std::invalid_argument("unknown traffic mode: " + name);
}

// Codecs, one overload per member type: a table row's accessor picks
// them. Decoders throw std::invalid_argument without the key;
// apply_scenario_key adds it.

void decode(const std::string& raw, double& out) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("expected a number, got '" + raw + "'");
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument("expected a finite number, got '" + raw + "'");
  }
  out = v;
}

/// Unsigned integers of every width; the other types have overloads.
template <class T>
void decode(const std::string& raw, T& out) {
  static_assert(std::is_unsigned_v<T>, "no scenario codec for this member type");
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  unsigned long long v = 0;
  try {
    // std::stoull skips leading blanks and accepts a leading '-' by
    // wrapping modulo 2^64, which would turn "node-count = -1" into a
    // 16-EiB allocation request: only a plain digit string is an integer.
    if (raw.empty() || std::isdigit(static_cast<unsigned char>(raw.front())) == 0) {
      throw std::invalid_argument("not a digit");
    }
    std::size_t pos = 0;
    v = std::stoull(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("expected an integer, got '" + raw + "'");
  }
  if (v > kMax) {
    throw std::invalid_argument("expected an integer in [0, " + std::to_string(kMax) + "], got '" +
                                raw + "'");
  }
  out = static_cast<T>(v);
}

void decode(const std::string& raw, bool& out) {
  if (raw != "true" && raw != "1" && raw != "false" && raw != "0") {
    throw std::invalid_argument("expected true/false, got '" + raw + "'");
  }
  out = raw == "true" || raw == "1";
}

void decode(const std::string& raw, Duration& out) {
  double s = 0.0;
  decode(raw, s);
  // Duration::from_seconds rounds s * 1e9 to int64 nanoseconds.
  if (std::abs(s * 1e9) >= 0x1p63) {
    throw std::invalid_argument("expected a duration within +/-2^63 ns, got '" + raw + "'");
  }
  out = Duration::from_seconds(s);
}

void decode(const std::string& raw, std::string& out) { out = raw; }
void decode(const std::string& raw, MacKind& out) { out = mac_kind_from_string(raw); }
void decode(const std::string& raw, RoutingKind& out) { out = routing_kind_from_string(raw); }
void decode(const std::string& raw, RelayDropPolicy& out) {
  out = relay_drop_policy_from_string(raw);
}
void decode(const std::string& raw, DeploymentKind& out) { out = deployment_from_string(raw); }
void decode(const std::string& raw, PropagationKind& out) { out = propagation_from_string(raw); }
void decode(const std::string& raw, ReceptionKind& out) { out = reception_from_string(raw); }
void decode(const std::string& raw, Spreading& out) { out = spreading_from_string(raw); }
void decode(const std::string& raw, TrafficMode& out) { out = traffic_mode_from_string(raw); }

void encode(std::ostream& os, double v) { os << v; }
/// Enums and unsigned integers; the other types have overloads.
template <class T>
void encode(std::ostream& os, T v) {
  if constexpr (std::is_enum_v<T>) {
    os << to_string(v);
  } else {
    static_assert(std::is_unsigned_v<T>, "no scenario codec for this member type");
    os << static_cast<std::uint64_t>(v);  // a uint8_t must print as a number
  }
}
void encode(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void encode(std::ostream& os, Duration v) { os << v.to_seconds(); }
void encode(std::ostream& os, const std::string& v) { os << v; }

/// One scenario key: its name, the comment header written before it where
/// a group starts, and its codec bound to one ScenarioConfig member.
struct Field {
  std::string_view key;
  std::string_view section;
  void (*write)(std::ostream&, const ScenarioConfig&);
  void (*read)(ScenarioConfig&, const std::string&);
};

/// Builds a row from an accessor `[](auto& c) -> auto& { return c.member; }`.
/// kNonZero rejects 0 for counts that must be positive.
template <bool kNonZero = false, class Get>
constexpr Field field(std::string_view key, Get /*accessor*/, std::string_view section = {}) {
  return {key, section, [](std::ostream& os, const ScenarioConfig& c) { encode(os, Get{}(c)); },
          [](ScenarioConfig& c, const std::string& raw) {
            auto value = Get{}(c);
            decode(raw, value);
            if constexpr (kNonZero) {
              if (value == 0) {
                throw std::invalid_argument("expected a positive integer, got '" + raw + "'");
              }
            }
            Get{}(c) = std::move(value);
          }};
}

/// Every scenario key, in file order. The only place a key is declared.
constexpr auto kFields = std::to_array<Field>({
    field("mac", [](auto& c) -> auto& { return c.mac; }),
    field<true>("node-count", [](auto& c) -> auto& { return c.node_count; }),
    field("seed", [](auto& c) -> auto& { return c.seed; }),
    field("jobs", [](auto& c) -> auto& { return c.jobs; }),
    field<true>("shards", [](auto& c) -> auto& { return c.shards; }),
    field("sim-time-s", [](auto& c) -> auto& { return c.sim_time; }),
    field("hello-window-s", [](auto& c) -> auto& { return c.hello_window; }),
    field("hello-rounds", [](auto& c) -> auto& { return c.hello_rounds; }),
    field("freq-khz", [](auto& c) -> auto& { return c.channel.freq_khz; }, "channel / physics"),
    field("bandwidth-hz", [](auto& c) -> auto& { return c.channel.bandwidth_hz; }),
    field("source-level-db", [](auto& c) -> auto& { return c.channel.source_level_db; }),
    field("comm-range-m", [](auto& c) -> auto& { return c.channel.comm_range_m; }),
    field("interference-range-m",
          [](auto& c) -> auto& { return c.channel.interference_range_m; }),
    field("bit-rate-bps", [](auto& c) -> auto& { return c.bit_rate_bps; }),
    field("sound-speed-mps", [](auto& c) -> auto& { return c.sound_speed_mps; }),
    field("propagation", [](auto& c) -> auto& { return c.propagation; }),
    field("spreading", [](auto& c) -> auto& { return c.channel.spreading; }),
    field("reception", [](auto& c) -> auto& { return c.reception; }),
    field("shipping", [](auto& c) -> auto& { return c.channel.noise.shipping; }),
    field("wind-mps", [](auto& c) -> auto& { return c.channel.noise.wind_mps; }),
    field("deployment", [](auto& c) -> auto& { return c.deployment.kind; },
          "deployment / mobility"),
    field("width-m", [](auto& c) -> auto& { return c.deployment.width_m; }),
    field("length-m", [](auto& c) -> auto& { return c.deployment.length_m; }),
    field("depth-m", [](auto& c) -> auto& { return c.deployment.depth_m; }),
    field("layer-spacing-m", [](auto& c) -> auto& { return c.deployment.layer_spacing_m; }),
    field("jitter-m", [](auto& c) -> auto& { return c.deployment.jitter_m; }),
    field("mobility", [](auto& c) -> auto& { return c.enable_mobility; }),
    field("drift-mps", [](auto& c) -> auto& { return c.mobility.speed_mps; }),
    field("clock-skew-s", [](auto& c) -> auto& { return c.clock_offset_stddev_s; }),
    field("control-bits", [](auto& c) -> auto& { return c.mac_config.control_bits; }, "MAC"),
    field("max-retries", [](auto& c) -> auto& { return c.mac_config.max_retries; }),
    field("cw-min-slots", [](auto& c) -> auto& { return c.mac_config.cw_min_slots; }),
    field("cw-max-slots", [](auto& c) -> auto& { return c.mac_config.cw_max_slots; }),
    field("queue-limit", [](auto& c) -> auto& { return c.mac_config.queue_limit; }),
    field("enable-extra", [](auto& c) -> auto& { return c.mac_config.enable_extra; }),
    field("enable-priority", [](auto& c) -> auto& { return c.mac_config.enable_priority; }),
    field("traffic-mode", [](auto& c) -> auto& { return c.traffic.mode; }, "traffic"),
    field("offered-load-kbps", [](auto& c) -> auto& { return c.traffic.offered_load_kbps; }),
    field("packet-bits-min", [](auto& c) -> auto& { return c.traffic.packet_bits_min; }),
    field("packet-bits-max", [](auto& c) -> auto& { return c.traffic.packet_bits_max; }),
    field("batch-packets", [](auto& c) -> auto& { return c.traffic.batch_packets; }),
    field("multi-hop", [](auto& c) -> auto& { return c.multi_hop; }, "multi-hop"),
    field("sink-fraction", [](auto& c) -> auto& { return c.sink_fraction; }),
    field("hop-limit", [](auto& c) -> auto& { return c.hop_limit; }),
    field("routing", [](auto& c) -> auto& { return c.routing; }),
    field("routing-beacon-s", [](auto& c) -> auto& { return c.routing_beacon; }),
    field("greedy-blacklist", [](auto& c) -> auto& { return c.greedy_blacklist; }),
    field("reliability-retries", [](auto& c) -> auto& { return c.reliability.max_retries; },
          "reliability (hop-by-hop custody ARQ; retries 0 = off)"),
    field("reliability-queue-limit", [](auto& c) -> auto& { return c.reliability.queue_limit; }),
    field("reliability-drop-policy", [](auto& c) -> auto& { return c.reliability.drop_policy; }),
    field("reliability-backoff-base-s",
          [](auto& c) -> auto& { return c.reliability.backoff_base; }),
    field("reliability-backoff-max-s", [](auto& c) -> auto& { return c.reliability.backoff_max; }),
    field("reliability-failover", [](auto& c) -> auto& { return c.reliability.failover; }),
    field("node-failure-fraction", [](auto& c) -> auto& { return c.node_failure_fraction; },
          "failure injection"),
    field("node-failure-time-s", [](auto& c) -> auto& { return c.node_failure_time; }),
    field("surface-echo", [](auto& c) -> auto& { return c.channel.enable_surface_echo; }),
    field("reflection-loss-db",
          [](auto& c) -> auto& { return c.channel.surface_reflection_loss_db; }),
    field("cache-paths", [](auto& c) -> auto& { return c.channel.cache_paths; }),
    field("spatial-index", [](auto& c) -> auto& { return c.channel.use_spatial_index; }),
    field("fault-drift-ppm", [](auto& c) -> auto& { return c.fault.drift_ppm_stddev; },
          "fault injection (all zero = strict no-op)"),
    field("fault-drift-jitter-s", [](auto& c) -> auto& { return c.fault.drift_jitter_stddev_s; }),
    field("fault-jitter-interval-s",
          [](auto& c) -> auto& { return c.fault.drift_jitter_interval; }),
    field("fault-outage-per-hour", [](auto& c) -> auto& { return c.fault.outage_rate_per_hour; }),
    field("fault-outage-mean-s", [](auto& c) -> auto& { return c.fault.outage_mean_duration; }),
    field("fault-duty-cycle", [](auto& c) -> auto& { return c.fault.duty_cycle; }),
    field("fault-duty-period-s", [](auto& c) -> auto& { return c.fault.duty_period; }),
    field("fault-ge-p-bad", [](auto& c) -> auto& { return c.fault.ge_p_bad; }),
    field("fault-ge-p-good", [](auto& c) -> auto& { return c.fault.ge_p_good; }),
    field("fault-ge-loss-bad", [](auto& c) -> auto& { return c.fault.ge_loss_bad; }),
    field("fault-ge-loss-good", [](auto& c) -> auto& { return c.fault.ge_loss_good; }),
    field("fault-ge-step-s", [](auto& c) -> auto& { return c.fault.ge_step; }),
    field("fault-storm-per-hour", [](auto& c) -> auto& { return c.fault.storm_rate_per_hour; }),
    field("fault-storm-mean-s", [](auto& c) -> auto& { return c.fault.storm_mean_duration; }),
    field("fault-storm-loss", [](auto& c) -> auto& { return c.fault.storm_loss_prob; }),
    field("neighbor-max-age-s", [](auto& c) -> auto& { return c.mac_config.neighbor_max_age; },
          "protocol hardening"),
    field("dead-neighbor-threshold",
          [](auto& c) -> auto& { return c.mac_config.dead_neighbor_threshold; }),
    field("dead-probe-interval-s",
          [](auto& c) -> auto& { return c.mac_config.dead_probe_interval; }),
    field("guard-slack-s", [](auto& c) -> auto& { return c.mac_config.guard_slack; }),
    field("neighbor-ewma", [](auto& c) -> auto& { return c.mac_config.neighbor_ewma; }),
    field("checkpoint-every-s", [](auto& c) -> auto& { return c.checkpoint_every; },
          "checkpointing"),
    field("checkpoint-path", [](auto& c) -> auto& { return c.checkpoint_path; }),
});

/// max_digits10 makes every double exactly round-trippable; the default
/// 6-significant-digit stream precision silently perturbed sim-time-s,
/// freq-khz and the fault rates on save -> load.
constexpr std::streamsize kExactDigits = std::numeric_limits<double>::max_digits10;

}  // namespace

std::vector<std::string> scenario_keys() {
  std::vector<std::string> keys;
  keys.reserve(kFields.size());
  for (const Field& f : kFields) keys.emplace_back(f.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void apply_scenario_key(ScenarioConfig& config, const std::string& key, const std::string& value) {
  const auto* it = std::find_if(kFields.begin(), kFields.end(),
                                [&](const Field& f) { return f.key == key; });
  if (it == kFields.end()) throw std::invalid_argument("unknown scenario key '" + key + "'");
  try {
    it->read(config, value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("scenario key '" + key + "': " + e.what());
  }
}

void save_scenario(const ScenarioConfig& config, std::ostream& os) {
  const std::streamsize saved_precision = os.precision(kExactDigits);
  os << "# aquamac scenario\n";
  for (const Field& f : kFields) {
    if (!f.section.empty()) os << "\n# " << f.section << "\n";
    os << f.key << " = ";
    f.write(os, config);
    os << "\n";
  }
  os.precision(saved_precision);
}

void save_scenario_file(const ScenarioConfig& config, const std::string& path) {
  std::ofstream os{path};
  if (!os) throw std::invalid_argument("cannot open " + path + " for writing");
  save_scenario(config, os);
}

ScenarioConfig load_scenario(std::istream& is, ScenarioConfig base) {
  ScenarioConfig config = std::move(base);
  const auto trim = [](const std::string& s) {
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
  };
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario line " + std::to_string(line_no) +
                                  ": expected 'key = value', got '" + line + "'");
    }
    try {
      apply_scenario_key(config, trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return config;
}

ScenarioConfig load_scenario_file(const std::string& path, ScenarioConfig base) {
  std::ifstream is{path};
  if (!is) throw std::invalid_argument("cannot open scenario file " + path);
  return load_scenario(is, std::move(base));
}

std::vector<CliParser::FlagSpec> scenario_flag_specs(const ScenarioConfig& defaults) {
  std::vector<CliParser::FlagSpec> specs;
  specs.reserve(kFields.size());
  std::string_view section = "run";
  for (const Field& f : kFields) {
    if (!f.section.empty()) section = f.section;
    std::ostringstream value;
    value.precision(kExactDigits);
    f.write(value, defaults);
    specs.push_back(
        {std::string{f.key}, value.str(), "scenario key (" + std::string{section} + ")"});
  }
  return specs;
}

std::vector<std::string> apply_scenario_flags(const CliParser& cli, ScenarioConfig& config) {
  std::vector<std::string> given;
  for (const Field& f : kFields) {
    std::string key{f.key};
    if (!cli.given(key)) continue;
    apply_scenario_key(config, key, cli.get(key));
    given.push_back(std::move(key));
  }
  return given;
}

}  // namespace aquamac
