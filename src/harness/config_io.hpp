#pragma once
// Scenario (de)serialization: a flat, commented `key = value` text format
// so experiments are shareable and replayable without recompiling.
//
// One ordered table in config_io.cpp is the only place a key is declared:
// its name, its section and the ScenarioConfig member it maps to (whose
// type picks the codec). save_scenario, load_scenario, scenario_keys and
// every tool's `--<key>` flag are read off that table, so a key cannot be
// saved but not loaded, or settable from a file but not from the command
// line. Round-trip is lossless for every key; unknown keys and values the
// member cannot hold (out of range, NaN/inf, malformed) are hard errors
// naming the key, because a silent typo would silently change an
// experiment.
//
// Precedence in the tools: built-in defaults (paper_default_scenario())
// < keys of the `--config` file < `--<key>` flags given explicitly on the
// command line. A flag left off never overrides a file key.

#include <iosfwd>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/cli.hpp"

namespace aquamac {

/// Every key load_scenario accepts, sorted. Exists so the round-trip
/// exhaustiveness test can prove save_scenario emits exactly this set.
[[nodiscard]] std::vector<std::string> scenario_keys();

/// Sets one key from its text form, exactly as a `key = value` line of a
/// scenario file does; the only setter behind load_scenario and the
/// `--<key>` flags. Throws std::invalid_argument naming the key on an
/// unknown key or a value the member cannot hold, leaving `config`
/// unchanged.
void apply_scenario_key(ScenarioConfig& config, const std::string& key, const std::string& value);

/// Writes every key of `config`, grouped and commented.
void save_scenario(const ScenarioConfig& config, std::ostream& os);
void save_scenario_file(const ScenarioConfig& config, const std::string& path);

/// Parses a file produced by save_scenario (or hand-written). Starts from
/// `paper_default_scenario()`-independent defaults: the `base` argument
/// supplies anything the file does not mention.
[[nodiscard]] ScenarioConfig load_scenario(std::istream& is, ScenarioConfig base);
[[nodiscard]] ScenarioConfig load_scenario_file(const std::string& path, ScenarioConfig base);

/// One `--<key>` flag per key, in table order, each showing its value in
/// `defaults` as the default.
[[nodiscard]] std::vector<CliParser::FlagSpec> scenario_flag_specs(const ScenarioConfig& defaults);

/// Applies, through apply_scenario_key, every `--<key>` flag given
/// explicitly on `cli`; returns those keys in table order.
std::vector<std::string> apply_scenario_flags(const CliParser& cli, ScenarioConfig& config);

}  // namespace aquamac
