// aquamac_sim — run one UASN MAC scenario from the command line.
//
//   aquamac_sim --mac EW-MAC --node-count 80 --offered-load-kbps 0.6 --seed 3
//   aquamac_sim --mac CS-MAC --reception sinr --trace run.csv
//   aquamac_sim --config my.cfg --seed 4 --save-config my-seed4.cfg
//   aquamac_sim --help
//
// Every scenario key (src/harness/config_io.cpp) is a `--<key> value`
// flag. The scenario is paper_default_scenario(), then the --config file,
// then the key flags actually given: a flag left off never overrides the
// file. Prints the full metric block; optionally writes a per-event PHY +
// MAC trace (transmissions, receptions, FSM transitions, contention
// outcomes, extra-phase windows, neighbor updates) in CSV for external
// analysis/plotting.

#include <fstream>
#include <iostream>

#include "harness/checkpoint_run.hpp"
#include "harness/config_io.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace aquamac;

int run(const CliParser& cli) {
  ScenarioConfig config = paper_default_scenario();
  if (cli.has("config")) config = load_scenario_file(cli.get("config"), config);
  const std::vector<std::string> flagged = apply_scenario_flags(cli, config);

  if (cli.has("resume-from")) {
    // The snapshot embeds the exact capture scenario and resume_scenario
    // reloads every key from it: any other scenario input would be dropped.
    std::vector<std::string> dropped;
    for (const char* flag : {"config", "save-config"}) {
      if (cli.has(flag)) dropped.emplace_back(flag);
    }
    for (const std::string& key : flagged) {
      if (key != "jobs" && key != "shards") dropped.push_back(key);
    }
    if (!dropped.empty()) {
      throw std::invalid_argument("--" + dropped.front() +
                                  " cannot be combined with --resume-from: the scenario comes "
                                  "from the snapshot (only --jobs and --shards apply)");
    }
  }

  std::ofstream trace_file;
  std::unique_ptr<CsvTrace> trace;
  if (cli.has("trace")) {
    trace_file.open(cli.get("trace"));
    if (!trace_file) throw std::invalid_argument("cannot open trace file " + cli.get("trace"));
    trace = std::make_unique<CsvTrace>(trace_file);
    config.trace = trace.get();
  }

  if (cli.get_bool("verbose")) config.logger = Logger::to_stderr(LogLevel::kDebug);

  if (cli.has("save-config")) {
    save_scenario_file(config, cli.get("save-config"));
    std::cout << "wrote scenario to " << cli.get("save-config") << "\n";
  }

  RunStats stats;
  if (cli.has("resume-from")) {
    // The snapshot embeds the exact capture scenario; the command line
    // contributes only execution-surface state (trace/log sinks, shards).
    const Checkpoint ckpt = read_checkpoint_file(cli.get("resume-from"));
    std::cout << "resuming from " << cli.get("resume-from") << " at " << ckpt.at.to_string()
              << " (digest-verified replay)\n\n";
    stats = resume_scenario(ckpt, config);
  } else {
    std::cout << describe_scenario(config) << "\n";
    stats = run_scenario_checkpointing(config);
  }

  std::cout << "Results\n-------\n"
            << "throughput        " << stats.throughput_kbps << " kbps\n"
            << "offered load      " << stats.offered_load_kbps << " kbps\n"
            << "delivery ratio    " << stats.delivery_ratio << "\n"
            << "packets           " << stats.packets_delivered << " delivered, "
            << stats.packets_dropped << " dropped, " << stats.packets_offered << " offered\n"
            << "mean power        " << stats.mean_power_mw << " mW/node\n"
            << "total energy      " << stats.total_energy_j << " J\n"
            << "mean latency      " << stats.mean_latency_s << " s\n"
            << "execution time    " << stats.execution_time_s << " s\n"
            << "overhead bits     " << stats.overhead_bits() << "\n"
            << "fairness (Jain)   " << stats.fairness_index << "\n"
            << "handshakes        " << stats.handshake_successes << "/"
            << stats.handshake_attempts << "\n"
            << "extra comms       " << stats.extra_successes << "/" << stats.extra_attempts
            << "\n"
            << "collisions        " << stats.rx_collisions << "\n";
  if (config.multi_hop) {
    std::cout << "e2e delivery      " << stats.e2e_delivery_ratio << " ("
              << stats.e2e_arrived_at_sink << "/" << stats.e2e_originated << ")\n"
              << "mean hops         " << stats.mean_hops << "\n"
              << "e2e latency       " << stats.mean_e2e_latency_s << " s\n"
              << "hop stretch       " << stats.hop_stretch << "\n"
              << "per-hop latency   " << stats.mean_per_hop_latency_s << " s\n"
              << "routing drops     " << stats.e2e_dropped_no_route << " no-route, "
              << stats.e2e_dropped_hop_limit << " hop-limit, " << stats.e2e_dropped_mac
              << " mac\n";
    if (config.reliability.enabled()) {
      std::cout << "relay ARQ         " << stats.e2e_retransmissions << " retransmissions, "
                << stats.e2e_failovers << " failovers, " << stats.e2e_duplicates_suppressed
                << " dups suppressed\n"
                << "dead letters      " << stats.e2e_dead_letter_exhausted << " exhausted, "
                << stats.e2e_dead_letter_overflow << " overflow, "
                << stats.e2e_dead_letter_no_route << " no-route\n"
                << "relay queue hw    " << stats.relay_queue_highwater << "\n";
    }
  }
  if (cli.has("stats-json")) {
    std::ofstream json_os{cli.get("stats-json")};
    if (!json_os) {
      std::cerr << "cannot open " << cli.get("stats-json") << " for writing\n";
      return 1;
    }
    JsonWriter json{json_os};
    write_run_stats_json(json, stats);
    json_os << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<CliParser::FlagSpec> flags = {
      {"config", "", "load scenario keys from a key=value file before the key flags"},
      {"save-config", "", "write the effective scenario to this path"},
      {"trace", "", "write a per-event PHY + MAC trace CSV to this path"},
      {"stats-json", "", "write the full RunStats metric block as one JSON object to this path"},
      {"resume-from", "", "resume from this checkpoint file (digest-verified replay; the "
                          "scenario comes from the snapshot, so of the key flags only "
                          "--jobs and --shards may be given)"},
      {"verbose", "false", "per-node debug logging to stderr"},
  };
  for (CliParser::FlagSpec& spec : scenario_flag_specs(paper_default_scenario())) {
    flags.push_back(std::move(spec));
  }
  CliParser cli{"aquamac_sim", std::move(flags)};
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
