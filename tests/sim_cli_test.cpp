// Drives the built aquamac_sim: which value wins between the built-in
// default, a --config file key and an explicit --<key> flag, and whether
// every key survives --config -> --save-config unchanged.

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/config_io.hpp"
#include "harness/scenario.hpp"

namespace aquamac {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test: ctest runs the cases as parallel processes.
fs::path work_dir() {
  const fs::path dir = fs::path{testing::TempDir()} / "aquamac_sim_cli" /
                       testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs aquamac_sim in `dir` with `args`; returns its exit code.
int run_sim(const fs::path& dir, const std::string& args) {
  const std::string command = "cd '" + dir.string() + "' && '" AQUAMAC_SIM_PATH "' " + args +
                              " > sim.out 2> sim.err";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const fs::path& path) {
  std::ifstream is{path};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& text) { std::ofstream{path} << text; }

std::map<std::string, std::string> saved_keys(const fs::path& path) {
  std::map<std::string, std::string> values;
  std::istringstream is{read_file(path)};
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find(" = ");
    if (!line.empty() && line.front() != '#' && eq != std::string::npos) {
      values[line.substr(0, eq)] = line.substr(eq + 3);
    }
  }
  return values;
}

const char* const kFileKeys =
    "node-count = 5\nseed = 99\noffered-load-kbps = 0.3\nhop-limit = 200\nsim-time-s = 2\n";

TEST(SimCli, FileKeyWinsWhenFlagAbsent) {
  const fs::path dir = work_dir();
  write_file(dir / "in.cfg", kFileKeys);
  ASSERT_EQ(run_sim(dir, "--config in.cfg --save-config out.cfg"), 0)
      << read_file(dir / "sim.err");
  const auto keys = saved_keys(dir / "out.cfg");
  EXPECT_EQ(keys.at("node-count"), "5");
  EXPECT_EQ(keys.at("seed"), "99");
  EXPECT_EQ(keys.at("offered-load-kbps"), "0.29999999999999999");  // 0.3 at max_digits10
  EXPECT_EQ(keys.at("hop-limit"), "200");
}

TEST(SimCli, FlagWinsOverFileKey) {
  const fs::path dir = work_dir();
  write_file(dir / "in.cfg", kFileKeys);
  ASSERT_EQ(run_sim(dir, "--config in.cfg --node-count 4 --seed 7 --offered-load-kbps 0.25 "
                         "--hop-limit 9 --save-config out.cfg"),
            0)
      << read_file(dir / "sim.err");
  const auto keys = saved_keys(dir / "out.cfg");
  EXPECT_EQ(keys.at("node-count"), "4");
  EXPECT_EQ(keys.at("seed"), "7");
  EXPECT_EQ(keys.at("offered-load-kbps"), "0.25");
  EXPECT_EQ(keys.at("hop-limit"), "9");
  EXPECT_EQ(keys.at("sim-time-s"), "2") << "the file's other keys still apply";
}

TEST(SimCli, PaperDefaultWhenNeitherFileNorFlag) {
  const fs::path dir = work_dir();
  ASSERT_EQ(run_sim(dir, "--sim-time-s 1 --save-config out.cfg"), 0)
      << read_file(dir / "sim.err");
  ScenarioConfig expected = paper_default_scenario();
  expected.sim_time = Duration::seconds(1);
  std::ostringstream os;
  save_scenario(expected, os);
  EXPECT_EQ(read_file(dir / "out.cfg"), os.str());
}

TEST(SimCli, EveryKeySurvivesConfigToSaveConfig) {
  // The golden sets every key away from its default (ConfigIo checks
  // that), so a key the tool dropped or overrode would show here.
  const fs::path dir = work_dir();
  const std::string every = read_file(fs::path{AQUAMAC_GOLDEN_DIR} / "every_key.cfg");
  write_file(dir / "in.cfg", every);
  ASSERT_EQ(run_sim(dir, "--config in.cfg --save-config out.cfg"), 0)
      << read_file(dir / "sim.err");
  EXPECT_EQ(read_file(dir / "out.cfg"), every);

  // Its checkpoint resumes; a scenario flag next to --resume-from would be
  // silently replaced by the snapshot's value, so it is refused.
  const std::string ckpt = saved_keys(dir / "in.cfg").at("checkpoint-path");
  ASSERT_TRUE(fs::exists(dir / ckpt));
  EXPECT_EQ(run_sim(dir, "--resume-from " + ckpt + " --jobs 1 --shards 1"), 0)
      << read_file(dir / "sim.err");
  for (const char* flag : {"--seed 3", "--node-count 7", "--config in.cfg"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_sim(dir, "--resume-from " + ckpt + " " + flag), 1);
    EXPECT_NE(read_file(dir / "sim.err").find("cannot be combined with --resume-from"),
              std::string::npos);
  }
}

TEST(SimCli, RemovedSpellingsAreUnknownFlags) {
  const fs::path dir = work_dir();
  for (const char* flag : {"--nodes 5", "--load 0.3", "--time 1", "--checkpoint-out x.ckpt"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_sim(dir, flag), 1);
    EXPECT_NE(read_file(dir / "sim.err").find("unknown flag"), std::string::npos);
  }
}

}  // namespace
}  // namespace aquamac
