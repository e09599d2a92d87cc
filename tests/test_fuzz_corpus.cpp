// Corpus regression gate (`ctest -L fuzz`): every artifact committed under
// tests/data/fuzz/ is a minimized reproducer of a failure the campaign
// once found. Each one must still (a) parse, (b) reproduce its recorded
// failure signature exactly, and (c) re-serialize byte-identically -- so a
// behaviour change that silently fixes, alters, or un-reproduces a known
// failure fails this test instead of passing unnoticed. The nightly soak
// job runs the same gate after extending the campaign. The corpus also
// pins that the front doors agree: hcsd's request parser reads each cell
// to the same CellKey and RunOptions the fuzz legs run with.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/strategy_registry.hpp"
#include "fault/fault_io.hpp"
#include "fuzz/campaign.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef HCS_FUZZ_CORPUS_DIR
#error "HCS_FUZZ_CORPUS_DIR must point at tests/data/fuzz"
#endif

namespace hcs::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(HCS_FUZZ_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("art_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FuzzCorpus, CommittedCorpusIsNonEmpty) {
  EXPECT_GE(corpus_files().size(), 3u)
      << "tests/data/fuzz must carry the seeded minimized artifacts";
}

TEST(FuzzCorpus, EveryArtifactReplaysByteIdentically) {
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    Artifact artifact;
    std::string error;
    ASSERT_TRUE(load_artifact(path.string(), &artifact, &error)) << error;

    // Content addressing: the file carries the hash of its own cell.
    EXPECT_EQ(path.filename().string(), artifact.file_name());
    // Byte-stable serialization: parse(dump) is the identity on disk.
    EXPECT_EQ(artifact.to_json().dump(), read_file(path));

    // The recorded failure must still reproduce, exactly.
    const CellResult result = run_cell(artifact.cell);
    EXPECT_EQ(result.signature(), artifact.signature);
  }
}

TEST(FuzzCorpus, HcsdParsesEveryCellToTheSameKeyAndOptions) {
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    Artifact artifact;
    std::string error;
    ASSERT_TRUE(load_artifact(path.string(), &artifact, &error)) << error;
    const CellSpec& spec = artifact.cell;

    // The cell minus the fuzz-only oracle fields is an hcsd cell.
    const Json written = spec.to_json();
    Json cell = Json::object();
    for (const auto& [name, value] : written.members()) {
      if (name != "expect" && name != "differential" && name != "shards") {
        cell.set(name, value);
      }
    }
    Json request = Json::object();
    request.set("id", std::uint64_t{1});
    request.set("op", "run");
    request.set("cell", std::move(cell));
    serve::Request req;
    ASSERT_TRUE(serve::parse_request(request.dump_compact(), &req, &error))
        << error;
    EXPECT_EQ(req.key, spec.key());

    // hcsd's options, with the visibility Session ORs in, against the
    // options the fuzz legs drive the engines with.
    sim::RunOptions served = req.key.run_options(req.delay);
    served.visibility = served.visibility ||
                        core::StrategyRegistry::instance()
                            .get(req.key.strategy)
                            .needs_visibility();
    const sim::RunOptions fuzzed = spec.run_options();
    EXPECT_EQ(served.policy, fuzzed.policy);
    EXPECT_EQ(served.seed, fuzzed.seed);
    EXPECT_EQ(served.visibility, fuzzed.visibility);
    EXPECT_EQ(served.semantics, fuzzed.semantics);
    EXPECT_EQ(served.max_agent_steps, fuzzed.max_agent_steps);
    EXPECT_EQ(served.livelock_window, fuzzed.livelock_window);
    EXPECT_EQ(fault::fault_spec_json(served.faults),
              fault::fault_spec_json(fuzzed.faults));
    EXPECT_EQ(fault::recovery_config_json(served.recovery),
              fault::recovery_config_json(fuzzed.recovery));
    EXPECT_EQ(served.engine, fuzzed.engine);
    // DelayModel is an opaque sampler: equal draws from equal seeds.
    EXPECT_EQ(served.delay.is_unit(), fuzzed.delay.is_unit());
    Rng a(spec.seed);
    Rng b(spec.seed);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(served.delay.sample(a), fuzzed.delay.sample(b));
    }
  }
}

}  // namespace
}  // namespace hcs::fuzz
