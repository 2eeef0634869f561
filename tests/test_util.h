// Shared test scaffolding: scratch directories, Env construction, and
// deterministic seeding. Every suite that touches the real filesystem or
// draws randomness should come through here instead of hand-rolling setup.

#ifndef FLOR_TESTS_TEST_UTIL_H_
#define FLOR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "common/random.h"
#include "env/env.h"
#include "flor/replay_plan.h"

namespace flor {
namespace testutil {

/// Deterministic base seed for all suites. Defaults to 42; export
/// FLOR_TEST_SEED=<n> to reproduce a failure observed under another seed.
/// `salt` derives independent streams from the same base.
inline uint64_t TestSeed(uint64_t salt = 0) {
  static const uint64_t base = [] {
    const char* s = std::getenv("FLOR_TEST_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 42ull;
  }();
  return base + salt;
}

/// Rng seeded from TestSeed(). Use distinct salts for independent streams
/// within one test so draws stay reproducible under reordering.
inline Rng SeededRng(uint64_t salt = 0) { return Rng(TestSeed(salt)); }

/// The standard record/replay harness: simulated clock over a borrowed
/// (usually in-memory) filesystem.
inline Env MakeSimEnv(FileSystem* fs) {
  return Env(std::make_unique<SimClock>(), fs);
}

/// A weak-init partitioned-replay request for the record run "run" at
/// G=`workers`; callers add tier or sampling fields as needed.
inline ClusterPlanOptions WeakPlan(int workers) {
  ClusterPlanOptions plan;
  plan.run_prefix = "run";
  plan.num_workers = workers;
  plan.init_mode = InitMode::kWeak;
  return plan;
}

/// Fixture owning a unique on-disk scratch directory, wiped on setup and
/// teardown. Use `root()` for raw paths or `NewPosixEnv()` for an Env
/// rooted inside the scratch space.
class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    // Parameterized test names contain '/'; flatten so the scratch root is
    // always a single directory under TempDir().
    std::string leaf = std::string("flor_") + info->test_suite_name() +
                       "_" + info->name();
    for (char& c : leaf) {
      if (c == '/' || c == '\\') c = '_';
    }
    root_ = (std::filesystem::path(::testing::TempDir()) / leaf).string();
    std::filesystem::remove_all(root_);
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  const std::string& root() const { return root_; }
  std::unique_ptr<Env> NewPosixEnv() const { return Env::NewPosixEnv(root_); }

 private:
  std::string root_;
};

}  // namespace testutil
}  // namespace flor

#endif  // FLOR_TESTS_TEST_UTIL_H_
