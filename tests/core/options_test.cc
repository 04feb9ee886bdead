// ValidateOptions: malformed engine options must be rejected at
// construction with InvalidArgument, not discovered as corruption or
// division-by-zero deep inside a build.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  // Opens an engine with `options` over a fresh in-memory env and returns
  // the construction status.
  Status TryOpen(const Options& options) {
    auto env = Env::InMemory(options);
    auto engine = Engine::Open(options, env.get());
    return engine.status();
  }
};

TEST_F(OptionsTest, DefaultsAreValid) {
  Options options;
  EXPECT_OK(ValidateOptions(options));
  EXPECT_OK(TryOpen(options));
}

TEST_F(OptionsTest, RejectsZeroBuildThreads) {
  Options options;
  options.build_threads = 0;
  Status s = TryOpen(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsZeroMergeBatch) {
  Options options;
  options.merge_batch_keys = 0;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsZeroSortWorkspace) {
  Options options;
  options.sort_workspace_keys = 0;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsTinyPageSize) {
  Options options;
  options.page_size = 64;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsBadFanin) {
  Options options;
  options.sort_merge_fanin = 1;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsBadFillFactor) {
  Options options;
  options.leaf_fill_factor = 0.0;
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
  options.leaf_fill_factor = 1.5;
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
}

TEST_F(OptionsTest, RejectsNonPowerOfTwoShards) {
  Options options;
  options.buffer_pool_shards = 3;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  options.buffer_pool_shards = 8;
  EXPECT_OK(ValidateOptions(options));
  options.buffer_pool_shards = 0;  // auto
  EXPECT_OK(ValidateOptions(options));
}

TEST_F(OptionsTest, RejectsBadWalRing) {
  Options options;
  options.wal_ring_bytes = 1000;  // not a power of two
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
  options.wal_ring_bytes = 4096;  // too small
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
  options.wal_ring_bytes = 1 << 17;
  EXPECT_OK(ValidateOptions(options));
}

TEST_F(OptionsTest, ValidationFailureNamesTheField) {
  Options options;
  options.build_threads = 0;
  Status s = ValidateOptions(options);
  EXPECT_NE(s.ToString().find("build_threads"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace oib
