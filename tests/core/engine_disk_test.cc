// Engine / recovery flows parameterized over the durable world: every
// case runs once on InMemoryDisk and once on FileDisk (real files, with
// crash cycles that re-attach from disk — see EngineTest::CrashAndRestart).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/index_builder.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class EngineOnDiskTest : public EngineDiskTest {
 protected:
  BuildParams Params(TableId table, BuildAlgo algo) {
    BuildParams p;
    p.name = "idx";
    p.table = table;
    p.unique = false;
    p.key_cols = {0};
    (void)algo;
    return p;
  }

  uint64_t CountRows(TableId table) {
    uint64_t n = 0;
    EXPECT_OK(engine_->catalog()->table(table)->ForEach(
        [&](const Rid&, std::string_view) { ++n; }));
    return n;
  }
};

TEST_P(EngineOnDiskTest, CommittedRowsSurviveCrash) {
  TableId table = MakeTable();
  Populate(table, 500);
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 500u);
  EXPECT_GT(recovery_stats_.records_scanned, 0u);
}

TEST_P(EngineOnDiskTest, UncommittedTxnRolledBackAtRestart) {
  TableId table = MakeTable();
  Populate(table, 100);
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine_->records()
                  ->InsertRecord(txn, table,
                                 Schema::EncodeRecord(
                                     {"loser" + std::to_string(i), "p"}))
                  .status());
  }
  // Make the loser's records durable in the log without committing.
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.loser_txns, 1u);
  EXPECT_EQ(CountRows(table), 100u);
}

TEST_P(EngineOnDiskTest, DropUnflushedBoundaryKeepsExactlyCommittedState) {
  // Commit N batches; the WAL is fsynced at each commit, so the crash
  // (which drops everything after the durable boundary) must preserve
  // every committed batch and nothing of the in-flight one.
  TableId table = MakeTable();
  Populate(table, 50);
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* txn = engine_->Begin();
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          engine_->records()
              ->InsertRecord(txn, table,
                             Schema::EncodeRecord(
                                 {"b" + std::to_string(batch) + "_" +
                                      std::to_string(i),
                                  "p"}))
              .status());
    }
    ASSERT_OK(engine_->Commit(txn));
  }
  // In-flight txn: never flushed, must vanish entirely.
  Transaction* inflight = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(inflight, table,
                               Schema::EncodeRecord({"inflight", "p"}))
                .status());
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 50u + 5 * 20u);
}

TEST_P(EngineOnDiskTest, CheckpointBoundsRedoAndStateSurvives) {
  TableId table = MakeTable();
  Populate(table, 300);
  ASSERT_OK(engine_->Checkpoint());
  uint64_t before = 0;
  {
    CrashAndRestart();
    before = recovery_stats_.records_scanned;
    EXPECT_EQ(CountRows(table), 300u);
  }
  Populate(table, 300);  // appends 300 more rows after the checkpoint
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 600u);
  EXPECT_GT(recovery_stats_.records_scanned, before);
}

TEST_P(EngineOnDiskTest, NsfBuildResumesAcrossCrash) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.insert_batch", 40);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table, BuildAlgo::kNsf), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  EXPECT_LT(stats.ib.inserted, 3000u);  // resumed from the checkpoint
  ExpectIndexConsistent(table, index);
}

TEST_P(EngineOnDiskTest, SfBuildResumesAcrossCrash) {
  TableId table = MakeTable();
  Populate(table, 2000);
  options_.sort_checkpoint_every_keys = 400;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("sf.scan", 10);
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table, BuildAlgo::kSf), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  SfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, nullptr));
  auto descs = engine_->catalog()->IndexesOf(table);
  ASSERT_EQ(descs.size(), 1u);
  ExpectIndexConsistent(table, descs[0].id);
}

TEST_P(EngineOnDiskTest, DoubleCrashIsIdempotent) {
  TableId table = MakeTable();
  Populate(table, 250);
  CrashAndRestart();
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 250u);
  // The engine stays writable after repeated recoveries.
  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn, table,
                               Schema::EncodeRecord({"after", "p"}))
                .status());
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_EQ(CountRows(table), 251u);
}

INSTANTIATE_TEST_SUITE_P(Disks, EngineOnDiskTest,
                         ::testing::Values(DiskKind::kInMemory,
                                           DiskKind::kFile),
                         DiskParamName);

}  // namespace
}  // namespace oib
