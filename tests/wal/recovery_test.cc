#include "wal/recovery.h"

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "btree/tree_verifier.h"
#include "tests/test_util.h"

namespace oib {
namespace {

TEST(CheckpointPayloadTest, RoundTrip) {
  std::vector<std::pair<TxnId, Lsn>> active = {{3, 100}, {9, 250}};
  std::string blob = EncodeCheckpointPayload(active);
  std::vector<std::pair<TxnId, Lsn>> out;
  ASSERT_TRUE(DecodeCheckpointPayload(blob, &out).ok());
  EXPECT_EQ(out, active);
  EXPECT_TRUE(DecodeCheckpointPayload("junk", &out).IsCorruption());
}

class RecoveryTest : public EngineTest {};

TEST_F(RecoveryTest, RedoIsIdempotentAcrossDoubleRestart) {
  TableId table = MakeTable();
  Populate(table, 300);
  CrashAndRestart();
  CrashAndRestart();  // second recovery replays over already-redone pages
  HeapFile* heap = engine_->catalog()->table(table);
  uint64_t count = 0;
  ASSERT_OK(heap->ForEach([&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 300u);
}

TEST_F(RecoveryTest, TxnIdsAdvancePastRecoveredOnes) {
  TableId table = MakeTable();
  Transaction* t1 = engine_->Begin();
  TxnId before = t1->id();
  ASSERT_OK(engine_->records()
                ->InsertRecord(t1, table,
                               Schema::EncodeRecord({"aaaa", "b"}))
                .status());
  ASSERT_OK(engine_->Commit(t1));
  CrashAndRestart();
  Transaction* t2 = engine_->Begin();
  EXPECT_GT(t2->id(), before);
  ASSERT_OK(engine_->Rollback(t2));
}

TEST_F(RecoveryTest, CrashDuringRollbackFinishesUndoAtRestart) {
  // CLRs guarantee rollback completes exactly once even when interrupted.
  TableId table = MakeTable();
  auto rids = Populate(table, 10);

  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rids[3]));
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rids[7]));
  // Flush everything logged so far, then "crash" without finishing: the
  // restart must roll the loser back.
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_GE(recovery_stats_.loser_txns, 1u);
  HeapFile* heap = engine_->catalog()->table(table);
  EXPECT_TRUE(heap->Exists(rids[3]));
  EXPECT_TRUE(heap->Exists(rids[7]));

  // Crash again right after: the CLRs from the first undo replay as
  // redo-only and the txn stays ended (no double-undo).
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.loser_txns, 0u);
  heap = engine_->catalog()->table(table);
  EXPECT_TRUE(heap->Exists(rids[3]));
}

// Split-heavy redo: 3000 B+-tree inserts split leaves and grow the root
// repeatedly, and none of those pages reach disk before the crash, so
// restart must replay every split and new-root record in log order.
TEST(RedoTest, SplitHeavyWorldRecoversVerifiedTree) {
  constexpr int kKeys = 3000;
  auto key_of = [](int i) {
    char key[16];
    snprintf(key, sizeof(key), "%08d", (i * 7919) % 100000);  // distinct
    return std::string(key);
  };
  Options options;
  options.buffer_pool_pages = 2048;
  auto env = Env::InMemory(options);
  IndexId index = kInvalidIndexId;
  {
    auto engine = Engine::Open(options, env.get());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto table = (*engine)->catalog()->CreateTable("t");
    ASSERT_TRUE(table.ok());
    WorkloadOptions wo;
    ASSERT_OK(Workload::Populate(engine->get(), *table, 200, wo).status());
    auto desc = (*engine)->catalog()->CreateIndex("idx", *table, false, {0},
                                                  BuildAlgo::kOffline);
    ASSERT_TRUE(desc.ok());
    index = desc->id;
    BTree* tree = (*engine)->catalog()->index(index);
    Transaction* txn = (*engine)->Begin();
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_OK(tree->Insert(txn, key_of(i), Rid(uint32_t(i), 0)).status());
    }
    ASSERT_OK((*engine)->Commit(txn));
    ASSERT_OK((*engine)->SimulateCrash());
  }

  RecoveryStats stats;
  auto engine = Engine::Restart(options, env.get(), &stats);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(stats.records_redone, uint64_t(kKeys));
  EXPECT_EQ(stats.redo_ns, 0u);  // redo is timed inside analysis_ns
  BTree* tree = (*engine)->catalog()->index(index);
  ASSERT_NE(tree, nullptr);
  TreeVerifier tv(tree, (*engine)->pool());
  ASSERT_OK_AND_ASSIGN(TreeCheckReport report, tv.Check());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.entries, uint64_t(kKeys));
  EXPECT_GT(report.height, 1u);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK_AND_ASSIGN(BTree::ValueMatch m, tree->FindKeyValue(key_of(i)));
    ASSERT_TRUE(m.found) << key_of(i);
    EXPECT_EQ(m.rid, Rid(uint32_t(i), 0));
    EXPECT_FALSE(m.pseudo_deleted);
  }
}

TEST_F(RecoveryTest, LatePagesRedoneFromLog) {
  // A committed change whose page never reached disk must be redone.
  TableId table = MakeTable();
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(
      Rid rid, engine_->records()->InsertRecord(
                   txn, table, Schema::EncodeRecord({"zzzz", "vvv"})));
  ASSERT_OK(engine_->Commit(txn));  // forces the log, not the pages
  CrashAndRestart();
  EXPECT_GT(recovery_stats_.records_redone, 0u);
  ASSERT_OK_AND_ASSIGN(std::string rec,
                       engine_->catalog()->table(table)->Get(rid));
  std::vector<std::string> fields;
  ASSERT_OK(Schema::DecodeRecord(rec, &fields));
  EXPECT_EQ(fields[0], "zzzz");
}

// Builds the same world, deterministically, in a fresh in-memory Env and
// crashes it: committed inserts into an indexed table, plus a loser
// transaction whose deletes reached the log.  The pool is far smaller than
// the pages redo touches, so read-ahead evicts.
std::unique_ptr<Env> CrashedWorld(const Options& options) {
  auto env = Env::InMemory(options);
  auto engine = Engine::Open(options, env.get());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return env;
  Engine* e = engine->get();
  auto table = e->catalog()->CreateTable("t");
  EXPECT_TRUE(table.ok());
  auto desc = e->catalog()->CreateIndex("idx", *table, false, {0},
                                        BuildAlgo::kOffline);
  EXPECT_TRUE(desc.ok());
  std::vector<Rid> rids;
  for (int batch = 0; batch < 6; ++batch) {
    Transaction* txn = e->Begin();
    for (int i = 0; i < 500; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "%08d", ((batch * 500 + i) * 7919) % 100000);
      auto rid = e->records()->InsertRecord(
          txn, *table, Schema::EncodeRecord({key, std::string(40, 'p')}));
      EXPECT_TRUE(rid.ok());
      if (!rid.ok()) return env;
      rids.push_back(*rid);
    }
    EXPECT_TRUE(e->Commit(txn).ok());
  }
  Transaction* loser = e->Begin();
  for (size_t i = 0; i < rids.size(); i += 7) {
    EXPECT_TRUE(e->records()->DeleteRecord(loser, *table, rids[i]).ok());
  }
  EXPECT_TRUE(e->log()->FlushAll().ok());
  EXPECT_TRUE(e->SimulateCrash().ok());
  return env;
}

TEST(RecoveryReadAheadTest, RestartWithAndWithoutReadAheadIsByteIdentical) {
  Options options;
  options.buffer_pool_pages = 64;  // read-ahead window 8
  options.buffer_pool_shards = 4;  // the same frames per shard on any host
  std::unique_ptr<Env> envs[2] = {CrashedWorld(options),
                                  CrashedWorld(options)};
  RecoveryStats stats[2];
  for (int i = 0; i < 2; ++i) {
    auto* disk = static_cast<InMemoryDisk*>(envs[i]->disk.get());
    disk->set_read_delay_us(i == 0 ? 1 : 0);  // world 0 reads ahead
    auto engine = Engine::Restart(options, envs[i].get(), &stats[i]);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->pool()->ReadAheadWindow(), i == 0 ? 8u : 0u);
    if (i == 0) {
      EXPECT_GT((*engine)->pool()->prefetch_issued(), 0u);
    }
    ASSERT_OK((*engine)->FlushAll());
    disk->set_read_delay_us(0);
  }
  EXPECT_EQ(stats[0].records_redone, stats[1].records_redone);
  EXPECT_EQ(stats[0].loser_txns, 1u);
  EXPECT_EQ(envs[0]->log.next_lsn(), envs[1]->log.next_lsn());
  DiskManager* a = envs[0]->disk.get();
  DiskManager* b = envs[1]->disk.get();
  ASSERT_EQ(a->PageCount(), b->PageCount());
  std::string pa(a->page_size(), '\0'), pb(b->page_size(), '\0');
  for (PageId id = 0; id < a->PageCount(); ++id) {
    ASSERT_OK(a->ReadPage(id, pa.data()));
    ASSERT_OK(b->ReadPage(id, pb.data()));
    ASSERT_EQ(pa, pb) << "page " << id;
  }
}

}  // namespace
}  // namespace oib
