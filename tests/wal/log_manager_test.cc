#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"

namespace oib {
namespace {

LogRecord MakeRec(TxnId txn, LogRecordType type, std::string redo = "") {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.rm_id = RmId::kHeap;
  rec.opcode = 1;
  rec.page_id = 7;
  rec.redo = std::move(redo);
  return rec;
}

TEST(LogRecordTest, SerializationRoundTrip) {
  LogRecord rec;
  rec.prev_lsn = 123;
  rec.txn_id = 9;
  rec.type = LogRecordType::kClr;
  rec.rm_id = RmId::kBtree;
  rec.opcode = 42;
  rec.page_id = 88;
  rec.aux_id = 3;
  rec.undo_next_lsn = 55;
  rec.redo = "redo-bytes";
  rec.undo = "undo-bytes";

  std::string buf;
  rec.SerializeTo(&buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DeserializeFrom(buf, &out).ok());
  EXPECT_EQ(out.prev_lsn, 123u);
  EXPECT_EQ(out.txn_id, 9u);
  EXPECT_EQ(out.type, LogRecordType::kClr);
  EXPECT_EQ(out.rm_id, RmId::kBtree);
  EXPECT_EQ(out.opcode, 42);
  EXPECT_EQ(out.page_id, 88u);
  EXPECT_EQ(out.aux_id, 3u);
  EXPECT_EQ(out.undo_next_lsn, 55u);
  EXPECT_EQ(out.redo, "redo-bytes");
  EXPECT_EQ(out.undo, "undo-bytes");
}

TEST(LogRecordTest, RedoUndoClassification) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_TRUE(rec.RequiresUndo());
  rec.type = LogRecordType::kRedoOnly;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_FALSE(rec.RequiresUndo());
  rec.type = LogRecordType::kUndoOnly;
  EXPECT_FALSE(rec.RequiresRedo());
  EXPECT_TRUE(rec.RequiresUndo());
  rec.type = LogRecordType::kClr;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_FALSE(rec.RequiresUndo());
}

TEST(LogManagerTest, AppendAssignsMonotoneLsns) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "a");
  LogRecord b = MakeRec(1, LogRecordType::kUpdate, "b");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  EXPECT_GT(b.lsn, a.lsn);
}

TEST(LogManagerTest, ReadRecordRandomAccess) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "first");
  LogRecord b = MakeRec(2, LogRecordType::kCommit, "second");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  LogRecord out;
  ASSERT_TRUE(log.ReadRecord(a.lsn, &out).ok());
  EXPECT_EQ(out.redo, "first");
  ASSERT_TRUE(log.ReadRecord(b.lsn, &out).ok());
  EXPECT_EQ(out.redo, "second");
  EXPECT_EQ(out.txn_id, 2u);
}

TEST(LogManagerTest, CrashDropsUnflushedTail) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "durable");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  LogRecord b = MakeRec(1, LogRecordType::kUpdate, "volatile");
  ASSERT_TRUE(log.Append(&b).ok());
  log.DropUnflushed();

  int seen = 0;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    ++seen;
    EXPECT_EQ(rec.redo, "durable");
    return true;
  }).ok());
  EXPECT_EQ(seen, 1);
}

TEST(LogManagerTest, ScanFromLsn) {
  LogManager log;
  std::vector<Lsn> lsns;
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = MakeRec(1, LogRecordType::kUpdate, std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    lsns.push_back(rec.lsn);
  }
  ASSERT_TRUE(log.FlushAll().ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(log.ScanDurable(lsns[2], [&](const LogRecord& rec) {
    seen.push_back(rec.redo);
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"2", "3", "4"}));
}

TEST(LogManagerTest, ScanFromMidLogMatchesFullScanSuffix) {
  // Records of varied sizes; the last few stay unflushed.
  LogManager log;
  Random rng(7);
  std::vector<Lsn> lsns;
  for (int i = 0; i < 200; ++i) {
    LogRecord rec = MakeRec(TxnId(1 + i % 5), LogRecordType::kUpdate,
                            std::string(rng.Uniform(300), char('a' + i % 26)));
    rec.undo = std::to_string(i);
    rec.page_id = PageId(i);
    ASSERT_TRUE(log.Append(&rec).ok());
    lsns.push_back(rec.lsn);
    if (i == 189) {
      ASSERT_TRUE(log.FlushAll().ok());
    }
  }
  auto scan = [&](Lsn from) {
    std::vector<std::string> out;
    EXPECT_TRUE(log.ScanDurable(from, [&](const LogRecord& rec) {
      out.push_back(rec.ToString() + "|" + rec.redo + "|" + rec.undo);
      return true;
    }).ok());
    return out;
  };
  std::vector<std::string> full = scan(kInvalidLsn);
  ASSERT_EQ(full.size(), 190u);  // the durable prefix only
  for (size_t from : {size_t(1), size_t(97), size_t(189)}) {
    std::vector<std::string> tail = scan(lsns[from]);
    EXPECT_EQ(tail, std::vector<std::string>(full.begin() + from, full.end()))
        << "from record " << from;
  }
  // Starting at or past the durable end yields nothing.
  EXPECT_TRUE(scan(lsns[190]).empty());
  EXPECT_TRUE(scan(lsns[199]).empty());
}

TEST(LogManagerTest, FlushIsIdempotentForDurableLsn) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate);
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  Lsn flushed = log.flushed_lsn();
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  EXPECT_EQ(log.flushed_lsn(), flushed);
}

TEST(LogManagerTest, StatsByResourceManager) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate);
  a.rm_id = RmId::kHeap;
  LogRecord b = MakeRec(1, LogRecordType::kUpdate);
  b.rm_id = RmId::kBtree;
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  LogStats stats = log.stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.records_by_rm[static_cast<size_t>(RmId::kHeap)], 1u);
  EXPECT_EQ(stats.records_by_rm[static_cast<size_t>(RmId::kBtree)], 1u);
  EXPECT_GT(stats.bytes, 0u);
}

// --- concurrency coverage for the reservation-based append path ---
// (suite name matches the TSan CI job's `Stress` test filter)

// Concurrent appenders must produce a dense LSN space: sorting all
// assigned LSNs and walking the frame lengths reconstructs the byte
// stream with no gaps or overlaps, and every record reads back intact.
TEST(LogManagerStressTest, ConcurrentAppendsAreDenseAndReadable) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 800;
  LogManager log;
  std::vector<std::vector<std::pair<Lsn, std::string>>> appended(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(7 * t + 1);
      appended[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        // Variable payload sizes so reservations interleave unevenly.
        std::string body = "t" + std::to_string(t) + ":" + std::to_string(i) +
                           std::string(rng.Uniform(60), 'x');
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, body);
        ASSERT_TRUE(log.Append(&rec).ok());
        appended[t].emplace_back(rec.lsn, body);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::map<Lsn, std::string> by_lsn;
  for (const auto& per_thread : appended) {
    for (const auto& [lsn, body] : per_thread) {
      ASSERT_TRUE(by_lsn.emplace(lsn, body).second) << "duplicate lsn " << lsn;
    }
  }
  ASSERT_EQ(by_lsn.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(by_lsn.begin()->first, 1u);
  Lsn expect_next = 1;
  for (const auto& [lsn, body] : by_lsn) {
    EXPECT_EQ(lsn, expect_next) << "hole in the lsn space";
    LogRecord out;
    ASSERT_TRUE(log.ReadRecord(lsn, &out).ok());
    EXPECT_EQ(out.redo, body);
    std::string payload;
    out.SerializeTo(&payload);
    expect_next = lsn + 8 + payload.size();  // [len:u32][crc:u32][payload]
  }
  EXPECT_EQ(log.next_lsn(), expect_next);
}

// A ring much smaller than the appended volume forces appenders through
// the backpressure + help-drain path; everything must still flush and
// scan back in order.
TEST(LogManagerStressTest, TinyRingForcesDrainUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 600;
  LogManager log(64 * 1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // ~400-byte records: 4 threads * 600 * 400 ≈ 15x the ring.
        LogRecord rec =
            MakeRec(t + 1, LogRecordType::kUpdate, std::string(400, 'a' + t));
        ASSERT_TRUE(log.Append(&rec).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t seen = 0;
  Lsn prev = 0;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    EXPECT_GT(rec.lsn, prev);
    prev = rec.lsn;
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, uint64_t{kThreads} * kPerThread);
}

// Tiny records against the default (large) ring: the ring never exerts
// backpressure, so sealed-but-unconsumed slots pile up until sealers lap
// the seal array and must claim slots concurrently with the drain freeing
// them — the regression surface for the torn-seal race (a sealer preempted
// between observing a free slot and publishing let the next lap's sealer
// in, and their interleaved start/end writes produced a range spanning a
// whole lap, wedging DrainUntilLocked behind unpoppable pending ranges).
// A racing flusher keeps ConsumeSealedLocked live throughout.  With the
// bug, this hangs or loses records; with CAS claiming, the log is dense.
TEST(LogManagerStressTest, SealSlotLappingKeepsRangesIntact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;  // ~31 laps of the 1024 seal slots
  LogManager log;
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(log.FlushAll().ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, "s");
        ASSERT_TRUE(log.Append(&rec).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_relaxed);
  flusher.join();
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t seen = 0;
  Lsn prev = 0;
  uint64_t next = 1;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    EXPECT_GT(rec.lsn, prev);
    EXPECT_EQ(rec.lsn, next) << "hole or overlap in the drained stream";
    prev = rec.lsn;
    std::string payload;
    rec.SerializeTo(&payload);
    next = rec.lsn + 8 + payload.size();
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(log.next_lsn(), next);
}

// Appenders race a group-commit flusher; after a crash at whatever
// boundary the last flush reached, the durable log must be *prefix
// exact*: every record that starts below flushed_lsn is present and
// intact, no record at or beyond it survives, and the scan walks frames
// back-to-back with no torn bytes.
TEST(LogManagerStressTest, CrashAtRandomFlushBoundaryKeepsExactPrefix) {
  for (uint64_t round = 0; round < 3; ++round) {
    constexpr int kThreads = 3;
    constexpr int kPerThread = 400;
    LogManager log(128 * 1024);
    std::atomic<uint64_t> last_lsn{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rng(round * 100 + t);
        for (int i = 0; i < kPerThread; ++i) {
          std::string body =
              std::to_string(t) + ":" + std::string(rng.Uniform(100), 'p');
          LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, body);
          ASSERT_TRUE(log.Append(&rec).ok());
          uint64_t cur = last_lsn.load();
          while (rec.lsn > cur && !last_lsn.compare_exchange_weak(cur, rec.lsn)) {
          }
        }
      });
    }
    // Group-commit flusher: keeps moving the durable boundary to a recent
    // lsn while appends are still in flight.
    std::thread flusher([&] {
      Random rng(round + 42);
      while (!stop.load()) {
        Lsn target = last_lsn.load();
        if (target != kInvalidLsn && rng.Uniform(2) == 0) {
          ASSERT_TRUE(log.Flush(target).ok());
        }
        std::this_thread::yield();
      }
    });
    for (auto& th : threads) th.join();
    stop.store(true);
    flusher.join();

    // One more flush to a random mid-stream lsn, then crash: the boundary
    // lands wherever that flush (plus group-commit overshoot) put it.
    ASSERT_TRUE(log.Flush(1 + last_lsn.load() / 2).ok());
    Lsn boundary = log.flushed_lsn();
    log.DropUnflushed();
    EXPECT_EQ(log.flushed_lsn(), boundary);
    EXPECT_EQ(log.next_lsn(), boundary);  // tail discarded exactly

    Lsn expect_next = 1;
    uint64_t seen = 0;
    ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
      EXPECT_EQ(rec.lsn, expect_next) << "durable log has a hole";
      std::string payload;
      rec.SerializeTo(&payload);
      expect_next = rec.lsn + 8 + payload.size();
      ++seen;
      return true;
    }).ok());
    // Prefix exactness: the scan consumed every durable byte (no torn
    // record before the boundary, nothing readable past it).
    EXPECT_EQ(expect_next, boundary);
    EXPECT_GT(seen, 0u);
  }
}

// next_lsn()/flushed_lsn() are single atomic loads — hammer them from a
// reader thread while appends and flushes run, and require monotonicity.
TEST(LogManagerStressTest, ProgressReadsNeverGoBackwards) {
  LogManager log;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Lsn next_seen = 0, flushed_seen = 0;
    while (!stop.load()) {
      Lsn n = log.next_lsn();
      Lsn f = log.flushed_lsn();
      EXPECT_GE(n, next_seen);
      EXPECT_GE(f, flushed_seen);
      EXPECT_LE(f, log.next_lsn());
      next_seen = n;
      flushed_seen = f;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, "body");
        ASSERT_TRUE(log.Append(&rec).ok());
        if (i % 64 == 0) ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
}

// --- file sink (AttachFile) ---

class LogFileSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().Reset();
    path_ = (std::filesystem::temp_directory_path() /
             ("oib_wal_test_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().Reset();
    std::filesystem::remove(path_);
  }
  // Flips one byte of the log file in place.
  void FlipByte(long offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  std::vector<std::string> ScanBodies(LogManager* log) {
    std::vector<std::string> bodies;
    EXPECT_TRUE(log->ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
      bodies.push_back(rec.redo);
      return true;
    }).ok());
    return bodies;
  }
  std::string path_;
};

TEST_F(LogFileSinkTest, RoundTripAcrossReattach) {
  Lsn flushed;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_TRUE(log.has_file());
    for (int i = 0; i < 5; ++i) {
      LogRecord rec = MakeRec(1, LogRecordType::kUpdate, "rec" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.FlushAll().ok());
    flushed = log.flushed_lsn();
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    // The durable prefix is rebuilt from the file, byte-exact.
    EXPECT_EQ(log.flushed_lsn(), flushed);
    EXPECT_EQ(ScanBodies(&log),
              (std::vector<std::string>{"rec0", "rec1", "rec2", "rec3", "rec4"}));
    // New appends continue after the recovered prefix.
    LogRecord rec = MakeRec(2, LogRecordType::kCommit, "rec5");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_GE(rec.lsn, flushed);
    ASSERT_TRUE(log.FlushAll().ok());
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log).size(), 6u);
  }
}

TEST_F(LogFileSinkTest, AttachRequiresEmptyLog) {
  LogManager log;
  LogRecord rec = MakeRec(1, LogRecordType::kUpdate, "x");
  ASSERT_TRUE(log.Append(&rec).ok());
  EXPECT_TRUE(log.AttachFile(path_).IsInvalidArgument());
}

// The satellite regression test: a torn write *inside* a frame body (all
// length fields intact) must truncate the scan tail, not replay garbage.
TEST_F(LogFileSinkTest, ByteFlippedFrameBodyTruncatesTail) {
  Lsn second_lsn;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "good");
    LogRecord b = MakeRec(1, LogRecordType::kUpdate, "flipped");
    LogRecord c = MakeRec(1, LogRecordType::kCommit, "unreachable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.Append(&c).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    second_lsn = b.lsn;
  }
  // Flip one byte inside b's payload: frame starts at lsn - 1, payload at
  // frame + 8.  The length prefix stays valid, so only the CRC can catch it.
  FlipByte(long(second_lsn - 1 + 8 + 2));
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    // Everything from the corrupt frame on is untrustworthy and gone —
    // including c, whose own frame is intact.
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"good"}));
    EXPECT_EQ(log.flushed_lsn(), second_lsn);
  }
}

TEST_F(LogFileSinkTest, IncompleteTailFrameTruncatedAtAttach) {
  Lsn second_lsn;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "keep");
    LogRecord b = MakeRec(1, LogRecordType::kUpdate, "torn-off");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    second_lsn = b.lsn;
  }
  // Chop the file mid-way through b's frame, as a crash mid-write would.
  std::filesystem::resize_file(path_, second_lsn - 1 + 3);
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"keep"}));
    // Appending after recovery reuses the truncated range cleanly.
    LogRecord c = MakeRec(2, LogRecordType::kCommit, "after");
    ASSERT_TRUE(log.Append(&c).ok());
    ASSERT_TRUE(log.FlushAll().ok());
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"keep", "after"}));
  }
}

TEST_F(LogFileSinkTest, TransientFlushErrorIsRetried) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointRegistry::Instance().Arm("wal.flush");  // fires once
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "retried");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(FailPointRegistry::Instance().fired_count("wal.flush"), 1);
  EXPECT_GE(log.flushed_lsn(), rec.lsn);
}

TEST_F(LogFileSinkTest, ShortWriteIsRetriedAndRepaired) {
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    FailPointPolicy policy;
    policy.action = FailPointAction::kShortWrite;
    policy.arg = 3;  // only 3 bytes of the flush land the first time
    FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
    LogRecord rec = MakeRec(1, LogRecordType::kCommit, "whole");
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"whole"}));
}

TEST_F(LogFileSinkTest, PersistentFlushErrorLeavesBoundaryBehind) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointPolicy policy;
  policy.action = FailPointAction::kReturnError;
  policy.max_fires = -1;
  FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "stuck");
  ASSERT_TRUE(log.Append(&rec).ok());
  Lsn before = log.flushed_lsn();
  EXPECT_TRUE(log.Flush(rec.lsn).IsInjected());
  EXPECT_EQ(log.flushed_lsn(), before);
  // Once the fault clears, the same flush goes through.
  FailPointRegistry::Instance().Disarm("wal.flush");
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_GE(log.flushed_lsn(), rec.lsn);
}

TEST_F(LogFileSinkTest, FsyncFailpointIsRetried) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointRegistry::Instance().Arm("wal.fsync");
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "synced");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(FailPointRegistry::Instance().fired_count("wal.fsync"), 1);
}

// A torn flush kills the process (torn-implies-death invariant) and the
// attach-time scan in the next process discards the scrambled tail.
TEST_F(LogFileSinkTest, TornFlushKillsProcessAndPrefixSurvives) {
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "durable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.FlushAll().ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: tear the next flush 4 bytes in.  FailPointHardAbort SIGKILLs,
    // so nothing below the flush call runs.
    LogManager log;
    if (!log.AttachFile(path_).ok()) _exit(2);
    FailPointPolicy policy;
    policy.action = FailPointAction::kTornWrite;
    policy.arg = 4;
    FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
    LogRecord b = MakeRec(1, LogRecordType::kCommit, "torn-away");
    if (!log.Append(&b).ok()) _exit(3);
    (void)log.FlushAll();
    _exit(4);  // unreachable if the failpoint fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"durable"}));
}

}  // namespace
}  // namespace oib
