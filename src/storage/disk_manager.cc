#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/posix_io.h"

namespace oib {

// --------------------------- InMemoryDisk ---------------------------

Status InMemoryDisk::ReadPage(PageId page_id, char* out) {
  {
    sync::MutexLock g(&mu_);
    if (page_id >= pages_.size()) {
      return Status::IoError("read of unallocated page " +
                             std::to_string(page_id));
    }
    std::memcpy(out, pages_[page_id].data(), page_size_);
    ++reads_;
  }
  uint32_t delay = read_delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  return Status::OK();
}

Status InMemoryDisk::WritePage(PageId page_id, const char* data) {
  sync::MutexLock g(&mu_);
  if (page_id >= pages_.size()) {
    return Status::IoError("write of unallocated page " +
                           std::to_string(page_id));
  }
  pages_[page_id].assign(data, page_size_);
  ++writes_;
  return Status::OK();
}

StatusOr<PageId> InMemoryDisk::AllocatePage() {
  sync::MutexLock g(&mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    pages_[id].assign(page_size_, '\0');
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.emplace_back(page_size_, '\0');
  return id;
}

StatusOr<PageId> InMemoryDisk::AllocatePageNoReuse() {
  sync::MutexLock g(&mu_);
  PageId id = static_cast<PageId>(pages_.size());
  pages_.emplace_back(page_size_, '\0');
  return id;
}

Status InMemoryDisk::FreePage(PageId page_id) {
  sync::MutexLock g(&mu_);
  if (page_id >= pages_.size()) {
    return Status::InvalidArgument("free of unallocated page");
  }
  free_list_.push_back(page_id);
  return Status::OK();
}

PageId InMemoryDisk::PageCount() const {
  sync::MutexLock g(&mu_);
  return static_cast<PageId>(pages_.size());
}

Status InMemoryDisk::PutMeta(const std::string& key,
                             const std::string& value) {
  sync::MutexLock g(&mu_);
  for (auto& kv : meta_) {
    if (kv.first == key) {
      kv.second = value;
      return Status::OK();
    }
  }
  meta_.emplace_back(key, value);
  return Status::OK();
}

Status InMemoryDisk::GetMeta(const std::string& key, std::string* value) {
  sync::MutexLock g(&mu_);
  for (const auto& kv : meta_) {
    if (kv.first == key) {
      *value = kv.second;
      return Status::OK();
    }
  }
  return Status::NotFound("meta key " + key);
}

uint64_t InMemoryDisk::reads() const {
  sync::MutexLock g(&mu_);
  return reads_;
}

uint64_t InMemoryDisk::writes() const {
  sync::MutexLock g(&mu_);
  return writes_;
}

// ----------------------------- FileDisk -----------------------------
//
// On-disk layout of the page store:
//   slot i at byte offset i * (page_size + kPageTrailerSize):
//     [page bytes: page_size][masked CRC32C: 4][page-id echo: 4]
// The CRC covers the page bytes followed by the 4 echo bytes, so a slot
// that is torn, stale-mixed-with-new, or written to the wrong offset
// fails verification.  `<path>.dw` holds the last slot written (the
// double-write journal); `<path>.meta` holds the metadata blob:
//     [count: 4][len-prefixed key/value pairs...][masked CRC32C: 4]

namespace {

// Retry budget for transient I/O errors (including failpoint-injected
// ones): attempts are spaced 50us, 100us, 200us apart.
constexpr int kMaxIoAttempts = 4;
constexpr uint32_t kBackoffBaseUs = 50;

// fsync the page file's metadata (its length) whenever it grows past a
// multiple of this, so a power loss cannot silently shrink the file by
// more than one boundary's worth of freshly extended pages.
constexpr uint64_t kMetaSyncBoundary = 4u << 20;

constexpr uint32_t kDwMagic = 0x4f494244;  // "OIBD"
constexpr size_t kDwHeaderSize = 16;       // magic, page_id, len, crc

bool IsTransientIoError(const Status& s) {
  // Corruption is never transient: retrying a CRC mismatch re-reads the
  // same bad bytes.
  return s.IsInjected() || s.IsIoError();
}

void Backoff(int attempt) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(kBackoffBaseUs << (attempt - 1)));
}

}  // namespace

StatusOr<std::unique_ptr<FileDisk>> FileDisk::Open(const std::string& path,
                                                   size_t page_size) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  int dw_fd =
      ::open((path + ".dw").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (dw_fd < 0) {
    ::close(fd);
    return Status::IoError("cannot open " + path + ".dw: " +
                           std::strerror(errno));
  }
  auto disk =
      std::unique_ptr<FileDisk>(new FileDisk(path, fd, dw_fd, page_size));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError(std::string("fstat: ") + std::strerror(errno));
  }
  sync::MutexLock g(&disk->mu_);
  uint64_t size = uint64_t(st.st_size);
  if (size % disk->slot_size() != 0) {
    // A crash mid-extend left a partial trailing slot; the page was never
    // exposed to the caller (AllocatePage did not return), so drop it.
    size -= size % disk->slot_size();
    if (::ftruncate(fd, off_t(size)) != 0) {
      return Status::IoError(std::string("ftruncate: ") +
                             std::strerror(errno));
    }
  }
  disk->page_count_ = PageId(size / disk->slot_size());
  disk->meta_synced_size_ = size;
  OIB_RETURN_IF_ERROR(disk->RecoverDoubleWriteLocked());
  Status s = disk->LoadMeta();
  if (!s.ok() && !s.IsNotFound()) return s;
  return disk;
}

FileDisk::~FileDisk() {
  if (fd_ >= 0) ::close(fd_);
  if (dw_fd_ >= 0) ::close(dw_fd_);
}

std::string FileDisk::ComposeSlot(PageId page_id, const char* data) const {
  std::string slot(data, page_size_);
  std::string echo;
  PutFixed32(&echo, page_id);
  uint32_t crc = crc32c::Extend(crc32c::Value(data, page_size_), echo.data(),
                                echo.size());
  PutFixed32(&slot, crc32c::Mask(crc));
  slot += echo;
  return slot;
}

Status FileDisk::VerifySlot(PageId page_id, const char* slot,
                            char* out) const {
  uint32_t stored_crc = DecodeFixed32(slot + page_size_);
  uint32_t echo = DecodeFixed32(slot + page_size_ + 4);
  uint32_t crc = crc32c::Extend(crc32c::Value(slot, page_size_),
                                slot + page_size_ + 4, 4);
  if (crc32c::Unmask(stored_crc) != crc) {
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": checksum mismatch (torn write?)");
  }
  if (echo != page_id) {
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": misdirected slot (echo says " +
                              std::to_string(echo) + ")");
  }
  if (out != nullptr) std::memcpy(out, slot, page_size_);
  return Status::OK();
}

Status FileDisk::ReadSlotLocked(PageId page_id, char* out) {
  OIB_FAIL_POINT("filedisk.read");
  std::string slot(slot_size(), '\0');
  OIB_RETURN_IF_ERROR(PreadFull(fd_, slot.data(), slot.size(),
                                uint64_t(page_id) * slot_size()));
  return VerifySlot(page_id, slot.data(), out);
}

Status FileDisk::ReadPage(PageId page_id, char* out) {
  sync::MutexLock g(&mu_);
  if (page_id >= page_count_) {
    return Status::IoError("read of unallocated page " +
                           std::to_string(page_id));
  }
  Status s;
  for (int attempt = 1; attempt <= kMaxIoAttempts; ++attempt) {
    if (attempt > 1) Backoff(attempt - 1);
    s = ReadSlotLocked(page_id, out);
    if (s.ok()) {
      ++reads_;
      return s;
    }
    if (!IsTransientIoError(s)) break;
  }
  return s;
}

Status FileDisk::WriteSlotLocked(PageId page_id, const std::string& slot) {
  FailPointHit hit;
  OIB_FAIL_POINT_HIT("filedisk.write", hit);
  if (hit.action == FailPointAction::kReturnError ||
      hit.action == FailPointAction::kAbort) {
    // kAbort never reaches here (Evaluate kills the process).
    return Status::Injected("filedisk.write");
  }

  // Journal first: once the journal record is down, a crash at any point
  // during the in-place write is recoverable at the next Open.
  std::string dw;
  PutFixed32(&dw, kDwMagic);
  PutFixed32(&dw, page_id);
  PutFixed32(&dw, uint32_t(slot.size()));
  PutFixed32(&dw, crc32c::Mask(crc32c::Value(slot.data(), slot.size())));
  dw += slot;
  OIB_RETURN_IF_ERROR(PwriteFull(dw_fd_, dw.data(), dw.size(), 0));

  uint64_t off = uint64_t(page_id) * slot_size();
  if (hit.action == FailPointAction::kShortWrite) {
    // Simulated transient short write: the kernel accepted a prefix; the
    // slot is now torn on disk and the caller sees an error.  A retry (or
    // double-write recovery after a crash) repairs it.
    size_t n = std::min(size_t(hit.arg), slot.size() - 1);
    OIB_RETURN_IF_ERROR(PwriteFull(fd_, slot.data(), n, off));
    return Status::Injected("filedisk.write: short write");
  }
  if (hit.action == FailPointAction::kTornWrite) {
    // Simulated crash mid-write: a prefix lands, the tail is garbage, and
    // the process dies — a torn write the process survives cannot exist.
    std::string torn = slot;
    for (size_t i = std::min(size_t(hit.arg), torn.size() - 1);
         i < torn.size(); ++i) {
      torn[i] = char(torn[i] ^ 0xa5);
    }
    (void)PwriteFull(fd_, torn.data(), torn.size(), off);
    FailPointHardAbort("filedisk.write");
  }
  return PwriteFull(fd_, slot.data(), slot.size(), off);
}

Status FileDisk::WritePage(PageId page_id, const char* data) {
  sync::MutexLock g(&mu_);
  if (page_id >= page_count_) {
    return Status::IoError("write of unallocated page " +
                           std::to_string(page_id));
  }
  std::string slot = ComposeSlot(page_id, data);
  Status s;
  for (int attempt = 1; attempt <= kMaxIoAttempts; ++attempt) {
    if (attempt > 1) Backoff(attempt - 1);
    s = WriteSlotLocked(page_id, slot);
    if (s.ok()) {
      ++writes_;
      return s;
    }
    if (!IsTransientIoError(s)) break;
  }
  return s;
}

Status FileDisk::ExtendLocked(PageId page_id) {
  std::string zeros(page_size_, '\0');
  std::string slot = ComposeSlot(page_id, zeros.data());
  OIB_RETURN_IF_ERROR(
      PwriteFull(fd_, slot.data(), slot.size(), uint64_t(page_id) * slot_size()));
  // First growth past a sync boundary also fsyncs the file metadata so
  // the new length is durable, not just the data blocks.
  uint64_t new_size = uint64_t(page_id + 1) * slot_size();
  if (new_size / kMetaSyncBoundary != meta_synced_size_ / kMetaSyncBoundary) {
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("fsync: ") + std::strerror(errno));
    }
    meta_synced_size_ = new_size;
  }
  return Status::OK();
}

StatusOr<PageId> FileDisk::AllocatePage() {
  sync::MutexLock g(&mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  PageId id = page_count_;
  OIB_RETURN_IF_ERROR(ExtendLocked(id));
  ++page_count_;
  return id;
}

StatusOr<PageId> FileDisk::AllocatePageNoReuse() {
  sync::MutexLock g(&mu_);
  PageId id = page_count_;
  OIB_RETURN_IF_ERROR(ExtendLocked(id));
  ++page_count_;
  return id;
}

Status FileDisk::FreePage(PageId page_id) {
  sync::MutexLock g(&mu_);
  free_list_.push_back(page_id);
  return Status::OK();
}

PageId FileDisk::PageCount() const {
  sync::MutexLock g(&mu_);
  return page_count_;
}

Status FileDisk::Sync() {
  sync::MutexLock g(&mu_);
  OIB_FAIL_POINT("filedisk.sync");
  if (::fsync(fd_) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd_, &st) == 0) meta_synced_size_ = uint64_t(st.st_size);
  return Status::OK();
}

Status FileDisk::PutMeta(const std::string& key, const std::string& value) {
  sync::MutexLock g(&mu_);
  OIB_FAIL_POINT("filedisk.meta");
  bool found = false;
  for (auto& kv : meta_) {
    if (kv.first == key) {
      kv.second = value;
      found = true;
      break;
    }
  }
  if (!found) meta_.emplace_back(key, value);
  // On failure the in-memory map is ahead of the file; the next
  // successful StoreMeta rewrites the whole blob, so no tear persists.
  return StoreMeta();
}

Status FileDisk::GetMeta(const std::string& key, std::string* value) {
  sync::MutexLock g(&mu_);
  for (const auto& kv : meta_) {
    if (kv.first == key) {
      *value = kv.second;
      return Status::OK();
    }
  }
  return Status::NotFound("meta key " + key);
}

uint64_t FileDisk::reads() const {
  sync::MutexLock g(&mu_);
  return reads_;
}

uint64_t FileDisk::writes() const {
  sync::MutexLock g(&mu_);
  return writes_;
}

Status FileDisk::RecoverDoubleWriteLocked() {
  struct stat st;
  if (::fstat(dw_fd_, &st) != 0 || uint64_t(st.st_size) < kDwHeaderSize) {
    return Status::OK();  // empty or absent journal: nothing in flight
  }
  std::string header(kDwHeaderSize, '\0');
  OIB_RETURN_IF_ERROR(PreadFull(dw_fd_, header.data(), header.size(), 0));
  if (DecodeFixed32(header.data()) != kDwMagic) return Status::OK();
  PageId page_id = DecodeFixed32(header.data() + 4);
  uint32_t len = DecodeFixed32(header.data() + 8);
  uint32_t crc = DecodeFixed32(header.data() + 12);
  if (len != slot_size() || uint64_t(st.st_size) < kDwHeaderSize + len) {
    // Journal from a different geometry or itself torn: the in-place
    // write it would cover never started, so the main file is intact.
    return Status::OK();
  }
  std::string slot(len, '\0');
  OIB_RETURN_IF_ERROR(PreadFull(dw_fd_, slot.data(), len, kDwHeaderSize));
  if (crc32c::Unmask(crc) != crc32c::Value(slot.data(), slot.size())) {
    return Status::OK();  // torn journal write — main file intact
  }
  if (page_id >= page_count_) return Status::OK();
  // Journal record is whole.  If the main slot verifies it is either the
  // old image (in-place write never started — fine, the WAL redoes it) or
  // the new one (write completed); only a torn slot needs restoring.
  std::string main_slot(slot_size(), '\0');
  Status s = PreadFull(fd_, main_slot.data(), main_slot.size(),
                       uint64_t(page_id) * slot_size());
  if (s.ok() && VerifySlot(page_id, main_slot.data(), nullptr).ok()) {
    return Status::OK();
  }
  OIB_RETURN_IF_ERROR(PwriteFull(fd_, slot.data(), slot.size(),
                                 uint64_t(page_id) * slot_size()));
  if (::fsync(fd_) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status FileDisk::LoadMeta() {
  int fd = ::open((path_ + ".meta").c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("no meta file");
  std::string blob;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) blob.append(buf, size_t(n));
  ::close(fd);
  if (blob.size() < 8) return Status::Corruption("meta file truncated");
  uint32_t stored_crc = DecodeFixed32(blob.data() + blob.size() - 4);
  if (crc32c::Unmask(stored_crc) !=
      crc32c::Value(blob.data(), blob.size() - 4)) {
    return Status::Corruption("meta file checksum mismatch");
  }
  BufferReader reader(std::string_view(blob.data(), blob.size() - 4));
  uint32_t count;
  if (!reader.GetFixed32(&count)) return Status::Corruption("meta header");
  for (uint32_t i = 0; i < count; ++i) {
    std::string k, v;
    if (!reader.GetLengthPrefixed(&k) || !reader.GetLengthPrefixed(&v)) {
      return Status::Corruption("meta entry");
    }
    meta_.emplace_back(std::move(k), std::move(v));
  }
  return Status::OK();
}

Status FileDisk::StoreMeta() {
  std::string blob;
  PutFixed32(&blob, uint32_t(meta_.size()));
  for (const auto& kv : meta_) {
    PutLengthPrefixed(&blob, kv.first);
    PutLengthPrefixed(&blob, kv.second);
  }
  PutFixed32(&blob, crc32c::Mask(crc32c::Value(blob.data(), blob.size())));
  // Write-tmp / fsync / rename: the blob replacement is atomic, so a
  // crash leaves either the old or the new metadata, never a mix.
  std::string tmp_path = path_ + ".meta.tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("cannot write meta: " +
                           std::string(std::strerror(errno)));
  }
  Status s = PwriteFull(fd, blob.data(), blob.size(), 0);
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError(std::string("fsync meta: ") + std::strerror(errno));
  }
  ::close(fd);
  if (!s.ok()) return s;
  if (::rename(tmp_path.c_str(), (path_ + ".meta").c_str()) != 0) {
    return Status::IoError(std::string("rename meta: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace oib
