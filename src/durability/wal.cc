#include "durability/wal.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

namespace primelabel {

namespace {

constexpr char kWalMagic[8] = {'P', 'L', 'W', 'A', 'L', 'O', 'G', '1'};
static_assert(sizeof(kWalMagic) == kWalHeaderBytes);

std::span<const std::uint8_t> MagicSpan() {
  return std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kWalMagic), sizeof(kWalMagic));
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(Vfs& vfs, const std::string& path,
                                          const WalOptions& options,
                                          std::uint64_t resume_at) {
  // Peek at the current size to decide between "fresh header" and
  // "resume after the intact prefix".
  std::uint64_t existing = 0;
  if (Result<std::uint64_t> size = vfs.FileSize(path); size.ok()) {
    existing = *size;
  }
  const bool fresh = existing < sizeof(kWalMagic);
  const bool truncating =
      !fresh && resume_at >= sizeof(kWalMagic) && resume_at < existing;
  if (truncating) {
    // Drop the torn/corrupt tail so appended frames extend the intact
    // prefix (truncate-at-first-bad-checksum made durable).
    Status truncated = vfs.Truncate(path, resume_at);
    if (!truncated.ok()) return truncated;
  }
  Result<std::unique_ptr<WritableFile>> file =
      fresh ? vfs.OpenTrunc(path) : vfs.OpenAppend(path);
  if (!file.ok()) return file.status();
  WriteAheadLog wal;
  wal.path_ = path;
  wal.vfs_ = &vfs;
  wal.file_ = std::move(file.value());
  wal.options_ = options;
  if (fresh) {
    Status header = wal.file_->Append(MagicSpan());
    if (!header.ok()) return header;
    wal.durable_bytes_ = sizeof(kWalMagic);
  } else {
    wal.durable_bytes_ = truncating ? resume_at : existing;
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) {
    Commit();  // best effort; a crash before this point loses the buffer
  }
}

Status WriteAheadLog::Append(const WalRecord& record) {
  PL_CHECK(file_ != nullptr);
  std::vector<std::uint8_t> payload = EncodeRecord(record);
  AppendFrame(payload, &buffer_);
  ++pending_records_;
  if (pending_records_ >= options_.group_commit_records) return Commit();
  return Status::Ok();
}

Status WriteAheadLog::Commit() {
  if (buffer_.empty()) return Status::Ok();
  PL_CHECK(file_ != nullptr);
  Status wrote;
  for (int attempt = 0;; ++attempt) {
    wrote = file_->Append(buffer_);
    if (wrote.ok()) break;
    if (!IsTransientIo(wrote) || attempt + 1 >= options_.retry.max_attempts) {
      return wrote;
    }
    // Transient I/O error (EIO, short write): truncate back to the
    // committed prefix — a short write may have left part of this group
    // on disk — reopen, back off exponentially, retry.
    if (options_.retry.base_backoff.count() > 0) {
      const int shift = attempt < 20 ? attempt : 20;
      std::this_thread::sleep_for(options_.retry.base_backoff *
                                  (std::int64_t{1} << shift));
    }
    file_.reset();
    Status truncated = vfs_->Truncate(path_, durable_bytes_);
    if (!truncated.ok()) return wrote;
    Result<std::unique_ptr<WritableFile>> reopened = vfs_->OpenAppend(path_);
    if (!reopened.ok()) return reopened.status();
    file_ = std::move(reopened.value());
  }
  durable_bytes_ += buffer_.size();
  committed_frames_ += static_cast<std::uint64_t>(pending_records_);
  buffer_.clear();
  pending_records_ = 0;
  ++commits_since_sync_;
  const bool want_sync =
      options_.sync == WalSyncPolicy::kEveryCommit ||
      (options_.sync == WalSyncPolicy::kEveryNCommits &&
       commits_since_sync_ >=
           static_cast<std::uint64_t>(options_.sync_interval));
  if (want_sync) {
    commits_since_sync_ = 0;
    // fsync failures are final: the kernel may have dropped the dirty
    // pages, so "retry until it works" would report durability we cannot
    // prove. The store reacts by quarantining.
    return file_->Sync();
  }
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  Status committed = Commit();
  if (!committed.ok()) return committed;
  commits_since_sync_ = 0;
  return file_->Sync();
}

Result<WalReadResult> ReadWal(Vfs& vfs, const std::string& path,
                              std::uint64_t max_bytes,
                              std::uint64_t from_bytes) {
  Result<std::vector<std::uint8_t>> read = vfs.ReadAll(path, max_bytes);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open journal '" + path + "'");
    }
    return read.status();
  }
  const std::vector<std::uint8_t>& bytes = *read;

  WalReadResult result;
  if (bytes.size() < sizeof(kWalMagic) ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    // Damaged or torn header: nothing trustworthy in the file at all.
    result.valid_bytes = 0;
    result.tail_truncated = !bytes.empty();
    result.bytes_dropped = bytes.size();
    return result;
  }
  const std::size_t start = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::uint64_t>(from_bytes, sizeof(kWalMagic)), bytes.size()));
  FrameScan scan =
      ScanFrames(std::span<const std::uint8_t>(bytes).subspan(start));
  result.records = std::move(scan.records);
  result.valid_bytes = start + scan.valid_bytes;
  result.tail_truncated = scan.tail_truncated;
  result.bytes_dropped = scan.bytes_dropped;
  return result;
}

}  // namespace primelabel
