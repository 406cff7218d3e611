#ifndef PRIMELABEL_DURABILITY_WAL_H_
#define PRIMELABEL_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/frame.h"
#include "durability/vfs.h"
#include "util/status.h"

namespace primelabel {

/// When the journal forces its bytes to stable storage.
enum class WalSyncPolicy {
  /// Never fsync — flush to the OS on every commit only. Survives process
  /// crashes (the kill the fault-injection harness simulates) but not
  /// power loss. The default for tests and benches.
  kNever,
  /// fsync on every commit: the strongest setting, one disk flush per
  /// committed group.
  kEveryCommit,
  /// fsync every `sync_interval` commits — the classic group-commit
  /// durability/throughput dial. N=1 is identical to kEveryCommit; after
  /// a crash the un-fsynced tail is at most N-1 commit groups.
  kEveryNCommits,
};

struct WalOptions {
  WalSyncPolicy sync = WalSyncPolicy::kNever;
  /// Commits every `sync_interval`-th commit under kEveryNCommits.
  int sync_interval = 8;
  /// Records buffered before Append auto-commits. 1 = every record is
  /// its own commit; larger values batch frames into one write (group
  /// commit), trading a larger crash-loss window for fewer syscalls.
  int group_commit_records = 1;
  /// Retry budget for transient commit-write failures (kIoError). Between
  /// attempts the journal is truncated back to its committed prefix and
  /// reopened, so a short write never leaves garbage under a retried
  /// frame. fsync failures are never retried (a failed fsync poisons the
  /// page cache state — the store quarantines instead).
  RetryPolicy retry;
};

/// Length of the journal file header (the magic alone). A journal whose
/// committed length equals this holds zero frames — what the durable
/// store checks to decide a pinned epoch is sealed.
inline constexpr std::uint64_t kWalHeaderBytes = 8;

/// Append-only write-ahead journal of checksummed frames.
///
/// File layout: an 8-byte magic ("PLWALOG1") followed by frames
/// (durability/frame.h). Appends are buffered in memory and written as
/// one contiguous write per commit; a crash loses at most the uncommitted
/// buffer plus whatever the sync policy left in OS caches, and always
/// leaves a prefix of whole frames plus at most one torn tail — exactly
/// the shapes recovery truncates.
///
/// All file traffic goes through a Vfs, so the fault matrix can fail any
/// single write/sync/truncate this log issues.
class WriteAheadLog {
 public:
  /// Opens `path` for appending through `vfs`, creating it (with a fresh
  /// header) when missing or empty. `resume_at` is the intact-prefix
  /// length reported by ReadWal: when the existing file is longer (a torn
  /// tail from a crash) it is truncated back to that length first, so new
  /// frames never land after garbage.
  static Result<WriteAheadLog> Open(Vfs& vfs, const std::string& path,
                                    const WalOptions& options = {},
                                    std::uint64_t resume_at = 0);

  WriteAheadLog(WriteAheadLog&&) = default;
  WriteAheadLog& operator=(WriteAheadLog&&) = default;
  ~WriteAheadLog();

  /// Buffers one record; auto-commits when the group is full. The record
  /// is NOT crash-durable until the commit that includes it returns.
  Status Append(const WalRecord& record);

  /// Writes every buffered frame in one contiguous write and applies the
  /// sync policy. No-op on an empty buffer. Transient write failures are
  /// retried under options().retry with the file truncated back to its
  /// committed prefix between attempts.
  Status Commit();

  /// Unconditional fsync (checkpoint barrier).
  Status Sync();

  /// Drops buffered-but-uncommitted records (quarantine entry: the store
  /// rolled the ops back in memory, so the frames must never land).
  void DiscardPending() {
    buffer_.clear();
    pending_records_ = 0;
  }

  /// Records buffered but not yet committed.
  int pending_records() const { return pending_records_; }
  /// Frames committed to the file since Open.
  std::uint64_t committed_frames() const { return committed_frames_; }
  /// File length in bytes (header included) covered by successful commits
  /// — the prefix a reader may trust even while this writer keeps
  /// appending. Epoch pins capture this value.
  std::uint64_t committed_bytes() const { return durable_bytes_; }
  const std::string& path() const { return path_; }

 private:
  WriteAheadLog() = default;

  std::string path_;
  Vfs* vfs_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  WalOptions options_;
  std::vector<std::uint8_t> buffer_;
  int pending_records_ = 0;
  std::uint64_t committed_frames_ = 0;
  std::uint64_t commits_since_sync_ = 0;
  std::uint64_t durable_bytes_ = 0;
};

/// Journal read-back: the record sequence of the intact frame prefix plus
/// where (and whether) the scan stopped.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Intact prefix length in bytes, including the header — pass to
  /// WriteAheadLog::Open as `resume_at`.
  std::uint64_t valid_bytes = 0;
  bool tail_truncated = false;
  std::uint64_t bytes_dropped = 0;
};

/// Reads a journal file, tolerating torn tails and corrupt frames
/// (truncate-at-first-bad-checksum: everything from the first bad byte on
/// is reported dropped). A missing file is kNotFound; a file whose header
/// is damaged yields zero records with the whole body dropped.
/// `max_bytes` bounds the read to a prefix — epoch-pinned readers pass the
/// committed length they captured, so frames the writer appended later are
/// invisible to them. `from_bytes` starts the frame scan at that offset (a
/// committed length read earlier, hence a frame boundary): only the frames
/// in [from_bytes, max_bytes) are decoded, the header is still checked, and
/// valid_bytes stays an absolute file offset — so a caller replaying a
/// suffix can require valid_bytes == max_bytes before trusting it. The
/// file is still read from its start: the I/O covers [0, max_bytes).
Result<WalReadResult> ReadWal(Vfs& vfs, const std::string& path,
                              std::uint64_t max_bytes = ~std::uint64_t{0},
                              std::uint64_t from_bytes = 0);

}  // namespace primelabel

#endif  // PRIMELABEL_DURABILITY_WAL_H_
