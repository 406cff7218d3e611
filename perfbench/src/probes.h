// Tracing for the service benchmark's traced run: an in-memory span log
// and wrappers installed at the library's three public seams — the
// socket server's Transport, the store's SnapshotViewCache and the
// store's Vfs. Every wrapper forwards to the real implementation; the
// recording it adds is confined to this directory.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "corpus/durable_document_store.h"
#include "durability/vfs.h"
#include "service/transport.h"
#include "service/view_cache.h"

namespace perfbench {

struct Span {
  const char* name = "";
  double start_us = 0;  ///< since the log's origin
  double end_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root span
  std::uint64_t request = 0;  ///< 0 = not tied to a client request
};

/// Thread-safe in-memory span store. Recording happens only while
/// enabled(); wrappers stay installed either way, so the traced run can
/// alternate traced and untraced slices of one window.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id, for a span whose children finish before it does.
  std::uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records a finished span under `id` (a fresh one when 0) and returns
  /// the id; records nothing and returns 0 when disabled.
  std::uint64_t Record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  std::size_t size() const;

  /// Writes at most `limit` spans as JSON lines to `path`.
  bool WriteJsonLines(const std::string& path, std::size_t limit) const;

 private:
  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Span id that Vfs spans on this thread are recorded under (the writer
/// sets it around each store call).
void SetThreadParentSpan(std::uint64_t id);

/// Per-thread Vfs totals, so the writer can split a mutation's time into
/// store work and file-system work.
struct VfsThreadTotals {
  double write_us = 0;  ///< Append + Sync time
  std::uint64_t bytes = 0;
  std::uint64_t syncs = 0;
};
VfsThreadTotals CurrentVfsThreadTotals();

/// Forwards every call to `base` and counts write-class traffic.
class CountingVfs : public primelabel::Vfs {
 public:
  CountingVfs(primelabel::Vfs& base, SpanLog* log) : base_(base), log_(log) {}

  std::uint64_t unlinks() const { return unlinks_.load(); }

  primelabel::Result<std::unique_ptr<primelabel::WritableFile>> OpenAppend(
      const std::string& path) override;
  primelabel::Result<std::unique_ptr<primelabel::WritableFile>> OpenTrunc(
      const std::string& path) override;
  primelabel::Result<std::vector<std::uint8_t>> ReadAll(
      const std::string& path, std::uint64_t max_bytes) override {
    return base_.ReadAll(path, max_bytes);
  }
  primelabel::Result<std::uint64_t> FileSize(const std::string& path) override {
    return base_.FileSize(path);
  }
  primelabel::Status Truncate(const std::string& path,
                              std::uint64_t length) override {
    return base_.Truncate(path, length);
  }
  primelabel::Status Rename(const std::string& from,
                            const std::string& to) override {
    return base_.Rename(from, to);
  }
  primelabel::Status Unlink(const std::string& path) override {
    unlinks_.fetch_add(1);
    return base_.Unlink(path);
  }
  primelabel::Result<std::vector<std::string>> List(
      const std::string& dir) override {
    return base_.List(dir);
  }
  bool Exists(const std::string& path) override { return base_.Exists(path); }
  primelabel::Status CreateDirs(const std::string& path) override {
    return base_.CreateDirs(path);
  }
  primelabel::Result<std::unique_ptr<primelabel::MappedRegion>> MapReadOnly(
      const std::string& path) override {
    return base_.MapReadOnly(path);
  }

 private:
  friend class CountingFile;
  primelabel::Result<std::unique_ptr<primelabel::WritableFile>> Wrap(
      primelabel::Result<std::unique_ptr<primelabel::WritableFile>> file);

  primelabel::Vfs& base_;
  SpanLog* log_;
  std::atomic<std::uint64_t> unlinks_{0};
};

/// Server-side transport wrapper. While the log records, a read first
/// waits for readiness with poll(2), untimed — that is the client's think
/// time — and then reads with a zero timeout, timed; writes are timed
/// whole. Otherwise both calls go straight to `base`.
class TracingTransport : public primelabel::Transport {
 public:
  TracingTransport(primelabel::Transport& base, SpanLog* log)
      : base_(base), log_(log) {}

  primelabel::IoResult Read(int fd, void* buf, std::size_t len,
                            int timeout_ms) override;
  primelabel::IoResult Write(int fd, const void* buf, std::size_t len,
                             int timeout_ms) override;

  std::uint64_t written_bytes() const { return written_.load(); }

 private:
  primelabel::Transport& base_;
  SpanLog* log_;
  std::atomic<std::uint64_t> written_{0};
};

/// Forwards snapshot-view lookups to the service's EpochViewCache and
/// records which ones ran the materializer, for how long, and whether
/// the resulting view is arena-backed.
class TracingViewCache : public primelabel::SnapshotViewCache {
 public:
  TracingViewCache(primelabel::EpochViewCache* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  primelabel::Result<std::shared_ptr<const primelabel::EpochView>>
  GetOrMaterialize(std::uint64_t epoch, std::uint64_t journal_bytes,
                   const Materializer& materialize) override;

  struct Counts {
    std::uint64_t lookups = 0;
    std::uint64_t materialized = 0;
    std::uint64_t arena_views = 0;
  };
  Counts counts() const;
  std::vector<double> materialize_ms() const;

 private:
  primelabel::EpochViewCache* inner_;
  SpanLog* log_;
  mutable std::mutex mu_;
  Counts counts_;
  std::vector<double> materialize_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
