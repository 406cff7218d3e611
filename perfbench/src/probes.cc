#include "probes.h"

#include <poll.h>

#include <cerrno>
#include <fstream>

namespace perfbench {
namespace {

thread_local std::uint64_t t_parent_span = 0;
thread_local VfsThreadTotals t_vfs;

}  // namespace

std::uint64_t SpanLog::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t parent,
                              std::uint64_t request, std::uint64_t id) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.start_us = MicrosBetween(origin_, start);
  span.end_us = MicrosBetween(origin_, end);
  span.parent = parent;
  span.request = request;
  span.id = id != 0 ? id : NewId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return span.id;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path,
                             std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::size_t n = spans_.size() < limit ? spans_.size() : limit;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << JsonObject()
               .Int("id", s.id)
               .Str("name", s.name)
               .Num("start_us", s.start_us)
               .Num("end_us", s.end_us)
               .Int("parent", s.parent)
               .Int("request", s.request)
               .ToString()
        << '\n';
  }
  return static_cast<bool>(out);
}

void SetThreadParentSpan(std::uint64_t id) { t_parent_span = id; }

VfsThreadTotals CurrentVfsThreadTotals() { return t_vfs; }

/// WritableFile wrapper: times Append/Sync into the thread totals and the
/// span log, under the thread's current parent span.
class CountingFile : public primelabel::WritableFile {
 public:
  CountingFile(CountingVfs* owner,
               std::unique_ptr<primelabel::WritableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  primelabel::Status Append(std::span<const std::uint8_t> data) override {
    const Clock::time_point start = Clock::now();
    primelabel::Status status = base_->Append(data);
    const Clock::time_point end = Clock::now();
    t_vfs.write_us += MicrosBetween(start, end);
    t_vfs.bytes += data.size();
    owner_->log_->Record("vfs.append", start, end, t_parent_span);
    return status;
  }
  primelabel::Status Sync() override {
    const Clock::time_point start = Clock::now();
    primelabel::Status status = base_->Sync();
    const Clock::time_point end = Clock::now();
    t_vfs.write_us += MicrosBetween(start, end);
    t_vfs.syncs += 1;
    owner_->log_->Record("vfs.sync", start, end, t_parent_span);
    return status;
  }
  std::uint64_t size() const override { return base_->size(); }

 private:
  CountingVfs* owner_;
  std::unique_ptr<primelabel::WritableFile> base_;
};

primelabel::Result<std::unique_ptr<primelabel::WritableFile>> CountingVfs::Wrap(
    primelabel::Result<std::unique_ptr<primelabel::WritableFile>> file) {
  if (!file.ok()) return file.status();
  return std::unique_ptr<primelabel::WritableFile>(
      new CountingFile(this, std::move(file.value())));
}

primelabel::Result<std::unique_ptr<primelabel::WritableFile>>
CountingVfs::OpenAppend(const std::string& path) {
  return Wrap(base_.OpenAppend(path));
}

primelabel::Result<std::unique_ptr<primelabel::WritableFile>>
CountingVfs::OpenTrunc(const std::string& path) {
  return Wrap(base_.OpenTrunc(path));
}

primelabel::IoResult TracingTransport::Read(int fd, void* buf,
                                            std::size_t len, int timeout_ms) {
  if (!log_->enabled()) return base_.Read(fd, buf, len, timeout_ms);
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return primelabel::IoResult{primelabel::IoEvent::kTimeout};
  if (ready < 0 && errno != EINTR) {
    return base_.Read(fd, buf, len, timeout_ms);
  }
  const Clock::time_point start = Clock::now();
  primelabel::IoResult result = base_.Read(fd, buf, len, 0);
  log_->Record("transport.read", start, Clock::now());
  return result;
}

primelabel::IoResult TracingTransport::Write(int fd, const void* buf,
                                             std::size_t len,
                                             int timeout_ms) {
  if (!log_->enabled()) return base_.Write(fd, buf, len, timeout_ms);
  const Clock::time_point start = Clock::now();
  primelabel::IoResult result = base_.Write(fd, buf, len, timeout_ms);
  log_->Record("transport.write", start, Clock::now());
  if (result.event == primelabel::IoEvent::kOk) {
    written_.fetch_add(result.bytes);
  }
  return result;
}

primelabel::Result<std::shared_ptr<const primelabel::EpochView>>
TracingViewCache::GetOrMaterialize(std::uint64_t epoch,
                                   std::uint64_t journal_bytes,
                                   const Materializer& materialize) {
  bool built = false;
  double built_ms = 0;
  const Clock::time_point start = Clock::now();
  auto timed = [&]() {
    const Clock::time_point t0 = Clock::now();
    auto view = materialize();
    const Clock::time_point t1 = Clock::now();
    built = true;
    built_ms = MicrosBetween(t0, t1) / 1000.0;
    log_->Record("view_cache.materialize", t0, t1);
    return view;
  };
  auto view = inner_->GetOrMaterialize(epoch, journal_bytes, timed);
  log_->Record("view_cache.lookup", start, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  counts_.lookups += 1;
  if (built) {
    counts_.materialized += 1;
    materialize_ms_.push_back(built_ms);
  }
  if (view.ok() && view.value()->arena_backed()) counts_.arena_views += 1;
  return view;
}

TracingViewCache::Counts TracingViewCache::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<double> TracingViewCache::materialize_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return materialize_ms_;
}

}  // namespace perfbench
