// perfbench — the repository's end-to-end service benchmark.
//
// One run: generate a workload's seeded inputs, create and open a
// DurableDocumentStore, host a QueryService + SocketServer over it, drive
// reads over the real Unix socket through SocketClient (and writes
// through the store's mutation API), verify every answer, and print the
// metrics as the last stdout line. `--trace 1` runs the same workload
// with recording wrappers at the library seams and reports per-layer
// numbers instead. See perfbench/README.md for the metric glossary.
//
//   perfbench --workload query_cold --seed 1 --seconds 20 --trace 0

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "corpus/durable_document_store.h"
#include "inputs.h"
#include "planner/query_planner.h"
#include "probes.h"
#include "service/query_service.h"
#include "service/socket_server.h"
#include "service/wire.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using primelabel::DurableDocumentStore;
using primelabel::QueryPlanner;
using primelabel::QueryService;
using primelabel::Result;
using primelabel::Rng;
using primelabel::Session;
using primelabel::Snapshot;
using primelabel::SocketClient;
using primelabel::SocketServer;
using primelabel::Status;
using Verb = Request::Verb;

constexpr int kReaders = 2;
/// Rounds of window and read probe on the sealed workloads.
constexpr int kRounds = 5;
/// Length of a bin: timings are binned by when they completed, and each
/// bin's hypervisor steal decides whether it counts (see CalmBins).
constexpr int kBinMs = 500;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRuns = 9;
/// Requests per reader whose socket round trip is kept by stream index,
/// to pair with the traced run's in-process replay of the same requests.
constexpr std::size_t kPairCap = 4000;

// query_cold: the corpus. It is the same corpus for every seed — the seed
// draws every request and mutation — because play shapes move the node
// count by thousands, and with it the cost of every write and checkpoint.
// Every request pool is 4,096 distinct requests: 32x the 128-entry result
// cache, and enough that a tail percentile is not decided by a handful of
// heavy requests the seed happened to draw.
constexpr std::uint64_t kCorpusSeed = 1;
constexpr int kCorpusPlays = 3;
constexpr std::size_t kPool = 4096;
// ancestry_batch: the deep random tree, and the XPath pool of its probe.
// They are the same for every seed — the seed draws every request from
// the pools — because the tail of XPath over a random tree follows the
// tree's top-level shape and the handful of heavy queries in the pool,
// and that would let the seed rather than the code decide xpath_p99_us.
constexpr std::uint64_t kDeepTreeSeed = 20;
constexpr std::size_t kDeepNodes = 20000;
constexpr int kDeepDepth = 20;
constexpr int kDeepFanout = 6;
/// Sealed workloads re-SNAP every this many requests.
constexpr std::size_t kSealedSnapEvery = 16;
// live_writer: the open-loop writer's rate (ops per second) and checkpoint
// cadence; each closed-loop reader's SNAP period — 40 SNAPs/s from two
// readers against 10 commits/s, so about a quarter of SNAPs meet a new
// commit, whatever the read rate — and share of ISANC among their other
// reads.
constexpr double kLiveWriterRate = 10;
constexpr std::size_t kLiveCheckpointEvery = 5;
constexpr std::chrono::milliseconds kLiveSnapPeriod{50};
constexpr std::uint64_t kLiveBatchPercent = 50;
// Side probes: the verbs a sealed workload's main mix lacks (batches on
// query_cold, XPath on ancestry_batch, writes on both), so every workload
// reports every metric. The read probe is interleaved with the window;
// the write probe follows it.
constexpr double kReadProbeSeconds = 10;
constexpr std::size_t kWriteProbeOps = 1200;
constexpr std::size_t kWriteProbeCheckpointEvery = 8;

enum class Kind { kQueryCold, kAncestryBatch, kLiveWriter };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* why;
};

const WorkloadDef kWorkloads[] = {
    {"query_cold", Kind::kQueryCold,
     "XPath pool 32x the result cache over a sealed arena-backed corpus: "
     "planner execution over the label table is the work, caches bypassed"},
    {"ancestry_batch", Kind::kAncestryBatch,
     "ISANC/DESC/ANC batches on a sealed deep random tree with wide labels: "
     "StructureOracle and the bigint kernels, planner untouched"},
    {"live_writer", Kind::kLiveWriter,
     "open-loop writer with checkpoints beside back-to-back readers: write "
     "path, durability, epoch churn, view materialization, cache "
     "invalidation"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

// ---------------------------------------------------------------------------
// Set-up: generate, Create, Open, host, first SNAP.

/// Recording wrappers of the traced run; absent in timed runs.
struct Tracing {
  SpanLog log;
  CountingVfs vfs{primelabel::DefaultVfs(), &log};
  TracingTransport transport{primelabel::DefaultTransport(), &log};
  std::unique_ptr<TracingViewCache> view_cache;
};

struct Hosted {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<SocketServer> server;
  /// Reader 0's connection; its SNAP is set-up's first SNAP.
  std::unique_ptr<SocketClient> first;

  void Stop() {
    first.reset();
    server.reset();
    service.reset();
  }
};

struct SetupTimes {
  double generate_s = 0, create_s = 0, open_s = 0, first_snap_s = 0;
  double total() const { return generate_s + create_s + open_s + first_snap_s; }
};

DocumentInput Generate(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::kQueryCold: return MakeCorpus(kCorpusSeed, kCorpusPlays);
    case Kind::kAncestryBatch:
      return MakeDeepTree(kDeepTreeSeed, kDeepNodes, kDeepDepth, kDeepFanout);
    case Kind::kLiveWriter: return MakeSinglePlay(seed);
  }
  return {};
}

DurableDocumentStore::Options StoreOptions(Tracing* tracing) {
  DurableDocumentStore::Options options;
  if (tracing != nullptr) options.vfs = &tracing->vfs;
  return options;
}

SocketClient::Options ReaderOptions(int reader) {
  SocketClient::Options options;
  // A reset or refusal is a failure to count, not a retry to hide.
  options.max_attempts = 1;
  options.jitter_seed = static_cast<std::uint64_t>(reader) + 1;
  return options;
}

Status SetUp(Kind kind, std::uint64_t seed, const std::string& dir,
             const std::string& socket_path, Tracing* tracing,
             DocumentInput* doc, Hosted* hosted, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  *doc = Generate(kind, seed);
  const Clock::time_point t1 = Clock::now();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    Result<DurableDocumentStore> created =
        DurableDocumentStore::Create(dir, doc->xml, StoreOptions(tracing));
    if (!created.ok()) return created.status();
  }
  const Clock::time_point t2 = Clock::now();
  Result<DurableDocumentStore> opened =
      DurableDocumentStore::Open(dir, StoreOptions(tracing));
  if (!opened.ok()) return opened.status();
  const Clock::time_point t3 = Clock::now();
  hosted->service = std::make_unique<QueryService>(
      std::move(opened.value()), QueryService::Options());
  SocketServer::Options server_options;
  if (tracing != nullptr) {
    tracing->view_cache = std::make_unique<TracingViewCache>(
        &hosted->service->view_cache(), &tracing->log);
    hosted->service->store().set_view_cache(tracing->view_cache.get());
    server_options.transport = &tracing->transport;
  }
  hosted->server =
      std::make_unique<SocketServer>(hosted->service.get(), server_options);
  Status started = hosted->server->Start(socket_path);
  if (!started.ok()) return started;
  hosted->first = std::make_unique<SocketClient>(ReaderOptions(0));
  Status connected = hosted->first->Connect(socket_path);
  if (!connected.ok()) return connected;
  Result<std::string> snap = hosted->first->Request("SNAP");
  if (!snap.ok()) return snap.status();
  if (snap->rfind("OK ", 0) != 0) return Status::Internal("SNAP: " + *snap);
  const Clock::time_point t4 = Clock::now();
  times->generate_s = SecondsBetween(t0, t1);
  times->create_s = SecondsBetween(t1, t2);
  times->open_s = SecondsBetween(t2, t3);
  times->first_snap_s = SecondsBetween(t3, t4);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Load generators.

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Steal and total jiffies from /proc/stat: how much CPU a hypervisor
/// took from the machine during the window, recorded as a noise witness.
std::pair<double, double> CpuStealAndTotal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double field = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

/// Samples /proc/stat every kBinMs from construction to Stop(), so that a
/// timing can be binned by when it completed and each bin knows the share
/// of CPU time the hypervisor took during it.
class StealClock {
 public:
  StealClock() : t0_(Clock::now()) {
    samples_.push_back(CpuStealAndTotal());
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      for (int k = 1;; ++k) {
        if (stop_cv_.wait_until(lock, t0_ + k * std::chrono::milliseconds(kBinMs),
                                [this] { return stopped_; })) {
          return;
        }
        samples_.push_back(CpuStealAndTotal());
      }
    });
  }
  ~StealClock() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
      samples_.push_back(CpuStealAndTotal());  // closes the last bin
    }
  }

  int BinOf(Clock::time_point t) const {
    return std::max(0, static_cast<int>(MicrosBetween(t0_, t) / 1000 / kBinMs));
  }
  Clock::time_point BinStart(int bin) const {
    return t0_ + bin * std::chrono::milliseconds(kBinMs);
  }

  /// Steal share of each completed bin; call after Stop().
  std::vector<double> BinSteal() const {
    std::vector<double> out;
    for (std::size_t b = 0; b + 1 < samples_.size(); ++b) {
      out.push_back(Ratio(samples_[b + 1].first - samples_[b].first,
                          samples_[b + 1].second - samples_[b].second));
    }
    return out;
  }

 private:
  const Clock::time_point t0_;
  std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stopped_ = false;
  std::vector<std::pair<double, double>> samples_;
  std::thread thread_;
};

struct ReaderStats {
  std::array<Series, 5> latency_us;  ///< by Verb
  std::vector<std::uint64_t> completed_in_bin;
  std::vector<double> paired_rt_us;  ///< by stream index; -1 = not paired
  std::vector<double> traced_rt_us, untraced_rt_us;
  std::uint64_t attempted = 0, failed = 0, err_replies = 0;
  std::uint64_t transport_failures = 0, mismatches = 0, completed = 0;
  std::uint64_t pairs = 0, positives = 0;
  std::string first_problem;

  void Merge(const ReaderStats& o) {
    for (std::size_t v = 0; v < latency_us.size(); ++v) {
      latency_us[v].Append(o.latency_us[v]);
    }
    if (completed_in_bin.size() < o.completed_in_bin.size()) {
      completed_in_bin.resize(o.completed_in_bin.size(), 0);
    }
    for (std::size_t b = 0; b < o.completed_in_bin.size(); ++b) {
      completed_in_bin[b] += o.completed_in_bin[b];
    }
    traced_rt_us.insert(traced_rt_us.end(), o.traced_rt_us.begin(),
                        o.traced_rt_us.end());
    untraced_rt_us.insert(untraced_rt_us.end(), o.untraced_rt_us.begin(),
                          o.untraced_rt_us.end());
    attempted += o.attempted;
    failed += o.failed;
    err_replies += o.err_replies;
    transport_failures += o.transport_failures;
    mismatches += o.mismatches;
    completed += o.completed;
    pairs += o.pairs;
    positives += o.positives;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
};

/// Sends `stream`, from index `*next` on, over `client` in a closed loop
/// until `end`: each request right after the previous reply. With a
/// non-zero `snap_period` a SNAP takes the place of the next request once
/// per period (staggered across readers). Leaves `*next` at the first
/// request not sent.
void RunReader(SocketClient& client, const std::vector<const Request*>& stream,
               std::size_t* next, Clock::time_point end,
               std::chrono::milliseconds snap_period, const StealClock& clock,
               int reader, SpanLog* log, ReaderStats* out) {
  static const Request kSnap = SnapRequest();
  bool need_snap = false;
  Clock::time_point snap_due =
      Clock::now() + snap_period * (reader + 1) / kReaders;
  for (std::size_t i = *next;; ++i) {
    const Clock::time_point sent = Clock::now();
    if (sent >= end) {
      *next = i;
      break;
    }
    const bool scheduled_snap = snap_period.count() > 0 && sent >= snap_due;
    while (snap_period.count() > 0 && snap_due <= sent) snap_due += snap_period;
    const Request& r =
        need_snap || scheduled_snap ? kSnap : *stream[i % stream.size()];
    const bool paired = !need_snap && !scheduled_snap && i < kPairCap;
    const bool traced = log != nullptr && log->enabled();
    Result<std::string> reply = client.Request(r.line);
    const Clock::time_point done = Clock::now();
    if (log != nullptr) {
      log->Record("client.request", sent, done, 0,
                  (static_cast<std::uint64_t>(reader) << 32) | (i + 1));
    }
    ++out->attempted;
    const double rt = MicrosBetween(sent, done);
    const bool ok = reply.ok() && reply->rfind("ERR", 0) != 0;
    if (i < kPairCap) out->paired_rt_us.push_back(paired && ok ? rt : -1);
    if (!reply.ok()) {
      ++out->failed;
      ++out->transport_failures;
      if (out->first_problem.empty()) {
        out->first_problem = r.line.substr(0, 60) + ": " +
                             reply.status().ToString();
      }
      need_snap = true;
      continue;
    }
    if (!ok) {
      ++out->failed;
      ++out->err_replies;
      if (out->first_problem.empty()) {
        out->first_problem = r.line.substr(0, 60) + ": " + *reply;
      }
      if (reply->find("no snapshot open") != std::string::npos) {
        need_snap = true;
      }
      continue;
    }
    if (r.verb == Verb::kSnap) need_snap = false;
    if (r.checked && HashReply(*reply) != r.expected) {
      ++out->mismatches;
      if (out->first_problem.empty()) {
        out->first_problem = "wrong answer to " + r.line.substr(0, 80);
      }
    }
    ++out->completed;
    const int bin = clock.BinOf(done);
    if (out->completed_in_bin.size() <= static_cast<std::size_t>(bin)) {
      out->completed_in_bin.resize(static_cast<std::size_t>(bin) + 1, 0);
    }
    ++out->completed_in_bin[static_cast<std::size_t>(bin)];
    out->latency_us[static_cast<std::size_t>(r.verb)].Add(rt, bin);
    if (log != nullptr) {
      (traced ? out->traced_rt_us : out->untraced_rt_us).push_back(rt);
    }
    out->pairs += r.pairs;
    out->positives += r.positives;
  }
}

struct WriterStats {
  Series write_us;  ///< from scheduled start
  std::vector<double> apply_us, vfs_us, vfs_bytes, vfs_syncs;
  Series checkpoint_ms;
  std::vector<double> checkpoint_bytes, chain_length;
  std::vector<double> late_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::int64_t node_delta = 0;
  std::string first_problem;

  void Merge(const WriterStats& o) {
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    write_us.Append(o.write_us);
    append(apply_us, o.apply_us);
    append(vfs_us, o.vfs_us);
    append(vfs_bytes, o.vfs_bytes);
    append(vfs_syncs, o.vfs_syncs);
    checkpoint_ms.Append(o.checkpoint_ms);
    append(checkpoint_bytes, o.checkpoint_bytes);
    append(chain_length, o.chain_length);
    append(late_ms, o.late_ms);
    attempted += o.attempted;
    failed += o.failed;
    node_delta += o.node_delta;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
};

/// Applies `ops` seeded mutations to elements of `targets` (and, with
/// `grow_targets`, the elements it inserts), with a Checkpoint after every
/// `checkpoint_every`-th op except the last. Open loop when `period_us`
/// is positive. Deletes only remove leaves the writer itself inserted,
/// so the node count moves by exactly +1 or -1 per acknowledged op.
void RunWriter(DurableDocumentStore& store, std::vector<NodeId> targets,
               std::uint64_t seed, std::size_t ops, double period_us,
               std::size_t checkpoint_every, bool grow_targets,
               Clock::time_point start, const StealClock& clock, SpanLog* log,
               WriterStats* out) {
  Rng rng(seed);
  std::vector<NodeId> inserted;
  auto fail = [&](const std::string& what, const Status& status) {
    ++out->failed;
    if (out->first_problem.empty()) {
      out->first_problem = what + ": " + status.ToString();
    }
  };
  for (std::size_t k = 0; k < ops; ++k) {
    Clock::time_point due = Clock::now();
    if (period_us > 0) {
      due = start + std::chrono::microseconds(static_cast<std::int64_t>(
                        static_cast<double>(k) * period_us));
      std::this_thread::sleep_until(due);
      out->late_ms.push_back(MicrosBetween(due, Clock::now()) / 1000);
    }
    const std::uint64_t roll = rng.Below(100);
    const NodeId target = targets[rng.Below(targets.size())];
    std::size_t victim = inserted.size();
    if (roll >= 85 && !inserted.empty()) {
      victim = rng.Below(inserted.size());
      if (!store.document().tree().IsLeaf(inserted[victim])) {
        victim = inserted.size();
      }
    }
    const std::uint64_t span = log != nullptr ? log->NewId() : 0;
    SetThreadParentSpan(span);
    const VfsThreadTotals before = CurrentVfsThreadTotals();
    const Clock::time_point t0 = Clock::now();
    const char* name;
    Result<NodeId> fresh = Status::Internal("no insert");
    Status deleted = Status::Ok();
    if (victim < inserted.size()) {
      name = "store.delete";
      deleted = store.Delete(inserted[victim]);
    } else if (roll < 25) {
      name = "store.insert_before";
      fresh = store.InsertBefore(target, "w");
    } else if (roll < 50) {
      name = "store.insert_after";
      fresh = store.InsertAfter(target, "w");
    } else if (roll < 85 && roll >= 75) {
      name = "store.wrap";
      fresh = store.Wrap(target, "w");
    } else {
      name = "store.append_child";
      fresh = store.AppendChild(target, "w");
    }
    const Clock::time_point t1 = Clock::now();
    const VfsThreadTotals after = CurrentVfsThreadTotals();
    if (log != nullptr) log->Record(name, t0, t1, 0, 0, span);
    ++out->attempted;
    if (victim < inserted.size()) {
      if (!deleted.ok()) {
        fail(name, deleted);
        continue;
      }
      const NodeId gone = inserted[victim];
      inserted[victim] = inserted.back();
      inserted.pop_back();
      const auto at = std::find(targets.begin(), targets.end(), gone);
      if (at != targets.end()) targets.erase(at);
      out->node_delta -= 1;
    } else {
      if (!fresh.ok()) {
        fail(name, fresh.status());
        continue;
      }
      if (grow_targets) targets.push_back(*fresh);
      inserted.push_back(*fresh);
      out->node_delta += 1;
    }
    const double vfs_us = after.write_us - before.write_us;
    out->write_us.Add(MicrosBetween(due, t1), clock.BinOf(t1));
    out->apply_us.push_back(MicrosBetween(t0, t1) - vfs_us);
    out->vfs_us.push_back(vfs_us);
    out->vfs_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
    out->vfs_syncs.push_back(static_cast<double>(after.syncs - before.syncs));
    if ((k + 1) % checkpoint_every == 0 && k + 1 < ops) {
      const std::uint64_t cspan = log != nullptr ? log->NewId() : 0;
      SetThreadParentSpan(cspan);
      const VfsThreadTotals c_before = CurrentVfsThreadTotals();
      const Clock::time_point c0 = Clock::now();
      Status checkpointed = store.Checkpoint();
      const Clock::time_point c1 = Clock::now();
      if (log != nullptr) log->Record("store.checkpoint", c0, c1, 0, 0, cspan);
      ++out->attempted;
      if (!checkpointed.ok()) {
        fail("checkpoint", checkpointed);
        continue;
      }
      out->checkpoint_ms.Add(MicrosBetween(c0, c1) / 1000, clock.BinOf(c1));
      out->checkpoint_bytes.push_back(static_cast<double>(
          CurrentVfsThreadTotals().bytes - c_before.bytes));
      out->chain_length.push_back(store.delta_chain_length());
    }
  }
  SetThreadParentSpan(0);
}

/// Replays one request through the Session API (the level below
/// ExecuteRequestLine) and keeps the faster of this and earlier timings.
void SessionCall(Session& session, const Request& r, Result<Snapshot>* snap,
                 SpanLog* log, std::uint64_t parent, std::uint64_t request,
                 double* best_us) {
  const Clock::time_point t0 = Clock::now();
  switch (r.verb) {
    case Verb::kSnap: {
      Result<Snapshot> fresh = session.OpenSnapshot();
      if (fresh.ok()) *snap = std::move(fresh);
      break;
    }
    case Verb::kXPath: (void)session.Query(**snap, r.xpath); break;
    case Verb::kIsAnc:
      (void)session.IsAncestorBatch(**snap, r.ancestors, r.descendants);
      break;
    case Verb::kDesc:
      (void)session.SelectDescendants(**snap, r.ancestors[0], r.descendants);
      break;
    case Verb::kAnc:
      (void)session.SelectAncestors(**snap, r.ancestors[0], r.descendants);
      break;
  }
  const Clock::time_point t1 = Clock::now();
  *best_us = std::min(*best_us, MicrosBetween(t0, t1));
  log->Record("replay.session", t0, t1, parent, request);
}

// ---------------------------------------------------------------------------
// Helpers.

template <typename Fn>
void ParallelFor(std::size_t n, Fn fn) {
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// STATS reply as key -> value ("OK SERVED 3 REJECTED 0 ...").
std::map<std::string, std::string> ParseStats(const std::string& reply) {
  std::map<std::string, std::string> out;
  std::istringstream in(reply);
  std::string ok, key, value;
  in >> ok;
  while (in >> key >> value) out[key] = value;
  return out;
}

std::uint64_t StatU64(const std::map<std::string, std::string>& stats,
                      const std::string& key) {
  auto it = stats.find(key);
  return it == stats.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Service-side counters, read before and after the window.
struct Counters {
  QueryPlanner::Stats planner;
  primelabel::EpochViewCache::Stats cache;
  QueryService::Counters service;
  SocketServer::Stats server;
  TracingViewCache::Counts traced_cache;
  std::uint64_t unlinks = 0;
};

Counters ReadCounters(Hosted& hosted, Tracing* tracing) {
  Counters c;
  c.planner = hosted.service->planner().stats();
  c.cache = hosted.service->view_cache().stats();
  c.service = hosted.service->counters();
  c.server = hosted.server->stats();
  if (tracing != nullptr) {
    c.traced_cache = tracing->view_cache->counts();
    c.unlinks = tracing->vfs.unlinks();
  }
  return c;
}

std::vector<NodeId> ElementsIn(const XmlTree& tree, NodeId begin,
                               NodeId end) {
  std::vector<NodeId> out;
  for (NodeId id = begin; id < end; ++id) {
    if (tree.IsElement(id) && tree.parent(id) != primelabel::kInvalidNodeId) {
      out.push_back(id);
    }
  }
  return out;
}

std::size_t SubtreeEnd(const XmlTree& tree, NodeId root) {
  NodeId last = root;
  tree.PreorderFrom(root, 0, [&](NodeId id, int) { last = std::max(last, id); });
  return static_cast<std::size_t>(last) + 1;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---------------------------------------------------------------------------
// The run.

int Run(const Args& args, const WorkloadDef& def) {
  const Kind kind = def.kind;
  const bool live = kind == Kind::kLiveWriter;
  std::unique_ptr<Tracing> tracing =
      args.trace ? std::make_unique<Tracing>() : nullptr;
  SpanLog* log = tracing != nullptr ? &tracing->log : nullptr;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const std::string socket_path = args.workdir + "/s.sock";

  // --- Set-up, repeated; the last one is kept for the run. -------------
  std::vector<double> setup_total, gen_s, create_s, open_s, snap_s;
  DocumentInput doc;
  Hosted hosted;
  std::string dir;
  for (int s = 0; s < kSetupRuns; ++s) {
    hosted.Stop();
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    dir = args.workdir + "/store-" + std::to_string(s);
    SetupTimes times;
    Status status = SetUp(kind, args.seed, dir, socket_path, tracing.get(),
                          &doc, &hosted, &times);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    setup_total.push_back(times.total());
    gen_s.push_back(times.generate_s);
    create_s.push_back(times.create_s);
    open_s.push_back(times.open_s);
    snap_s.push_back(times.first_snap_s);
  }
  const std::uint64_t xml_bytes = doc.xml.size();
  const std::uint64_t store_bytes_setup = DirBytes(dir);
  const std::size_t initial_nodes = doc.tree.node_count();
  const int max_depth = MaxDepth(doc.tree);
  DurableDocumentStore& store = hosted.service->store();

  Result<std::string> stats0 = hosted.first->Request("STATS");
  if (!stats0.ok()) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    return 2;
  }
  const double label_bytes_per_node =
      Ratio(static_cast<double>(StatU64(ParseStats(*stats0), "LABELBYTES")),
            static_cast<double>(initial_nodes));

  // --- Inputs of the run and their expected answers (outside timing). --
  Result<Snapshot> sealed = store.OpenSnapshot();
  if (!sealed.ok() || !sealed->arena_backed()) {
    std::fprintf(stderr, "perfbench: the set-up view is not sealed\n");
    return 2;
  }
  const double arena_bytes_per_node =
      Ratio(static_cast<double>(sealed->label_store_bytes()),
            static_cast<double>(sealed->node_count()));
  std::vector<Request> xpaths;   // distinct XPATH requests
  std::vector<Request> batches;  // distinct ISANC/DESC/ANC requests
  std::vector<std::string> battery;
  std::vector<NodeId> write_targets;
  NodeId stable_limit = static_cast<NodeId>(initial_nodes);
  switch (kind) {
    case Kind::kQueryCold:
      for (const std::string& q :
           MakeQueryPool(kCorpusPlays, Mix(args.seed, 1), kPool)) {
        xpaths.push_back(XPathRequest(q));
      }
      batches = MakeBatchPool(doc.tree, stable_limit, Mix(args.seed, 2),
                              kPool, 16, 1024, false);
      break;
    case Kind::kAncestryBatch:
      batches = MakeBatchPool(doc.tree, stable_limit, Mix(args.seed, 2),
                              kPool, 16, 1024, false);
      for (const std::string& q : MakeDeepQueryPool(kDeepTreeSeed, kPool)) {
        xpaths.push_back(XPathRequest(q));
      }
      break;
    case Kind::kLiveWriter: {
      stable_limit = LastActId(doc.tree);
      for (const std::string& q : StableQuerySet()) {
        xpaths.push_back(XPathRequest(q));
      }
      batches = MakeBatchPool(doc.tree, stable_limit, Mix(args.seed, 2), 256,
                              16, 16, true);
      break;
    }
  }
  std::atomic<bool> bad_reference{false};
  ParallelFor(xpaths.size(), [&](std::size_t i) {
    Result<std::vector<NodeId>> ids = sealed->Query(xpaths[i].xpath);
    if (!ids.ok()) {
      bad_reference = true;
      return;
    }
    xpaths[i].expected = HashReply(IdListReply(*ids));
    xpaths[i].checked = true;
  });
  // Drop the pin before the window, so it retains no epoch files.
  sealed = Status::Internal("released");
  if (bad_reference) {
    std::fprintf(stderr, "perfbench: a reference query failed\n");
    return 2;
  }
  if (kind == Kind::kLiveWriter) {
    write_targets = ElementsIn(
        doc.tree, stable_limit + 1,
        static_cast<NodeId>(SubtreeEnd(doc.tree, stable_limit)));
    battery = StableQuerySet();
    battery.insert(battery.end(), {"//w", "/play/act[5]//w//line",
                                   "/play/act[5]/scene[1]//speech",
                                   "/play/act[5]//line[text()='to be']"});
  } else {
    // The write probe edits elements in the last sixth of the document
    // order: edits there measured about four times cheaper than at
    // uniformly drawn positions, so the probe's ops take seconds, and
    // a fixed share of the order keeps their cost independent of the
    // tree's shape.
    write_targets = ElementsIn(
        doc.tree, static_cast<NodeId>(initial_nodes - initial_nodes / 6),
        static_cast<NodeId>(initial_nodes));
    for (std::size_t i = 0; i < 12; ++i) battery.push_back(xpaths[i].xpath);
    battery.push_back("//w");
  }

  // Per-reader request streams of the main window, and of the read
  // probe that follows it on the sealed workloads.
  static const Request kSnap = SnapRequest();
  // Readers SNAP at staggered positions, so their SNAPs interleave in
  // time rather than arriving together.
  auto make_streams = [&](std::uint64_t salt, std::size_t snap_every,
                          const std::vector<Request>& pool,
                          const std::vector<Request>* other,
                          std::uint64_t other_percent) {
    std::vector<std::vector<const Request*>> out(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      Rng rng(Mix(args.seed, salt + static_cast<std::uint64_t>(r)));
      const std::size_t phase = static_cast<std::size_t>(r) * snap_every / kReaders;
      for (std::size_t i = 0; i < 200000; ++i) {
        if (snap_every > 0 && (i + phase) % snap_every == snap_every - 1) {
          out[r].push_back(&kSnap);
        } else if (other != nullptr && rng.Below(100) < other_percent) {
          out[r].push_back(&(*other)[rng.Below(other->size())]);
        } else {
          out[r].push_back(&pool[rng.Below(pool.size())]);
        }
      }
    }
    return out;
  };
  std::vector<std::vector<const Request*>> streams, probe_streams;
  switch (kind) {
    case Kind::kQueryCold:
      // XPATH only in the window. SNAPs ride in the batch probe: measured
      // beside 17 ms queries, a 50 us SNAP's p90 followed the interference
      // and spread 0.27-0.39 across runs.
      streams = make_streams(100, 0, xpaths, nullptr, 0);
      probe_streams = make_streams(300, kSealedSnapEvery, batches, nullptr, 0);
      break;
    case Kind::kAncestryBatch:
      streams = make_streams(100, kSealedSnapEvery, batches, nullptr, 0);
      probe_streams = make_streams(300, 0, xpaths, nullptr, 0);
      break;
    case Kind::kLiveWriter:
      streams = make_streams(100, 0, xpaths, &batches,
                             kLiveBatchPercent);
      break;
  }

  std::vector<std::unique_ptr<SocketClient>> clients;
  clients.push_back(std::move(hosted.first));
  for (int r = 1; r < kReaders; ++r) {
    auto client = std::make_unique<SocketClient>(ReaderOptions(r));
    Result<std::string> snap = Status::Internal("not connected");
    if (client->Connect(socket_path).ok()) snap = client->Request("SNAP");
    if (!snap.ok() || snap->rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "perfbench: reader %d could not SNAP\n", r);
      return 2;
    }
    clients.push_back(std::move(client));
  }

  // --- The measured window. ---------------------------------------------
  // On the sealed workloads the window and the read probe run in kRounds
  // alternating rounds, so that each phase spreads over the run and gets
  // its share of the calm bins. A traced run keeps the window in one
  // piece and the probe after the replay, so the window's counters and
  // spans describe the main mix alone.
  const int rounds = probe_streams.empty() || tracing != nullptr ? 1 : kRounds;
  std::vector<std::size_t> next(kReaders, 0), probe_next(kReaders, 0);
  std::vector<ReaderStats> reader_stats(kReaders), probe_stats(kReaders);
  WriterStats writer_stats;
  StealClock clock;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> main_spans;
  // Runs every reader on the window's streams (`main`) or the probe's for
  // its share of a round; returns the phase's length in seconds.
  auto run_phase = [&](bool main) {
    const std::vector<std::vector<const Request*>>& phase =
        main ? streams : probe_streams;
    std::vector<std::size_t>& positions = main ? next : probe_next;
    std::vector<ReaderStats>& stats = main ? reader_stats : probe_stats;
    SpanLog* phase_log = main ? log : nullptr;
    const double seconds = main ? args.seconds : kReadProbeSeconds;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    const Clock::time_point end =
        start + std::chrono::milliseconds(
                    static_cast<int>(seconds * 1000 / rounds));
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        RunReader(*clients[r], phase[r], &positions[r], end,
                  main && live ? kLiveSnapPeriod : std::chrono::milliseconds(0),
                  clock, r, phase_log, &stats[r]);
      });
    }
    if (main && live) {
      threads.emplace_back([&] {
        RunWriter(store, write_targets, Mix(args.seed, 200),
                  static_cast<std::size_t>(kLiveWriterRate * args.seconds),
                  1e6 / kLiveWriterRate, kLiveCheckpointEvery, true, start,
                  clock, log, &writer_stats);
      });
    }
    if (phase_log != nullptr) {
      // Alternate untraced and traced quarter-second slices; the
      // difference between them is bench.tracing_overhead.
      bool on = false;
      for (Clock::time_point t = start; t < end;
           t += std::chrono::milliseconds(250)) {
        std::this_thread::sleep_until(t);
        phase_log->set_enabled(on);
        on = !on;
      }
      std::this_thread::sleep_until(end);
      phase_log->set_enabled(false);
    }
    for (std::thread& t : threads) t.join();
    if (main) main_spans.emplace_back(start, Clock::now());
    return SecondsBetween(start, Clock::now());
  };
  const Counters before = ReadCounters(hosted, tracing.get());
  const std::pair<double, double> cpu_before = CpuStealAndTotal();
  double window_s = 0;
  for (int k = 0; k < rounds; ++k) {
    window_s += run_phase(true);
    if (rounds > 1) run_phase(false);
  }
  const Counters after = ReadCounters(hosted, tracing.get());
  const std::pair<double, double> cpu_after = CpuStealAndTotal();
  const double steal_share = Ratio(cpu_after.first - cpu_before.first,
                                   cpu_after.second - cpu_before.second);
  ReaderStats reads;
  for (const ReaderStats& r : reader_stats) reads.Merge(r);
  const std::vector<std::uint64_t> window_completed = reads.completed_in_bin;
  const std::vector<double> traced_rt_us = reads.traced_rt_us;
  const std::vector<double> untraced_rt_us = reads.untraced_rt_us;
  const std::uint64_t window_snaps =
      reads.latency_us[static_cast<std::size_t>(Verb::kSnap)].size();

  // STATS gauges, per reader connection (REJECTED is per session).
  std::uint64_t stat_rejected = 0, stat_shed = 0, stat_deadline = 0;
  for (auto& client : clients) {
    Result<std::string> stats = client->Request("STATS");
    if (!stats.ok()) continue;
    const auto parsed = ParseStats(*stats);
    stat_rejected += StatU64(parsed, "REJECTED");
    stat_shed = std::max(stat_shed, StatU64(parsed, "SHED"));
    stat_deadline = std::max(stat_deadline, StatU64(parsed, "DEADLINEEXCEEDED"));
  }

  // --- Traced run: replay reader 0's stream in-process, level by level. -
  std::vector<double> socket_self_us, wire_self_us, planner_us, oracle_ns_per;
  primelabel::EvalStats eval;
  std::uint64_t planned_results = 0, planned_queries = 0;
  std::uint64_t oracle_pairs = 0, oracle_positives = 0;
  if (tracing != nullptr) {
    log->set_enabled(true);
    Result<Session> session = hosted.service->OpenSession();
    if (!session.ok()) {
      std::fprintf(stderr, "perfbench: replay session refused\n");
      return 2;
    }
    std::optional<Snapshot> wire_snap;
    bool done = false;
    primelabel::ExecuteRequestLine(*hosted.service, *session, &wire_snap,
                                   "SNAP", &done);
    Result<Snapshot> snap = session->OpenSnapshot();
    if (!snap.ok() || !wire_snap.has_value()) {
      std::fprintf(stderr, "perfbench: replay snapshot failed\n");
      return 2;
    }
    // Wire and Session levels run as whole passes over the same requests
    // (so neither warms the result cache for the other), twice each in
    // alternation; a request's time at a level is the faster of its two.
    const std::vector<double>& socket_rt = reader_stats[0].paired_rt_us;
    std::size_t replayed = std::min(streams[0].size(), socket_rt.size());
    std::vector<double> wire_us(replayed, 1e300), session_us(replayed, 1e300);
    std::vector<std::uint64_t> wire_span(replayed, 0);
    const Clock::time_point budget =
        Clock::now() + std::chrono::milliseconds(600);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < replayed; ++i) {
        if (round == 0 && Clock::now() >= budget && i >= 512) {
          replayed = i;
          break;
        }
        const Request& r = *streams[0][i];
        const Clock::time_point t0 = Clock::now();
        std::string reply = primelabel::ExecuteRequestLine(
            *hosted.service, *session, &wire_snap, r.line, &done);
        const Clock::time_point t1 = Clock::now();
        wire_us[i] = std::min(wire_us[i], MicrosBetween(t0, t1));
        wire_span[i] = log->Record("replay.wire", t0, t1, 0, i + 1);
        if (r.checked && HashReply(reply) != r.expected) ++reads.mismatches;
      }
      for (std::size_t i = 0; i < replayed; ++i) {
        SessionCall(*session, *streams[0][i], &snap, log, wire_span[i], i + 1,
                    &session_us[i]);
      }
    }
    for (std::size_t i = 0; i < replayed; ++i) {
      if (socket_rt[i] >= 0) socket_self_us.push_back(socket_rt[i] - wire_us[i]);
      wire_self_us.push_back(wire_us[i] - session_us[i]);
    }
    // Innermost level: a private planner (same cache sizes as the
    // service's, so its hits mirror the window) and the frozen oracle.
    QueryPlanner planner;
    const primelabel::StructureOracle& oracle = snap->oracle();
    for (std::size_t i = 0; i < replayed; ++i) {
      const Request& r = *streams[0][i];
      if (r.verb == Verb::kSnap) continue;
      const Clock::time_point t0 = Clock::now();
      if (r.verb == Verb::kXPath) {
        primelabel::EvalStats stats;
        bool hit = false;
        Result<QueryPlanner::NodeSet> ids = planner.Query(
            snap->view()->label_table(), oracle, snap->epoch(),
            snap->journal_bytes(), r.xpath, 1, &stats, &hit);
        const Clock::time_point t1 = Clock::now();
        log->Record("replay.planner", t0, t1, wire_span[i], i + 1);
        if (ids.ok() && !hit) {
          planner_us.push_back(MicrosBetween(t0, t1));
          eval += stats;
          planned_results += (*ids)->size();
          planned_queries += 1;
        }
        continue;
      }
      std::vector<std::uint8_t> bits;
      std::vector<NodeId> matched;
      if (r.verb == Verb::kIsAnc) {
        std::vector<std::pair<NodeId, NodeId>> pairs;
        for (std::size_t j = 0; j < r.ancestors.size(); ++j) {
          pairs.emplace_back(r.ancestors[j], r.descendants[j]);
        }
        const Clock::time_point k0 = Clock::now();
        oracle.IsAncestorBatch(pairs, &bits);
        const Clock::time_point k1 = Clock::now();
        log->Record("replay.oracle", k0, k1, wire_span[i], i + 1);
        oracle_ns_per.push_back(MicrosBetween(k0, k1) * 1000 /
                                static_cast<double>(pairs.size()));
        for (std::uint8_t b : bits) oracle_positives += b != 0 ? 1 : 0;
      } else {
        const Clock::time_point k0 = Clock::now();
        if (r.verb == Verb::kDesc) {
          oracle.SelectDescendants(r.ancestors[0], r.descendants, &matched);
        } else {
          oracle.SelectAncestors(r.ancestors[0], r.descendants, &matched);
        }
        const Clock::time_point k1 = Clock::now();
        log->Record("replay.oracle", k0, k1, wire_span[i], i + 1);
        oracle_ns_per.push_back(MicrosBetween(k0, k1) * 1000 /
                                static_cast<double>(r.descendants.size()));
        oracle_positives += matched.size();
      }
      oracle_pairs += r.pairs;
    }
    log->set_enabled(false);
  }

  // --- Side probe for the read verb the main mix lacks (traced run). ----
  if (!probe_streams.empty() && rounds == 1) run_phase(false);
  for (const ReaderStats& r : probe_stats) reads.Merge(r);

  for (auto& client : clients) client->Close();

  // query_cold: every distinct query, planned, against its reference.
  std::uint64_t planned_mismatches = 0;
  if (kind == Kind::kQueryCold) {
    std::atomic<std::uint64_t> wrong{0};
    ParallelFor(xpaths.size(), [&](std::size_t i) {
      Result<Session> session = hosted.service->OpenSession();
      if (!session.ok()) {
        ++wrong;
        return;
      }
      Result<Snapshot> snap = session->OpenSnapshot();
      Result<std::vector<NodeId>> ids =
          snap.ok() ? session->Query(*snap, xpaths[i].xpath)
                    : Result<std::vector<NodeId>>(snap.status());
      if (!ids.ok() || HashReply(IdListReply(*ids)) != xpaths[i].expected) {
        ++wrong;
      }
    });
    planned_mismatches = wrong;
  }

  if (!live) {
    if (log != nullptr) log->set_enabled(true);
    WriterStats probe_writes;
    RunWriter(store, write_targets, Mix(args.seed, 201), kWriteProbeOps, 0,
              kWriteProbeCheckpointEvery, false, Clock::now(), clock, log,
              &probe_writes);
    if (log != nullptr) log->set_enabled(false);
    writer_stats.Merge(probe_writes);
  }

  // --- Steal by bin: read_rps over the calm bins of the window. ---------
  clock.Stop();
  const std::vector<double> bin_steal = clock.BinSteal();
  std::vector<double> window_bin_s(window_completed.size(), 0);
  for (const auto& [a, b] : main_spans) {
    for (int bin = clock.BinOf(a); bin <= clock.BinOf(b); ++bin) {
      if (static_cast<std::size_t>(bin) >= window_bin_s.size()) {
        window_bin_s.resize(static_cast<std::size_t>(bin) + 1, 0);
      }
      const Clock::time_point lo = std::max(a, clock.BinStart(bin));
      const Clock::time_point hi = std::min(b, clock.BinStart(bin + 1));
      if (hi > lo) window_bin_s[static_cast<std::size_t>(bin)] += SecondsBetween(lo, hi);
    }
  }
  const std::vector<bool> calm_window = CalmBins(window_bin_s, bin_steal, 0);
  double calm_completed = 0, calm_s = 0, calm_steal = 0;
  for (std::size_t bin = 0; bin < calm_window.size(); ++bin) {
    if (!calm_window[bin]) continue;
    if (bin < window_completed.size()) {
      calm_completed += static_cast<double>(window_completed[bin]);
    }
    calm_s += window_bin_s[bin];
    if (bin < bin_steal.size()) calm_steal += window_bin_s[bin] * bin_steal[bin];
  }

  // --- Durability check: flush, reopen, compare. -------------------------
  bool durable_ok = true;
  std::string durable_problem;
  double heap_bytes_per_node = 0;
  const std::size_t expected_nodes = static_cast<std::size_t>(
      static_cast<std::int64_t>(initial_nodes) + writer_stats.node_delta);
  std::vector<std::vector<NodeId>> live_answers;
  std::size_t live_nodes = 0;
  {
    Status flushed = store.Flush();
    Result<Session> session = hosted.service->OpenSession();
    Result<Snapshot> snap = session.ok() ? session->OpenSnapshot()
                                         : Result<Snapshot>(session.status());
    if (!flushed.ok() || !snap.ok()) {
      durable_ok = false;
      durable_problem = "final snapshot: " + (!flushed.ok()
                                                  ? flushed.ToString()
                                                  : snap.status().ToString());
    } else {
      live_nodes = snap->node_count();
      if (!snap->arena_backed()) {
        heap_bytes_per_node =
            Ratio(static_cast<double>(snap->label_store_bytes()),
                  static_cast<double>(live_nodes));
      }
      for (const std::string& q : battery) {
        Result<std::vector<NodeId>> ids = session->Query(*snap, q);
        live_answers.push_back(ids.ok() ? *ids : std::vector<NodeId>{});
      }
    }
  }
  const std::uint64_t store_bytes_end = DirBytes(dir);
  const Counters final_counters = ReadCounters(hosted, tracing.get());
  hosted.Stop();
  if (durable_ok) {
    Result<DurableDocumentStore> reopened =
        DurableDocumentStore::Open(dir, StoreOptions(nullptr));
    if (!reopened.ok()) {
      durable_ok = false;
      durable_problem = "reopen: " + reopened.status().ToString();
    } else if (reopened->document().tree().node_count() != expected_nodes ||
               live_nodes != expected_nodes) {
      durable_ok = false;
      durable_problem =
          "node count: expected " + std::to_string(expected_nodes) +
          ", live " + std::to_string(live_nodes) + ", reopened " +
          std::to_string(reopened->document().tree().node_count());
    } else {
      for (std::size_t i = 0; i < battery.size(); ++i) {
        Result<std::vector<NodeId>> ids = reopened->Query(battery[i]);
        if (!ids.ok() || *ids != live_answers[i]) {
          durable_ok = false;
          durable_problem = "reopened answer differs: " + battery[i];
          break;
        }
      }
    }
  }
  std::filesystem::remove_all(args.workdir, ec);

  // --- Results. -----------------------------------------------------------
  const std::uint64_t attempted = reads.attempted + writer_stats.attempted;
  const std::uint64_t failed = reads.failed + writer_stats.failed;
  std::vector<std::string> problems;
  if (reads.mismatches > 0) {
    problems.push_back(std::to_string(reads.mismatches) +
                       " wrong socket answers; first: " + reads.first_problem);
  }
  if (planned_mismatches > 0) {
    problems.push_back(std::to_string(planned_mismatches) +
                       " planned answers differ from the walking evaluator");
  }
  if (!durable_ok) problems.push_back(durable_problem);

  auto lat = [&](Verb v) -> const Series& {
    return reads.latency_us[static_cast<std::size_t>(v)];
  };
  Series batch_us = lat(Verb::kIsAnc);
  batch_us.Append(lat(Verb::kDesc));
  batch_us.Append(lat(Verb::kAnc));
  const double planner_lookups =
      static_cast<double>((after.planner.result.hits - before.planner.result.hits) +
                          (after.planner.result.misses - before.planner.result.misses));
  const double result_hit_share = Ratio(
      static_cast<double>(after.planner.result.hits - before.planner.result.hits),
      planner_lookups);
  const double snap_materialized_share = Ratio(
      static_cast<double>(after.cache.misses - before.cache.misses),
      static_cast<double>(window_snaps));
  const double commit_rate =
      live ? static_cast<double>(writer_stats.write_us.size()) / window_s : 0;

  // Provenance and input properties, then the sample counts.
  std::printf("%s\n",
              JsonObject()
                  .Str("record", "provenance")
                  .Int("nproc", std::thread::hardware_concurrency())
                  .Str("compiler", "gcc " __VERSION__)
                  .Str("build_type", PERFBENCH_BUILD_TYPE)
                  .Str("git_sha", args.git_sha)
                  .Str("src_digest", args.src_digest)
                  .ToString()
                  .c_str());
  std::printf(
      "%s\n",
      JsonObject()
          .Str("record", "inputs")
          .Str("workload", def.name)
          .Int("seed", args.seed)
          .Str("why", def.why)
          .Int("node_count", initial_nodes)
          .Int("max_depth", static_cast<std::uint64_t>(max_depth))
          .Int("xml_bytes", xml_bytes)
          .Num("label_bytes_per_node", label_bytes_per_node)
          .Num("result_cache_hit_share", result_hit_share)
          .Num("true_pair_share",
               Ratio(static_cast<double>(reads.positives),
                     static_cast<double>(reads.pairs)))
          .Num("commit_rate_per_s", commit_rate)
          .Num("snap_materialized_share", snap_materialized_share)
          .Int("xpath_pool", xpaths.size())
          .Int("batch_pool", batches.size())
          .Int("store_bytes_setup", store_bytes_setup)
          .Int("store_bytes_end", store_bytes_end)
          .Num("error_rate", Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)))
          .Int("err_replies", reads.err_replies)
          .Int("transport_failures", reads.transport_failures)
          .Int("stats_rejected", stat_rejected)
          .Int("stats_shed", stat_shed)
          .Int("stats_deadline_exceeded", stat_deadline)
          .Num("cpu_steal_share", steal_share)
          .Num("calm_window_steal_share", Ratio(calm_steal, calm_s))
          .ToString()
          .c_str());
  auto count = [&](const Series& series, double q) {
    const std::size_t calm = series.Calm(bin_steal, q).size();
    return JsonObject().Int("n", series.size()).Int("calm", calm).Int(
        "beyond", SamplesBeyond(calm, q));
  };
  std::printf("%s\n", JsonObject()
                          .Str("record", "samples")
                          .Int("bin_ms", kBinMs)
                          .Obj("xpath_p99", count(lat(Verb::kXPath), 0.99))
                          .Obj("batch_p99", count(batch_us, 0.99))
                          .Obj("snap_p90", count(lat(Verb::kSnap), 0.90))
                          .Obj("write_p90", count(writer_stats.write_us, 0.90))
                          .Obj("checkpoint_p50",
                               count(writer_stats.checkpoint_ms, 0.5))
                          .Int("setups", setup_total.size())
                          .ToString()
                          .c_str());
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", p.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed; first: %s%s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted),
                 reads.first_problem.c_str(), writer_stats.first_problem.c_str());
  }

  auto calm = [&](const Series& series, double q) {
    return Quantile(series.Calm(bin_steal, q), q);
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_total), "s"},
        {"read_rps", Ratio(calm_completed, calm_s), "1/s"},
        {"xpath_p50_us", calm(lat(Verb::kXPath), 0.5), "us"},
        {"xpath_p99_us", calm(lat(Verb::kXPath), 0.99), "us"},
        {"batch_p50_us", calm(batch_us, 0.5), "us"},
        {"batch_p99_us", calm(batch_us, 0.99), "us"},
        {"snap_p50_us", calm(lat(Verb::kSnap), 0.5), "us"},
        {"snap_p90_us", calm(lat(Verb::kSnap), 0.9), "us"},
        {"write_p50_us", calm(writer_stats.write_us, 0.5), "us"},
        {"write_p90_us", calm(writer_stats.write_us, 0.9), "us"},
        {"checkpoint_p50_ms", calm(writer_stats.checkpoint_ms, 0.5), "ms"},
        {"success_rate",
         1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "share"},
        {"label_bytes_per_node", label_bytes_per_node, "B/node"},
        {"store_bytes_per_xml_byte",
         Ratio(static_cast<double>(store_bytes_end),
               static_cast<double>(xml_bytes)),
         "B/B"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double overhead =
        Ratio(Median(traced_rt_us), Median(untraced_rt_us)) - 1.0;
    const TracingViewCache::Counts& c0 = before.traced_cache;
    const TracingViewCache::Counts& c1 = after.traced_cache;
    const double lookups = static_cast<double>(c1.lookups - c0.lookups);
    const double plan_lookups = static_cast<double>(
        (after.planner.plan.hits - before.planner.plan.hits) +
        (after.planner.plan.misses - before.planner.plan.misses));
    const std::vector<double> writes = log->DurationsUs("transport.write");
    metrics = {
        {"service.socket_us", Median(socket_self_us), "us"},
        {"service.wire_us", Median(wire_self_us), "us"},
        {"service.transport.read_us",
         Median(log->DurationsUs("transport.read")), "us"},
        {"service.transport.write_us", Median(writes), "us"},
        {"service.transport.reply_bytes",
         Ratio(static_cast<double>(tracing->transport.written_bytes()),
               static_cast<double>(traced_rt_us.size())),
         "B"},
        {"service.view_cache.hit_ratio",
         Ratio(lookups - static_cast<double>(c1.materialized - c0.materialized),
               lookups),
         "share"},
        {"service.view_cache.materialize_ms",
         Median(tracing->view_cache->materialize_ms()), "ms"},
        {"service.view_cache.evictions",
         static_cast<double>(after.cache.evictions - before.cache.evictions),
         "count"},
        {"service.snapshot.arena_share",
         Ratio(static_cast<double>(c1.arena_views - c0.arena_views), lookups),
         "share"},
        {"service.admission.rejected",
         static_cast<double>(after.service.requests_rejected -
                             before.service.requests_rejected +
                             after.service.sessions_rejected -
                             before.service.sessions_rejected),
         "count"},
        {"service.server.shed",
         static_cast<double>(after.server.shed - before.server.shed), "count"},
        {"service.server.deadline_exceeded",
         static_cast<double>(after.server.deadline_exceeded -
                             before.server.deadline_exceeded),
         "count"},
        {"planner.plan_cache.hit_ratio",
         Ratio(static_cast<double>(after.planner.plan.hits -
                                   before.planner.plan.hits),
               plan_lookups),
         "share"},
        {"planner.result_cache.hit_ratio", result_hit_share, "share"},
        {"planner.result_cache.invalidations",
         static_cast<double>(after.planner.result.invalidations -
                             before.planner.result.invalidations),
         "count"},
        {"planner.query_us", Median(planner_us), "us"},
        {"planner.rows_scanned_per_result",
         Ratio(static_cast<double>(eval.rows_scanned),
               static_cast<double>(planned_results)),
         "rows"},
        {"planner.label_tests_per_result",
         Ratio(static_cast<double>(eval.label_tests),
               static_cast<double>(planned_results)),
         "tests"},
        {"planner.order_lookups_per_query",
         Ratio(static_cast<double>(eval.order_lookups),
               static_cast<double>(planned_queries)),
         "lookups"},
        {"core.oracle.ns_per_pair", Median(oracle_ns_per), "ns"},
        {"core.oracle.positive_share",
         Ratio(static_cast<double>(oracle_positives),
               static_cast<double>(oracle_pairs)),
         "share"},
        {"store.label_bytes_per_node.arena", arena_bytes_per_node, "B/node"},
        {"store.label_bytes_per_node.heap", heap_bytes_per_node, "B/node"},
        {"corpus.write.apply_us", Median(writer_stats.apply_us), "us"},
        {"corpus.checkpoint_ms", Median(writer_stats.checkpoint_ms.All()), "ms"},
        {"corpus.delta_chain_length", Mean(writer_stats.chain_length), "epochs"},
        {"durability.vfs.write_us", Median(writer_stats.vfs_us), "us"},
        {"durability.vfs.bytes_per_op", Mean(writer_stats.vfs_bytes), "B"},
        {"durability.vfs.checkpoint_bytes", Mean(writer_stats.checkpoint_bytes),
         "B"},
        {"durability.vfs.syncs_per_op", Mean(writer_stats.vfs_syncs), "count"},
        {"durability.vfs.unlinks",
         static_cast<double>(final_counters.unlinks - before.unlinks), "count"},
        {"setup.generate_s", Median(gen_s), "s"},
        {"setup.create_s", Median(create_s), "s"},
        {"setup.open_s", Median(open_s), "s"},
        {"setup.first_snap_s", Median(snap_s), "s"},
        {"bench.generator_late_ms", Quantile(writer_stats.late_ms, 0.99), "ms"},
        {"bench.tracing_overhead", overhead, "share"},
        {"error_rate",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "share"},
    };
    // The two bypass checks: query_cold must miss the result cache, and
    // ancestry_batch must never reach the planner.
    if (kind == Kind::kQueryCold && result_hit_share >= 0.05) {
      problems.push_back("query_cold result-cache hit ratio " +
                         std::to_string(result_hit_share) + " >= 0.05");
    }
    if (kind == Kind::kAncestryBatch && !planner_us.empty()) {
      problems.push_back("ancestry_batch reached the planner");
    }
    std::filesystem::create_directories(args.trace_dir, ec);
    log->WriteJsonLines(args.trace_dir + "/" + def.name + ".jsonl", 200000);
    std::printf("%s\n", JsonObject()
                            .Str("record", "trace")
                            .Int("spans", log->size())
                            .Int("planner_query_samples", planner_us.size())
                            .Int("oracle_call_samples", oracle_ns_per.size())
                            .Int("paired_socket_samples", socket_self_us.size())
                            .Int("traced_requests", traced_rt_us.size())
                            .Int("untraced_requests", untraced_rt_us.size())
                            .ToString()
                            .c_str());
  }

  JsonObject metric_json;
  for (const Metric& m : metrics) {
    metric_json.Obj(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit));
  }
  const bool correct = problems.empty();
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", std::max<std::uint64_t>(attempted, 1))
                          .Int("failed", failed)
                          .Obj("metrics", metric_json)
                          .ToString()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimized (%s) build\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to measure a Debug build\n");
    return 3;
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  for (const perfbench::WorkloadDef& def : perfbench::kWorkloads) {
    if (args.workload == def.name) return perfbench::Run(args, def);
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
