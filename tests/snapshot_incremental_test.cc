// Incremental view materialization: a heap view at a new commit point of
// an epoch is built by copying the newest heap view of that epoch and
// replaying only the journal frames committed since. Every such view must
// be bit-identical to a cold rebuild at the same pin (snapshot/delta
// chain + whole journal prefix): same catalog rows, same SC records, same
// NodeId answers. Frames that do not decode to exactly the pinned length
// leave the pin to the full rebuild, whose answer — view or error — is
// what the reader gets. The suite name matches the TSan ('Snapshot') and
// ASan+UBSan ('SnapshotIncremental') legs of scripts/check.sh.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/delta.h"
#include "durability/frame.h"
#include "durability/vfs.h"
#include "durability/wal.h"
#include "service/query_service.h"
#include "service/wire.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

namespace primelabel {
namespace {

namespace fs = std::filesystem;

std::string TempDirPath(const char* name) {
  return std::string(::testing::TempDir()) + "/p" +
         std::to_string(::getpid()) + "-" + name;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string PlayXml() {
  PlayOptions options;
  options.acts = 2;
  options.scenes_per_act = 2;
  options.min_speeches_per_scene = 2;
  options.max_speeches_per_scene = 3;
  options.seed = 23;
  return SerializeXml(GeneratePlay("incremental", options));
}

/// Short delta chains so the seeded runs cross full-snapshot compactions.
DurableDocumentStore::Options StoreOptions(Vfs* vfs = nullptr) {
  DurableDocumentStore::Options options;
  options.max_delta_chain = 2;
  options.vfs = vfs;
  return options;
}

QueryService MakeService(const std::string& dir, Vfs* vfs = nullptr) {
  RemoveTree(dir);
  Result<DurableDocumentStore> store =
      DurableDocumentStore::Create(dir, PlayXml(), StoreOptions(vfs));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return QueryService(std::move(store.value()), QueryService::Options());
}

std::vector<NodeId> NonRootElements(const XmlTree& tree) {
  std::vector<NodeId> out;
  tree.Preorder([&](NodeId id, int) {
    if (id != tree.root() && tree.IsElement(id)) out.push_back(id);
  });
  return out;
}

/// One writer op of the kind `kind` (0..4) on a seeded element.
void ApplyOp(DurableDocumentStore& store, int kind, std::mt19937& rng) {
  const std::vector<NodeId> elements =
      NonRootElements(store.document().tree());
  ASSERT_FALSE(elements.empty());
  const NodeId target = elements[rng() % elements.size()];
  switch (kind) {
    case 0:
      ASSERT_TRUE(store.InsertBefore(target, "ib").ok());
      break;
    case 1:
      ASSERT_TRUE(store.InsertAfter(target, "ia").ok());
      break;
    case 2:
      ASSERT_TRUE(store.AppendChild(target, "ac").ok());
      break;
    case 3:
      ASSERT_TRUE(store.Wrap(target, "wr").ok());
      break;
    default:
      // Delete a leaf so the document keeps its size across a long run.
      for (NodeId id : elements) {
        if (store.document().tree().first_child(id) == kInvalidNodeId) {
          ASSERT_TRUE(store.Delete(id).ok());
          return;
        }
      }
      ASSERT_TRUE(store.Delete(target).ok());
  }
}

const char* const kQueries[] = {
    "//speech",
    "/play/act",
    "//scene//line",
    "/play//act[2]//speech",
    "//speaker//Ancestor::act",
    "//line[1]",
    "//ac",
    "//wr//speech",
    "/play//act[1]//Following-sibling::act",
    "//ib//Preceding::speech",
    "//speech//Preceding-sibling::speaker",
    "//ia//Following::line",
};

/// The first `limit` attached nodes in preorder.
std::vector<NodeId> GridNodes(const LabeledDocument& doc, std::size_t limit) {
  std::vector<NodeId> out;
  doc.tree().Preorder([&](NodeId id, int) {
    if (out.size() < limit) out.push_back(id);
  });
  return out;
}

/// Asserts that `snap`'s view equals a cold rebuild at its pin: catalog
/// rows digest, SC records, the preorder NodeIds, the query battery's
/// NodeId answers and an IsAncestorBatch grid.
void ExpectMatchesColdRebuild(const DurableDocumentStore& store,
                              const Snapshot& snap) {
  Result<LabeledDocument> cold = store.RebuildPinned(snap.pin());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const EpochView cold_view(std::move(cold.value()));
  const LabeledDocument& want = cold_view.document();
  const LabeledDocument& got = snap.document();

  EXPECT_EQ(CatalogRowsDigest(got.ToCatalogRows()),
            CatalogRowsDigest(want.ToCatalogRows()))
      << "epoch " << snap.epoch() << " bytes " << snap.journal_bytes();
  EXPECT_EQ(ScRecordHashes(got.scheme().sc_table()),
            ScRecordHashes(want.scheme().sc_table()));
  EXPECT_EQ(got.prime_cursor(), want.prime_cursor());
  const std::vector<NodeId> nodes = GridNodes(want, 40);
  ASSERT_EQ(GridNodes(got, 40), nodes);

  for (const char* query : kQueries) {
    Result<std::vector<NodeId>> a = snap.Query(query);
    Result<std::vector<NodeId>> b = cold_view.Query(query, 1);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << query;
  }

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId x : nodes) {
    for (NodeId y : nodes) pairs.emplace_back(x, y);
  }
  std::vector<std::uint8_t> got_anc, want_anc;
  snap.oracle().IsAncestorBatch(pairs, &got_anc);
  cold_view.oracle().IsAncestorBatch(pairs, &want_anc);
  EXPECT_EQ(got_anc, want_anc);
}

/// Overwrites `bytes` at `offset` of the file at `path` in place.
void OverwriteAt(const std::string& path, std::uint64_t offset,
                 const std::vector<std::uint8_t>& bytes) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

// --- Seeded writer: every op kind, checkpoints, compactions --------------

TEST(SnapshotIncremental, EveryPointMatchesColdRebuildAcrossCompactions) {
  const std::string dir = TempDirPath("incr-seeded");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  constexpr int kOps = 60;
  constexpr int kCheckpointEvery = 4;
  std::mt19937 rng(97);
  int full_compactions = 0;
  for (int i = 0; i < kOps; ++i) {
    ApplyOp(store, static_cast<int>(rng() % 5), rng);
    ASSERT_FALSE(HasFatalFailure()) << "op " << i;
    Result<Snapshot> snap = session->OpenSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ExpectMatchesColdRebuild(store, *snap);
    ASSERT_FALSE(HasFatalFailure()) << "op " << i;
    if (i % kCheckpointEvery == kCheckpointEvery - 1) {
      ASSERT_TRUE(store.Checkpoint().ok());
      if (store.delta_chain_length() == 0) ++full_compactions;
      // The first point of the new epoch: arena for a full snapshot, a
      // full heap rebuild for a delta — never a replay across epochs.
      const DurableDocumentStore::ViewBuildStats before =
          store.view_build_stats();
      Result<Snapshot> sealed = session->OpenSnapshot();
      ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
      EXPECT_EQ(store.view_build_stats().replays, before.replays);
      EXPECT_EQ(sealed->arena_backed(), !sealed->delta_epoch());
      ExpectMatchesColdRebuild(store, *sealed);
    }
  }
  EXPECT_GE(full_compactions, 2);
  const DurableDocumentStore::ViewBuildStats stats = store.view_build_stats();
  // Per epoch of four ops at most one point is rebuilt: the first heap
  // point (the sealed point itself for a delta, the first op after a full
  // snapshot's arena point). Everything else replays.
  EXPECT_GE(stats.replays, 40u);
  EXPECT_LE(stats.rebuilds, static_cast<std::uint64_t>(kOps / 4 + 1));
  // Every build answered a cache miss.
  EXPECT_LE(stats.rebuilds + stats.replays,
            service.view_cache().stats().misses);

  // The wire reports the same counters.
  std::optional<Snapshot> wire_snapshot;
  bool done = false;
  const std::string reply = ExecuteRequestLine(
      service, *session, &wire_snapshot, "STATS", &done);
  const DurableDocumentStore::ViewBuildStats after = store.view_build_stats();
  EXPECT_NE(reply.find(" VIEWREBUILDS " + std::to_string(after.rebuilds) +
                       " VIEWREPLAYS " + std::to_string(after.replays)),
            std::string::npos)
      << reply;
  session->Close();
  RemoveTree(dir);
}

// Without a cache every open materializes; repeated opens of one point
// are rebuilt or replayed from an earlier point, never from themselves.
TEST(SnapshotIncremental, UncachedStoreReplaysFromTheNewestView) {
  const std::string dir = TempDirPath("incr-uncached");
  RemoveTree(dir);
  Result<DurableDocumentStore> created =
      DurableDocumentStore::Create(dir, PlayXml(), StoreOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DurableDocumentStore& store = created.value();
  const std::vector<NodeId> scenes = store.Query("//scene").value();
  ASSERT_TRUE(store.AppendChild(scenes[0], "a").ok());
  Result<Snapshot> first = store.OpenSnapshot();  // rebuild
  ASSERT_TRUE(first.ok());
  Result<Snapshot> again = store.OpenSnapshot();  // same point: rebuild
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(store.AppendChild(scenes[1], "b").ok());
  Result<Snapshot> next = store.OpenSnapshot();  // replay
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(store.view_build_stats().rebuilds, 2u);
  EXPECT_EQ(store.view_build_stats().replays, 1u);
  ExpectMatchesColdRebuild(store, *again);
  ExpectMatchesColdRebuild(store, *next);
  // The earlier views are untouched by the replay onto their copy.
  EXPECT_EQ(first->node_count() + 1, next->node_count());
  ExpectMatchesColdRebuild(store, *first);
  RemoveTree(dir);
}

// --- Concurrency: replays copy a view other sessions are querying ---------

TEST(SnapshotIncremental, ConcurrentSessionsSnapWhileBaseIsQueried) {
  const std::string dir = TempDirPath("incr-concurrent");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::mt19937 rng(5);
    for (int i = 0; i < 40; ++i) {
      ApplyOp(store, static_cast<int>(rng() % 5), rng);
      if (i % 10 == 9) {
        ASSERT_TRUE(store.Checkpoint().ok());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    done.store(true);
  });

  // Two sessions SNAP successive points, keeping a few snapshots to check
  // against cold rebuilds once the writer is done.
  std::vector<std::vector<Snapshot>> kept(2);
  std::vector<std::thread> snappers;
  for (int s = 0; s < 2; ++s) {
    snappers.emplace_back([&, s] {
      Result<Session> session = service.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::uint64_t last_bytes = 0, last_epoch = ~std::uint64_t{0};
      while (!done.load()) {
        Result<Snapshot> snap = session->OpenSnapshot();
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        ASSERT_TRUE(snap->Query("//speech").ok());
        const bool fresh = snap->epoch() != last_epoch ||
                           snap->journal_bytes() != last_bytes;
        last_epoch = snap->epoch();
        last_bytes = snap->journal_bytes();
        if (fresh && kept[s].size() < 24) {
          kept[s].push_back(std::move(snap.value()));
        }
      }
    });
  }
  // A third session keeps querying whatever view it last opened — the
  // newest heap view, i.e. the base the next replay copies.
  std::thread base_reader([&] {
    Result<Session> session = service.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    while (!done.load()) {
      Result<Snapshot> snap = session->OpenSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      const std::vector<NodeId> nodes = GridNodes(snap->document(), 24);
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (NodeId x : nodes) {
        for (NodeId y : nodes) pairs.emplace_back(x, y);
      }
      for (int round = 0; round < 8; ++round) {
        ASSERT_TRUE(snap->Query("//scene//line").ok());
        std::vector<std::uint8_t> out;
        snap->oracle().IsAncestorBatch(pairs, &out);
        ASSERT_EQ(out.size(), pairs.size());
      }
    }
  });

  writer.join();
  for (std::thread& t : snappers) t.join();
  base_reader.join();

  std::size_t checked = 0;
  for (const std::vector<Snapshot>& snaps : kept) {
    for (const Snapshot& snap : snaps) {
      ExpectMatchesColdRebuild(store, snap);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(store.view_build_stats().replays, 0u);
  kept.clear();
  RemoveTree(dir);
}

// --- Fallback: a suffix that is not exactly the pinned frames -------------

/// Store at a delta epoch with a heap view at (epoch, b1) in the slot and
/// one more op committed to b2 > b1, not yet opened.
struct SuffixFixture {
  std::uint64_t epoch = 0;
  std::uint64_t b1 = 0;
  std::uint64_t b2 = 0;
};

SuffixFixture PrepareSuffix(QueryService& service, Session& session,
                            bool delete_op) {
  DurableDocumentStore& store = service.store();
  const std::vector<NodeId> scenes = store.Query("//scene").value();
  EXPECT_TRUE(store.AppendChild(scenes[0], "a").ok());
  EXPECT_TRUE(store.Checkpoint().ok());
  EXPECT_TRUE(store.AppendChild(scenes[1], "b").ok());
  Result<Snapshot> at_b1 = session.OpenSnapshot();
  EXPECT_TRUE(at_b1.ok());
  SuffixFixture fixture;
  fixture.epoch = at_b1->epoch();
  fixture.b1 = at_b1->journal_bytes();
  if (delete_op) {
    const std::vector<NodeId> lines = store.Query("//line").value();
    EXPECT_TRUE(store.Delete(lines.back()).ok());
  } else {
    EXPECT_TRUE(store.AppendChild(scenes[2], "c").ok());
  }
  EXPECT_TRUE(store.Flush().ok());
  fixture.b2 = store.durable_journal_bytes();
  EXPECT_GT(fixture.b2, fixture.b1);
  return fixture;
}

/// Commits one more op past a fallback point and opens it: the fallen-back
/// view must not serve as its replay base, so it equals a cold rebuild.
void ExpectNextPointMatchesColdRebuild(DurableDocumentStore& store,
                                       Session& session,
                                       std::uint64_t fallback_bytes) {
  const std::vector<NodeId> scenes = store.Query("//scene").value();
  ASSERT_GE(scenes.size(), 4u);
  ASSERT_TRUE(store.AppendChild(scenes[3], "d").ok());
  ASSERT_TRUE(store.Flush().ok());
  Result<Snapshot> next = session.OpenSnapshot();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_GT(next->journal_bytes(), fallback_bytes);
  ExpectMatchesColdRebuild(store, *next);
}

TEST(SnapshotIncremental, DamagedSuffixFallsBackToTheFullRebuild) {
  const std::string dir = TempDirPath("incr-tamper");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  const SuffixFixture fixture = PrepareSuffix(service, *session, false);
  const std::string journal =
      DurableDocumentStore::JournalPath(dir, fixture.epoch);

  // Flip the last byte of the newest frame: its checksum no longer holds.
  Result<std::vector<std::uint8_t>> bytes = DefaultVfs().ReadAll(journal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), fixture.b2);
  OverwriteAt(journal, fixture.b2 - 1,
              {static_cast<std::uint8_t>((*bytes)[fixture.b2 - 1] ^ 0x5a)});

  const DurableDocumentStore::ViewBuildStats before = store.view_build_stats();
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->journal_bytes(), fixture.b2);
  EXPECT_EQ(store.view_build_stats().replays, before.replays);
  EXPECT_EQ(store.view_build_stats().rebuilds, before.rebuilds + 1);
  ExpectMatchesColdRebuild(store, *snap);
  // The journal stays damaged inside the next point too: the full path
  // stops at b1 again, and so must the view.
  ExpectNextPointMatchesColdRebuild(store, *session, fixture.b2);
  EXPECT_EQ(store.view_build_stats().replays, before.replays);
  session->Close();
  RemoveTree(dir);
}

TEST(SnapshotIncremental, DivergingSuffixReportsTheFullRebuildsError) {
  const std::string dir = TempDirPath("incr-diverge");
  QueryService service = MakeService(dir);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  const SuffixFixture fixture = PrepareSuffix(service, *session, true);
  const std::string journal =
      DurableDocumentStore::JournalPath(dir, fixture.epoch);

  // Re-frame the delete with a self-label no node carries: the checksum
  // holds, so both paths decode it, and replay must diverge.
  Result<WalReadResult> suffix =
      ReadWal(DefaultVfs(), journal, fixture.b2, fixture.b1);
  ASSERT_TRUE(suffix.ok());
  ASSERT_EQ(suffix->valid_bytes, fixture.b2);
  ASSERT_EQ(suffix->records.size(), 1u);
  WalRecord record = suffix->records[0];
  ASSERT_EQ(record.type, WalRecord::Type::kDelete);
  record.anchor_self = 4;  // never a prime, so never a self-label
  std::vector<std::uint8_t> frame;
  AppendFrame(EncodeRecord(record), &frame);
  ASSERT_EQ(frame.size(), fixture.b2 - fixture.b1);
  OverwriteAt(journal, fixture.b1, frame);

  const DurableDocumentStore::ViewBuildStats before = store.view_build_stats();
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(store.view_build_stats().replays, before.replays);
  Result<LabeledDocument> cold = store.RebuildPinned(store.PinEpoch());
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(snap.status().code(), cold.status().code());
  EXPECT_EQ(snap.status().message(), cold.status().message());
  session->Close();
  RemoveTree(dir);
}

/// Serves journal reads short — cut to `cut` bytes — while armed.
class ShortReadVfs : public FaultInjectingVfs {
 public:
  ShortReadVfs() : FaultInjectingVfs(DefaultVfs()) {}
  void ArmShortJournalReads(std::uint64_t cut) { cut_.store(cut); }

  Result<std::vector<std::uint8_t>> ReadAll(const std::string& path,
                                            std::uint64_t max_bytes) override {
    Result<std::vector<std::uint8_t>> read =
        FaultInjectingVfs::ReadAll(path, max_bytes);
    const std::uint64_t cut = cut_.load();
    if (read.ok() && cut != 0 && path.ends_with(".wal") &&
        read->size() > cut) {
      read->resize(cut);
    }
    return read;
  }

 private:
  std::atomic<std::uint64_t> cut_{0};
};

TEST(SnapshotIncremental, ShortJournalReadFallsBackToTheFullRebuild) {
  const std::string dir = TempDirPath("incr-short");
  ShortReadVfs vfs;
  QueryService service = MakeService(dir, &vfs);
  DurableDocumentStore& store = service.store();
  Result<Session> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  const SuffixFixture fixture = PrepareSuffix(service, *session, false);

  // Reads stop one byte into the newest op's frames.
  vfs.ArmShortJournalReads(fixture.b1 + 1);
  const DurableDocumentStore::ViewBuildStats before = store.view_build_stats();
  Result<Snapshot> snap = session->OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(store.view_build_stats().replays, before.replays);
  EXPECT_EQ(store.view_build_stats().rebuilds, before.rebuilds + 1);
  // Same reads, same answer as the full path at this pin.
  ExpectMatchesColdRebuild(store, *snap);
  // The short read hid the newest op from both paths alike.
  vfs.ArmShortJournalReads(0);
  Result<LabeledDocument> whole = store.RebuildPinned(snap->pin());
  ASSERT_TRUE(whole.ok());
  EXPECT_LT(snap->node_count(), whole->tree().node_count());
  // Reads are whole again: the next point replays from b1, the last view
  // that reached its pin, so it holds every op.
  const DurableDocumentStore::ViewBuildStats after = store.view_build_stats();
  ExpectNextPointMatchesColdRebuild(store, *session, fixture.b2);
  EXPECT_EQ(store.view_build_stats().replays, after.replays + 1);
  session->Close();
  RemoveTree(dir);
}

}  // namespace
}  // namespace primelabel
