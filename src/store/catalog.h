#ifndef PRIMELABEL_STORE_CATALOG_H_
#define PRIMELABEL_STORE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/reduction.h"
#include "core/sc_table.h"
#include "core/structure_oracle.h"
#include "durability/vfs.h"
#include "store/label_arena.h"
#include "util/binio.h"
#include "util/status.h"

namespace primelabel {

/// On-disk catalog of a prime-labeled document.
///
/// The paper's storage model keeps (tag, label) rows in a relational table
/// plus the SC table; restarting the system must not require relabeling.
/// The catalog persists exactly that: one row per attached node (tag,
/// parent row, attributes, prime label bytes, self-label) and the SC
/// records, in a little-endian binary format with a magic/version header.
///
/// Format v2 ("PLCATLG2") adds per-row attributes so a LabeledDocument can
/// be reconstructed losslessly. Format v3 ("PLCATLG3") additionally
/// persists each row's divisibility fingerprint together with a hash of
/// the fingerprint configuration (the 7-chunk residue table), so loading
/// skips the per-row FingerprintOf pass; a v3 file whose config hash does
/// not match the running binary falls back to recomputing. v2 files stay
/// loadable (fingerprints recomputed); anything else is rejected with a
/// kParseError naming the found and supported versions.
///
/// Format v4 ("PLCATLG4") is columnar and zero-copy (DESIGN.md §15). The
/// row-interleaved stream of v2/v3 is split into CRC-digested sections,
/// each 8-byte aligned within the file:
///
///   header     magic, header CRC, fingerprint config hash, row count,
///              SC group size, section directory (id, crc32, offset,
///              length per section)
///   ROWMETA    per-row tag / element flag / parent / attributes stream
///   SELF       row_count little-endian u64 self-labels
///   LABELS     a LabelArena image of the label magnitudes
///   FPS        row_count packed 72-byte fingerprint images,
///              byte-identical to the v3 per-row images
///   SCMETA     the SC records' (modulus, order) pairs
///   SCVALS     a LabelArena image of the records' SC magnitudes
///
/// The column split is what makes the file mmap-able: SELF, LABELS, FPS
/// and SCVALS are exactly the in-memory representation on little-endian
/// hosts, so OpenCatalogMapped serves queries straight out of the mapped
/// bytes — no per-row decode, no per-label allocation, and the kernel
/// shares one physical copy across every process and epoch view. Section
/// digests are verified eagerly on open; any flipped byte surfaces as
/// kCorruption before a query can read it.

/// Newest format WriteCatalog emits, and the ceiling LoadCatalog accepts.
inline constexpr int kCatalogFormatVersion = 4;
/// Oldest format LoadCatalog still reads.
inline constexpr int kCatalogMinSupportedVersion = 2;

struct CatalogRow {
  std::string tag;          ///< element tag or text content
  bool is_element = true;
  std::int64_t parent = -1;  ///< row index of the parent, -1 for the root
  /// Attribute key/value pairs in document order (elements only).
  std::vector<std::pair<std::string, std::string>> attributes;
  BigInt label;              ///< full prime label
  std::uint64_t self = 1;    ///< self-label (prime; 1 for the root)
  /// Divisibility fingerprint of `label`. Persisted by format v3; left
  /// default by v2 loads (the LoadedCatalog recomputes it then).
  LabelFingerprint fingerprint;
};

/// A catalog file decoded to its raw contents, before any SC table is
/// built: rows in document order (parents by row index) and the SC records
/// with their persisted values, not yet indexed or verified. The
/// delta/recovery paths overlay deltas onto this state and build the SC
/// table once at the end of a chain (durability/delta.h).
struct CatalogContents {
  /// Format version of the file the contents were read from.
  int format_version = kCatalogFormatVersion;
  std::vector<CatalogRow> rows;
  /// True when `rows` carry fingerprints valid for this binary's config
  /// (v3/v4 with a matching hash); false means recompute them.
  bool fingerprints_persisted = false;
  int sc_group_size = 5;
  std::vector<ScRecord> sc_records;
};

/// A catalog loaded back from disk: rows in document order plus the SC
/// table, able to answer structure and order queries from the stored
/// labels alone (no XmlTree needed).
///
/// Implements StructureOracle over NodeId handles: rows are written in
/// preorder, so the NodeId of a node in the reconstructed tree equals its
/// row index — the same handle vocabulary the live schemes use, which is
/// what lets one query pipeline (and one test suite) run against both.
///
/// Two storage modes share one query engine. *Heap* mode (LoadCatalog,
/// and in-memory construction) holds decoded CatalogRows: one BigInt per
/// label, mutable, the shape the delta/recovery paths need. *Arena* mode
/// (OpenCatalogMapped over a v4 file) keeps labels, SC values and
/// fingerprints as read-only views into the catalog image — possibly an
/// mmap shared with other views — and materializes BigInts only at the
/// explicit Materialize* edges. Every query kernel runs on limb
/// spans via mode-neutral accessors, so the two modes are bit-identical
/// by construction.
class LoadedCatalog : public StructureOracle {
 public:
  /// Derives a divisibility fingerprint per row at load time (v2 labels on
  /// disk carry none), so batched queries over a reloaded catalog run the
  /// same fast path as the live scheme.
  LoadedCatalog(std::vector<CatalogRow> rows, ScTable sc_table);

  /// Adopts the fingerprints already present in `rows` (format v3 with a
  /// matching config hash) instead of recomputing them — the load-time win
  /// the v3 bump buys. Callers must have validated the config hash.
  struct AdoptFingerprints {};
  LoadedCatalog(std::vector<CatalogRow> rows, ScTable sc_table,
                AdoptFingerprints);

  /// Heap-mode rows. Arena-backed catalogs have no decoded rows; use the
  /// per-field accessors below or MaterializeRows().
  const std::vector<CatalogRow>& rows() const {
    PL_CHECK(!arena_backed_);
    return rows_;
  }
  const ScTable& sc_table() const {
    PL_CHECK(!arena_backed_);
    return sc_table_;
  }

  /// True when this catalog serves queries from the v4 image in place
  /// (OpenCatalogMapped) instead of decoded heap rows.
  bool arena_backed() const { return arena_backed_; }

  /// Number of rows, in either mode.
  std::size_t row_count() const {
    return arena_backed_ ? meta_.size() : rows_.size();
  }

  /// Mode-neutral per-row accessors (NodeId == row index).
  const std::string& tag_of(NodeId id) const {
    return arena_backed_ ? meta_[id].tag : rows_[id].tag;
  }
  bool is_element_of(NodeId id) const {
    return arena_backed_ ? meta_[id].is_element : rows_[id].is_element;
  }
  std::int64_t parent_of(NodeId id) const {
    return arena_backed_ ? meta_[id].parent : rows_[id].parent;
  }
  const std::vector<std::pair<std::string, std::string>>& attributes_of(
      NodeId id) const {
    return arena_backed_ ? meta_[id].attributes : rows_[id].attributes;
  }
  std::uint64_t self_of(NodeId id) const {
    return arena_backed_ ? selfs_[id] : rows_[id].self;
  }
  /// The row's label magnitude as a limb view — straight into the arena
  /// (arena mode) or into the row's BigInt (heap mode). Valid while the
  /// catalog (and its backing image) lives.
  LabelView label_view(NodeId id) const {
    return arena_backed_ ? labels_[id] : rows_[id].label.Magnitude();
  }

  /// Resident bytes devoted to the label store: label magnitudes, SC
  /// values and fingerprints. In arena mode this is the (shared, mmap-
  /// backed) image footprint; in heap mode, the per-row BigInt and
  /// fingerprint heap cost. The STATS wire field and the memory benches
  /// report this number.
  std::size_t label_store_bytes() const;

  /// Format version of the file this catalog was loaded from (writers and
  /// in-memory constructions report the current version).
  int format_version() const { return format_version_; }
  /// True when the on-disk fingerprints were adopted verbatim; false when
  /// they were recomputed (v2 file, or v3 with a stale config hash).
  bool fingerprints_persisted() const { return fingerprints_persisted_; }

  /// Non-destructive materialization of full heap rows / SC table from
  /// either mode — what a sealed arena view hands to LabeledDocument when
  /// a caller genuinely needs a mutable document. Arena mode materializes
  /// BigInts from the image (the mutation edge where spans become owned
  /// arithmetic again). Callers that want a mutable document straight
  /// from a file use ReadCatalogContents instead.
  std::vector<CatalogRow> MaterializeRows() const;
  ScTable MaterializeScTable() const;

  /// Declares the expected access pattern on the backing image
  /// (madvise): kSequential ahead of a front-to-back sweep, kRandom for
  /// point-lookup serving. No-op in heap mode or on an owned-bytes
  /// backing, so callers hint unconditionally.
  void AdviseAccess(AccessHint hint) const {
    if (mapped_ != nullptr) mapped_->Advise(hint);
  }

  /// Divisibility ancestor test over stored labels.
  bool IsAncestor(NodeId x, NodeId y) const override;
  /// Parent test: label(y) == label(x) * self(y).
  bool IsParent(NodeId x, NodeId y) const override;
  /// Global order number recovered from the SC table (root = 0).
  std::uint64_t OrderOf(NodeId row) const override;

  /// Batched queries on the fast-path engine: fingerprint rejection plus
  /// per-anchor reciprocal caching, bit-identical to the scalar tests.
  void IsAncestorBatch(std::span<const std::pair<NodeId, NodeId>> pairs,
                       std::vector<std::uint8_t>* results) const override;
  void SelectDescendants(NodeId ancestor, std::span<const NodeId> candidates,
                         std::vector<NodeId>* out) const override;
  void SelectAncestors(NodeId descendant, std::span<const NodeId> candidates,
                       std::vector<NodeId>* out) const override;

 private:
  /// Uninitialized shell for the v4 open paths, which fill the arena
  /// views in place (ParseV4Image).
  LoadedCatalog() = default;

  /// Parses a v4 image into arena mode: validates header and section
  /// digests, opens the column views over `bytes` (which must outlive
  /// `out` — the caller attaches the backing), and decodes the row/SC
  /// metadata. kCorruption on any digest or shape mismatch.
  static Status ParseV4Image(std::span<const std::uint8_t> bytes,
                             const std::string& origin, LoadedCatalog* out);

  /// Arena mode: the SC records with their values copied out of SCVALS,
  /// not yet indexed or verified.
  std::vector<ScRecord> MaterializeScRecords() const;

  /// Compact per-row metadata decoded from a v4 ROWMETA section (arena
  /// mode only) — everything CatalogRow holds except the big columns.
  struct RowMeta {
    std::string tag;
    std::vector<std::pair<std::string, std::string>> attributes;
    std::int64_t parent = -1;
    bool is_element = true;
  };

  const CatalogRow& row(NodeId id) const {
    return rows_[static_cast<std::size_t>(id)];
  }
  const LabelFingerprint& fingerprint(NodeId id) const {
    return fps_view_[static_cast<std::size_t>(id)];
  }

  // Heap mode.
  std::vector<CatalogRow> rows_;
  std::vector<LabelFingerprint> fps_;
  ScTable sc_table_;

  // Arena mode: views into the v4 image plus the backing that keeps the
  // image alive (exactly one of owned_bytes_/mapped_ is engaged). The
  // pointers survive moves — they target the image / heap buffers, which
  // transfer with the object.
  bool arena_backed_ = false;
  std::vector<std::uint8_t> owned_bytes_;
  std::unique_ptr<MappedRegion> mapped_;
  LabelArena labels_;
  LabelArena sc_values_;
  const LabelFingerprint* fps_view_ = nullptr;  ///< both modes (see ctors)
  const std::uint64_t* selfs_ = nullptr;        ///< SELF column, arena mode
  std::vector<RowMeta> meta_;
  /// SC record shapes (moduli/orders; sc left empty — the magnitudes stay
  /// in sc_values_) and the modulus -> record index needed by OrderOf.
  std::vector<ScRecord> sc_meta_;
  std::unordered_map<std::uint64_t, std::uint32_t> sc_index_;
  int sc_group_size_ = 5;

  int format_version_ = kCatalogFormatVersion;
  bool fingerprints_persisted_ = false;

  friend Result<CatalogContents> ReadCatalogContents(Vfs& vfs,
                                                     const std::string& path);
  friend Result<LoadedCatalog> LoadCatalog(Vfs& vfs, const std::string& path);
  friend Result<LoadedCatalog> OpenCatalogMapped(Vfs& vfs,
                                                 const std::string& path);
};

/// Row/record codecs, shared by the full catalog format and the delta
/// snapshot format (durability/delta.h) so a row image is byte-identical
/// wherever it is persisted. `with_fingerprint` selects the v3 row shape.
void EncodeCatalogRow(const CatalogRow& row, bool with_fingerprint,
                      ByteWriter* out);
Status DecodeCatalogRow(ByteReader* in, bool with_fingerprint,
                        CatalogRow* row);
void EncodeScRecord(const ScRecord& record, ByteWriter* out);
Status DecodeScRecord(ByteReader* in, ScRecord* record);

/// Knobs for WriteCatalog. The version knob exists for compatibility
/// testing and the v2-vs-v3 load benchmarks; production callers take the
/// default (newest) format.
struct CatalogWriteOptions {
  int format_version = kCatalogFormatVersion;
};

/// Row-level catalog writer: rows must be in document order with parents
/// referenced by row index (v3 additionally persists each row's
/// fingerprint, which the caller must have filled in). Document-level
/// callers go through SaveCatalog(path, LabeledDocument) in corpus/, which
/// assembles the rows. The file is assembled in memory and handed to the
/// Vfs as one write + fsync.
Status WriteCatalog(Vfs& vfs, const std::string& path,
                    const std::vector<CatalogRow>& rows,
                    const ScTable& sc_table,
                    const CatalogWriteOptions& options = {});

/// Decodes a catalog written by WriteCatalog, whatever its version, into
/// its raw contents. Same errors as LoadCatalog, which is this plus the SC
/// table build (ScTable::FromRecords) and the fingerprint column.
Result<CatalogContents> ReadCatalogContents(Vfs& vfs, const std::string& path);

/// Reads a catalog written by WriteCatalog into heap mode (decoded rows),
/// whatever its version. Fails with kParseError on a bad magic, an
/// unsupported version (the message names found vs. supported versions)
/// or a truncated v2/v3 file; a v4 file whose section digests do not
/// match fails with kCorruption.
Result<LoadedCatalog> LoadCatalog(Vfs& vfs, const std::string& path);

/// Opens a catalog for reading with zero-copy intent: a v4 file on a
/// little-endian host whose fingerprint config matches this binary comes
/// back arena-backed over Vfs::MapReadOnly — section digests verified
/// eagerly, then queries run straight out of the mapped image. Anything
/// else (v2/v3 file, stale fingerprint config, big-endian host) falls
/// back to LoadCatalog's heap mode, so callers can treat this as "the
/// fastest correct open" and inspect arena_backed() if they care.
/// Corruption never falls back: a v4 file with a bad digest fails with
/// kCorruption from either entry point.
Result<LoadedCatalog> OpenCatalogMapped(Vfs& vfs, const std::string& path);

}  // namespace primelabel

#endif  // PRIMELABEL_STORE_CATALOG_H_
