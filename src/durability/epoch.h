#ifndef PRIMELABEL_DURABILITY_EPOCH_H_
#define PRIMELABEL_DURABILITY_EPOCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "durability/vfs.h"

namespace primelabel {

// Epoch lifecycle for the durable store's reader/writer protocol.
//
// The MANIFEST names the current epoch; each epoch is a snapshot (full
// .plc or delta .pld against a base epoch) plus a journal. Readers pin an
// epoch — capturing (epoch, committed journal bytes) — and reconstruct a
// bit-identical view from those files while the single writer keeps
// committing and checkpointing. The registry retires an epoch's files only
// once no pin can reach it:
//
//   - journal files are needed by the current epoch and by pinned epochs
//     (a pin replays the journal up to its captured byte count);
//   - snapshot/delta files are needed by those epochs AND by every base
//     epoch a retained delta chains through.
//
// Retirement is best-effort unlinking: a failed unlink leaves a stray file
// that DurableDocumentStore::Open sweeps on the next start.

/// File naming shared by the store, recovery, and tooling.
std::string EpochSnapshotPath(const std::string& dir, std::uint64_t epoch);
std::string EpochDeltaPath(const std::string& dir, std::uint64_t epoch);
std::string EpochJournalPath(const std::string& dir, std::uint64_t epoch);

class EpochRegistry;

/// RAII pin on an epoch. While alive, the registry keeps every file needed
/// to reconstruct the pinned view. Move-only; releasing (or destroying)
/// the pin triggers retirement of anything it alone kept alive.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept { *this = std::move(other); }
  EpochPin& operator=(EpochPin&& other) noexcept;
  ~EpochPin() { Release(); }

  bool valid() const { return registry_ != nullptr; }
  std::uint64_t epoch() const { return epoch_; }
  /// Committed journal length (bytes, header included) at pin time: the
  /// prefix this pin's view replays. Frames committed later are invisible.
  std::uint64_t journal_bytes() const { return journal_bytes_; }
  /// True when the pinned epoch is stored as a delta: its view always
  /// materializes through the chain, since only a full snapshot has a
  /// catalog image to serve in place.
  bool is_delta() const { return is_delta_; }

  void Release();

 private:
  friend class EpochRegistry;
  std::shared_ptr<EpochRegistry> registry_;
  std::uint64_t id_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t journal_bytes_ = 0;
  bool is_delta_ = false;
};

/// Tracks the live epochs of one store directory, their delta-chain base
/// links, the current epoch's committed journal length, and active pins.
/// Thread-safe: the writer publishes epochs/journal lengths while reader
/// threads pin and release concurrently. Held by shared_ptr so pins can
/// outlive the store object that created them.
class EpochRegistry {
 public:
  EpochRegistry(Vfs* vfs, std::string dir);

  /// Declares an epoch that is not current — the delta-chain bases Open
  /// loads below the MANIFEST epoch — and how it is stored. `base_epoch`
  /// is meaningful only for deltas (the epoch the .pld applies against).
  void Register(std::uint64_t epoch, bool is_delta, std::uint64_t base_epoch);

  /// Declares `epoch` (as Register does) and publishes it as current
  /// (after the MANIFEST swing) in one critical section, then retires
  /// whatever became unreachable. One section matters: a pin released
  /// between a separate declare and publish would collect with the old
  /// epoch still current and unlink the new epoch's files.
  void Publish(std::uint64_t epoch, bool is_delta, std::uint64_t base_epoch);

  /// Installs (or clears, with nullptr) the retirement listener: invoked
  /// with the new current epoch after every Publish, outside
  /// the registry lock, on the publishing (writer) thread. The service
  /// layer's view cache hooks in here to drop materialized views of
  /// epochs no new pin can reach — pins always capture the current epoch,
  /// so a stale cached view can only ever be re-read through snapshots
  /// that already share it, never hit again. The listener may call back
  /// into the registry (releasing pins triggers retirement of the files
  /// those views alone kept alive).
  void SetRetirementListener(std::function<void(std::uint64_t)> listener);

  /// Publishes the current epoch's committed journal length; new pins
  /// capture this value.
  void SetDurableBytes(std::uint64_t bytes);

  std::uint64_t current() const;
  std::uint64_t durable_bytes() const;
  std::uint64_t pin_count() const;

  /// Pins the current epoch. `self` must be the shared_ptr owning this
  /// registry (the pin keeps it alive).
  EpochPin Pin(std::shared_ptr<EpochRegistry> self);

  /// True when every file the epoch chain of `epoch` needs still exists —
  /// what pin tests assert before and after retirement.
  bool ChainFilesPresent(std::uint64_t epoch) const;

 private:
  friend class EpochPin;

  struct EpochInfo {
    bool is_delta = false;
    std::uint64_t base_epoch = 0;
    bool journal_removed = false;
  };

  void Unpin(std::uint64_t id);
  /// Retires unreachable epochs' files. Epochs newer than current_ are
  /// never collected: they are declared but not yet published. Caller
  /// holds mu_.
  void CollectLocked();

  Vfs* vfs_;
  const std::string dir_;
  mutable std::mutex mu_;
  /// Guarded by listener_mu_, not mu_: the listener runs outside mu_ (it
  /// may re-enter the registry), but installing/clearing it must still be
  /// safe against a concurrent Publish.
  mutable std::mutex listener_mu_;
  std::function<void(std::uint64_t)> retirement_listener_;
  std::map<std::uint64_t, EpochInfo> epochs_;
  std::map<std::uint64_t, std::uint64_t> pins_;  ///< pin id -> epoch
  std::uint64_t next_pin_id_ = 1;
  std::uint64_t current_ = 0;
  std::uint64_t durable_bytes_ = 0;
};

}  // namespace primelabel

#endif  // PRIMELABEL_DURABILITY_EPOCH_H_
