#pragma once
// Content-addressed experiment store (ROADMAP item 3).
//
// Maps a StoreKey (store/key.h — canonical hash of graph content,
// protocol, seed, fault plan, model version) to the full outcome of
// that computation: the SimResult including its event-stream
// fingerprint, the compute wall time, and an optional meta payload
// (e.g. a spread curve). Sweeps consult the store before computing a
// cell; `latgossip run --store=DIR` is the command-line way in.
//
// Layout (exemplar: Nix's libstore, radically simplified — one flat
// log instead of a narinfo/nar split, because values are tiny):
//
//   <dir>/store.v1.log   append-only JSONL, one record per line:
//     {"schema":"latgossip.store.v1","key":"<32 hex>","result":{…},
//      "wall_ms":…,"meta":{…}}
//
// The whole log is replayed into an in-memory index on open — records
// are ~300 bytes, so a million cells is ~300 MB of log and a few
// seconds of replay, fine for the current scale; a side index file
// becomes worthwhile only past that.
//
// Crash safety:
//  * inserts append one complete line with a single fwrite + flush, so
//    a crash can only ever truncate the final record;
//  * replay tolerates exactly that: an unparseable or truncated line is
//    dropped (counted in stats().recovered_records) and every valid
//    record is kept — including valid records *after* a corrupted line,
//    so one damaged sector does not orphan the rest of the log;
//  * when replay found damage, the log is rewritten with only the valid
//    records via temp file + atomic rename (repair-on-open), so damage
//    is paid for once, not re-skipped forever.
//
// Thread safety: lookup/insert/contains/stats are safe to call
// concurrently — TrialPool workers insert cells as they compute them
// (covered by the TSan CI leg). One writer process per store directory;
// concurrent *processes* are out of scope.

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/metrics.h"
#include "store/key.h"

namespace latgossip {

/// The cached value of one computation.
struct StoreRecord {
  SimResult result;
  double wall_ms = 0.0;   ///< compute time at insert (provenance only)
  std::string meta;       ///< optional JSON object ("" = none)
};

struct StoreStats {
  std::size_t records = 0;            ///< cells in the index
  std::size_t hits = 0;               ///< lookup() found the key
  std::size_t misses = 0;             ///< lookup() did not
  std::size_t inserts = 0;            ///< successful insert() calls
  std::size_t recovered_records = 0;  ///< damaged lines dropped at open
  bool repaired = false;              ///< open() rewrote the log
};

class ExperimentStore {
 public:
  static constexpr std::string_view kSchema = "latgossip.store.v1";

  /// Opens (creating the directory if needed) and replays the log.
  /// Throws std::runtime_error when the directory cannot be created or
  /// the log cannot be opened for append.
  explicit ExperimentStore(const std::string& dir);
  ~ExperimentStore();

  ExperimentStore(const ExperimentStore&) = delete;
  ExperimentStore& operator=(const ExperimentStore&) = delete;

  /// The record for `key`, or nullopt. Counts a hit or a miss.
  std::optional<StoreRecord> lookup(const StoreKey& key);

  /// Presence check without touching the hit/miss counters.
  bool contains(const StoreKey& key) const;

  /// Insert `rec` under `key`: appends to the log and indexes it.
  /// Returns false (and writes nothing) if the key is already present —
  /// first writer wins, which is the right semantics for a
  /// content-addressed store (all writers computed the same value; the
  /// verify path exists to prove it). Throws on I/O failure.
  bool insert(const StoreKey& key, const StoreRecord& rec);

  /// Flush buffered appends to the OS.
  void flush();

  std::size_t size() const;
  StoreStats stats() const;
  std::string log_path() const;

 private:
  void replay_and_repair();

  mutable std::mutex mutex_;
  std::string dir_;
  std::FILE* log_ = nullptr;
  std::unordered_map<StoreKey, StoreRecord, StoreKeyHash> index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
  std::size_t recovered_ = 0;
  bool repaired_ = false;
};

/// One serialized record line (no trailing newline) — exposed for the
/// log round-trip and fuzz tests.
std::string store_record_line(const StoreKey& key, const StoreRecord& rec);

/// Parse one log line. Returns nullopt on any damage: bad JSON, wrong
/// schema, malformed key, or a missing or mistyped result field (counts
/// must be non-negative integers). A line this accepts serializes back
/// through store_record_line to a line that parses to the same record.
std::optional<std::pair<StoreKey, StoreRecord>> parse_store_record(
    std::string_view line);

}  // namespace latgossip
