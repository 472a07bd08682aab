// The persistent campaign journal.
//
// LFI's workflow (§2, §4.1) is built on durable artifacts -- XML fault
// profiles, XML scenarios, and a test log developers mine after the run.
// The CampaignJournal extends that to the whole campaign lifecycle: an
// append-only XML file that records, for every job the engine merged, the
// scenario that ran (Scenario::ToXml), the injection log and fingerprint,
// the bugs it exposed, the coverage delta it contributed, and the feedback
// the scenario source was given. Three workflows fall out of one format:
//
//   resume   CampaignEngine::Options{journal_path, resume=true} replays the
//            journal through the engine's deterministic merge -- the source
//            streams and receives feedback exactly as live, but journaled
//            jobs take their results from disk instead of executing -- so a
//            killed campaign continues at the first unjournaled job and
//            finishes bit-identical to an uninterrupted run, at any worker
//            count.
//   replay   Any journaled injection converts to a deterministic call-count
//            scenario (InjectionLog::ReplayScenario) that reproduces the
//            crash from disk alone, in the spirit of the R2-style replay
//            the paper cites (lfi_tool replay).
//   shard    A JournalSource streams the recorded scenarios back as a
//            ScenarioSource, optionally dealing them round-robin across
//            shards, so one campaign's journal can seed or split another.
//
// Two on-disk encodings carry the same records (JournalFormat,
// auto-detected from the file's first bytes; `lfi_tool journal convert`
// round-trips them losslessly):
//
//   kExtent  the default for new journals: a binary stream of CRC-checked,
//            optionally compressed extents of up to 16 records each, closed
//            by a footer index (core/extent_journal.h; byte-level spec in
//            docs/journal-format.md). Extents are flushed whole, so a kill
//            loses at most the extent being filled -- up to 16 records,
//            which resume simply re-executes -- and recovery truncates to
//            the last valid extent boundary.
//   kXml     the debug/interchange encoding: a <journal version="1"> header
//            element carrying campaign metadata (<meta key value/>),
//            followed by one <record> element per merged job, appended and
//            flushed one at a time. A kill loses at most the record being
//            written; Load() drops a torn trailing record by truncating at
//            the last complete one.

#ifndef LFI_CORE_JOURNAL_H_
#define LFI_CORE_JOURNAL_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign_engine.h"
#include "core/exploration.h"

namespace lfi {

// Header field by key, or `def` when absent (the one metadata lookup both
// CampaignJournal::Meta and callers holding a bare JournalMetadata use).
inline std::string MetaValue(const JournalMetadata& meta, const std::string& key,
                             const std::string& def = "") {
  for (const auto& [k, v] : meta) {
    if (k == key) {
      return v;
    }
  }
  return def;
}

// One merged job: identity (label, seed, scenario), what the run observed,
// and the feedback the source was given at the merge point.
struct JournalRecord {
  static constexpr size_t kNoStreamIndex = static_cast<size_t>(-1);

  std::string label;
  uint64_t seed = 0;
  // Skipped by the engine's max_bugs saturation gate: the job never ran and
  // result/feedback are empty. Recorded anyway so the replay prefix stays
  // index-aligned with the source's deterministic job stream.
  bool gated = false;
  // The job's position in the campaign's global scenario stream (the engine's
  // merge index, or CampaignJob::stream_index for dealt shards of a larger
  // stream). MergeJournals sorts on it to interleave shard journals back
  // into single-process merge order. kNoStreamIndex on records written
  // before the attribute existed.
  size_t stream_index = kNoStreamIndex;
  // Which epoch of an epoch-synchronized campaign (docs/architecture.md)
  // merged this record: feedback from epoch e reached the scenario source
  // only after every record of epoch e. kNoEpoch for ordinary campaigns.
  // Epochs are non-decreasing in record order and their stream-index ranges
  // are disjoint (`lfi_tool journal info` validates both).
  size_t epoch = kNoEpoch;
  Scenario scenario;
  JobResult result;
  RunFeedback feedback;

  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
  static std::optional<JournalRecord> FromNode(const XmlNode& node,
                                               std::string* error = nullptr);
};

// One extent's entry in an extent journal's footer index: where its bytes
// live, how many records it holds, and the stream-index range they span --
// enough to seek to and decode any extent without touching the rest of the
// file (core/extent_journal.h).
struct ExtentInfo {
  static constexpr uint64_t kNoIndex = static_cast<uint64_t>(-1);

  uint64_t offset = 0;       // absolute byte offset of the extent header
  uint32_t stored_size = 0;  // payload bytes on disk, after the fixed header
  uint32_t record_count = 0;
  // Smallest/largest stream_index among the extent's records; kNoIndex when
  // no record carries one.
  uint64_t first_index = kNoIndex;
  uint64_t last_index = kNoIndex;
};

class ExtentJournalWriter;

class CampaignJournal {
 public:
  static constexpr int kVersion = 1;

  CampaignJournal();
  ~CampaignJournal();  // finalizes a still-open extent writer (best effort)
  CampaignJournal(CampaignJournal&&);
  CampaignJournal& operator=(CampaignJournal&&);

  // --- reading --------------------------------------------------------------

  // Reads and parses a journal file, auto-detecting the encoding from the
  // first bytes. Tolerates a torn tail (the kill-mid-write artifact):
  // everything after the last complete record (XML) or sealed extent
  // (extent format) is dropped. Fails on missing files, version mismatches,
  // and malformed records.
  static std::optional<CampaignJournal> Load(const std::string& path,
                                             std::string* error = nullptr);

  // Same, from journal bytes already in memory.
  static std::optional<CampaignJournal> Parse(std::string_view text,
                                              std::string* error = nullptr);

  const JournalMetadata& metadata() const { return meta_; }
  // Header field by key, or `def` when absent.
  std::string Meta(const std::string& key, const std::string& def = "") const {
    return MetaValue(meta_, key, def);
  }
  const std::vector<JournalRecord>& records() const { return records_; }
  // The on-disk encoding this journal was loaded from / created with.
  JournalFormat format() const { return format_; }
  // Extent journals: the footer index (or its scan-recovered equivalent),
  // one entry per sealed extent. Empty for XML journals.
  const std::vector<ExtentInfo>& extents() const { return extents_; }
  // Recovery introspection (`lfi_tool journal doctor`): how many bytes of
  // the loaded file were intact (through the last complete record / sealed
  // extent) -- anything past that is a torn tail a kill left behind.
  size_t intact_bytes() const { return intact_bytes_; }
  // Extent journals: the footer index was present and valid, i.e. the
  // journal was finalized and not torn (false = recovered by scan). XML has
  // no finalization marker and always reports true.
  bool sealed() const { return sealed_; }

  // --- writing --------------------------------------------------------------

  // Creates (truncating) `path` and writes the header in the requested
  // encoding. The journal is then writable via Append().
  bool Create(const std::string& path, JournalMetadata meta, std::string* error = nullptr,
              JournalFormat format = JournalFormat::kExtent);

  // Reopens a loaded journal's file for appending (resume), in whatever
  // encoding the file already uses: loaded records stay readable as the
  // replay prefix, new records land after them. The torn tail a kill left
  // -- and, for extent journals, the old footer -- is truncated away first,
  // so the file stays parseable after the resumed run appends past it.
  bool OpenAppend(const std::string& path, std::string* error = nullptr);

  // Serializes and appends one record. XML journals flush per record; the
  // extent encoding buffers and flushes per sealed extent (every
  // ExtentJournalWriter::kRecordsPerExtent records), so a kill loses at
  // most the open extent. Requires Create()/OpenAppend().
  bool Append(const JournalRecord& record);

  // Completes a writable journal: seals the open extent, writes the footer
  // index, flushes, and closes the write stream (no-op beyond a flush for
  // XML). Called by the destructor as a best-effort fallback; campaigns
  // that must surface I/O failures call it explicitly.
  bool Finalize(std::string* error = nullptr);

  bool writable() const;

 private:
  JournalMetadata meta_;
  std::vector<JournalRecord> records_;
  JournalFormat format_ = JournalFormat::kExtent;
  std::vector<ExtentInfo> extents_;
  // How many bytes of the loaded file were intact (through the last
  // complete record / sealed extent); OpenAppend truncates to this before
  // appending.
  size_t intact_bytes_ = 0;
  bool sealed_ = true;
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> out_;          // XML append stream
  std::unique_ptr<ExtentJournalWriter> extent_out_;     // extent append stream
};

// Streams a journal's recorded scenarios back as campaign jobs (label, seed,
// scenario -- results are NOT replayed; the jobs run live through whatever
// runner the engine is given), so one campaign's journal can seed another
// campaign or be split across processes. Open-loop: feedback is ignored.
class JournalSource : public ScenarioSource {
 public:
  struct Options {
    // Deal records round-robin across `shard_count` shards and stream only
    // those belonging to `shard_index`. The default streams everything.
    size_t shard_index = 0;
    size_t shard_count = 1;
    // Gated records never executed in the recording run; streaming them
    // re-runs scenarios the original campaign skipped.
    bool include_gated = false;
  };

  explicit JournalSource(const CampaignJournal& journal) : JournalSource(journal, Options()) {}
  JournalSource(const CampaignJournal& journal, Options options);

  std::vector<CampaignJob> NextBatch(size_t max_jobs) override;

  size_t size() const { return jobs_.size(); }

 private:
  std::vector<CampaignJob> jobs_;
  size_t next_ = 0;
};

// --- merging ----------------------------------------------------------------

// The resume identity check: "" when the journal at `path`, whose header is
// `recorded`, belongs to the campaign `expected` describes; otherwise the
// error to refuse the resume with. Every key of `expected` and every
// campaign-identity key of `recorded` (the merge identity plus the shard
// keys) must be present on both sides with equal values: a plain journal
// resumed as an epoch-len campaign, or the reverse, is a different campaign.
std::string CampaignIdentityMismatch(const std::string& path, const JournalMetadata& recorded,
                                     const JournalMetadata& expected);

// What one input journal contributed to a merge (per-shard stats).
struct MergeInputStats {
  std::string path;
  size_t shard_index = static_cast<size_t>(-1);  // the header's "shard" key, if any
  size_t records = 0;
  size_t scenarios_run = 0;  // non-gated records
  size_t bugs = 0;           // crash sites deduplicated within this input
};

// Adds `journal`'s records to one input's tally. `input_bugs` is that
// input's crash-site set, carried across calls when an input arrives in
// pieces (the epoch orchestrator's per-epoch shard journals).
void TallyMergeInput(const CampaignJournal& journal, MergeInputStats* stats,
                     std::set<FoundBug>* input_bugs);

// The campaign's job-order fold and the state it carries: the crash-site
// dedup set, the cumulative coverage, and how far the folded stream has
// grown. The engine folds every job it merges through it, and so do the
// journal merge (MergeRecordsInto) and the epoch orchestrator's resume
// replay, so a journal rebuilt from records is byte-identical to the one
// written live. A distributed coverage-guided campaign merges one epoch's
// shard journals per call, so folding from this state -- instead of
// re-folding from record zero like one-shot MergeJournals -- keeps the
// per-epoch cost proportional to the epoch, not the campaign so far.
struct MergeFoldState {
  std::set<FoundBug> bugs;
  CoverageMap coverage;
  size_t scenarios_run = 0;
  size_t records = 0;            // records merged so far
  size_t next_stream_index = 0;  // smallest stream index a new record may claim

  // Folds the job at `stream_index` and returns the feedback it earns:
  // crash sites first-report-wins, blocks newly covered versus everything
  // folded before it. A gated job (skipped by the max_bugs gate, never ran)
  // earns empty feedback and only advances the stream position.
  RunFeedback Fold(const JobResult& result, bool gated, size_t stream_index);

  // The campaign result folded so far; leaves the coverage moved-from.
  ExplorationResult TakeResult();
};

// The incremental merge step: interleaves `inputs`' records by recorded
// stream index (ties broken by each input's "shard" header key, then local
// position -- input order never matters), rejects overlaps both within the
// batch and against everything `fold` already merged, folds each record
// through the engine's dedup/feedback fold continuing from `fold`, and
// appends the folded records to the writable `output` journal. `fold` is
// advanced in place; `merged_records` (when non-null) receives the folded
// records in merge order, which is how the orchestrator delivers the
// epoch's feedback to its master source. One-shot MergeJournals is exactly
// this with a fresh fold and a fresh output file.
bool MergeRecordsInto(CampaignJournal& output, const std::vector<CampaignJournal>& inputs,
                      MergeFoldState* fold, std::string* error = nullptr,
                      std::vector<JournalRecord>* merged_records = nullptr);

// Merges N journals (typically the per-shard artifacts of one sharded
// campaign) into a single journal at `output_path`:
//
//   1. every input's campaign identity (command, system, strategy, budget,
//      seed, epoch-len, exhaustive) must agree; the output header carries
//      the agreed identity with the shard keys (shard, shards, epoch)
//      dropped, so the merged journal reads as the single-process
//      campaign's own journal;
//   2. records are interleaved deterministically -- sorted by their recorded
//      global stream index (shard header index, then input position, break
//      ties) -- so any input order yields a bit-identical output; and
//   3. the merge re-runs the engine's deterministic fold over the sorted
//      records: crash-site dedup in stream order and per-record feedback
//      recomputed against the rebuilt cumulative coverage, replacing the
//      shard-local feedback each input recorded.
//
// The result is byte-identical to the journal the equivalent single-process
// run writes, and therefore resumable. Refuses to overwrite an existing
// output file. Returns the merged campaign result (bugs, cumulative
// coverage, scenarios run); `metadata`/`stats` receive the output header and
// per-input accounting when non-null. `format` picks the output encoding;
// nullopt writes whatever encoding the first input uses (inputs of mixed
// encodings merge fine -- the format is not part of the campaign identity).
std::optional<ExplorationResult> MergeJournals(
    const std::vector<std::string>& inputs, const std::string& output_path,
    std::string* error = nullptr, JournalMetadata* metadata = nullptr,
    std::vector<MergeInputStats>* stats = nullptr,
    std::optional<JournalFormat> format = std::nullopt);

// --- converting -------------------------------------------------------------

// Rewrites a journal in another encoding, preserving header metadata and
// every record exactly -- converting back yields a byte-identical file (for
// finalized inputs; recovery of a torn input drops its tail first, exactly
// as Load does). `format` defaults to the opposite of the input's encoding.
// Refuses to overwrite an existing output. On success fills `records` and
// `written` (the record count and output encoding) when non-null.
bool ConvertJournal(const std::string& input_path, const std::string& output_path,
                    std::optional<JournalFormat> format = std::nullopt,
                    std::string* error = nullptr, size_t* records = nullptr,
                    JournalFormat* written = nullptr);

}  // namespace lfi

#endif  // LFI_CORE_JOURNAL_H_
