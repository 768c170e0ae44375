/**
 * @file
 * Checkpointer: the crash-consistency coordinator of a durable
 * out-of-core sort.
 *
 * A checkpointed sort runs against two PersistentRunStores under a
 * job directory plus the job manifest (io/manifest.hpp).  The
 * Checkpointer owns all three and enforces the ordering the resume
 * path relies on: run *data* is flushed (RunStore::flush, i.e.
 * fdatasync) before the manifest that records it is committed, so any
 * run a committed manifest lists is durable on the device.
 *
 * Commit points:
 *  - commitChunk(): after each phase-1 chunk spill — the chunk's run
 *    is checksummed by read-back, appended, and the journal committed.
 *  - commitPass(): after each non-final phase-2 merge pass — the
 *    output runs are checksummed, the run list replaced wholesale,
 *    and the journal committed.  The final pass is deliberately NOT
 *    checkpointed: its output goes to the caller's sink, which a
 *    resumed attempt recreates from scratch, so redoing it is always
 *    safe and always byte-identical (StagePlan is deterministic in
 *    the run list and fan-in).
 *
 * Resume validation is paranoid by design: manifest CRC + version +
 * parameter echo (io/manifest.hpp), then every recorded run's extent
 * is bounds-checked against the spill file and its data re-read and
 * checksummed before a single record is trusted.  Any defect either
 * falls back loudly to a fresh start (ResumeOrFresh — the reason is
 * reported through StreamStats::resumeFallback) or fails the sort
 * with the same one-line reason (ResumeStrict, the --resume contract).
 *
 * Concurrency: single-writer by construction — commitChunk() is
 * called only by phase 1's spill task, commitPass() only by the
 * phase-2 coordinator, and the two phases never overlap.  No mutex,
 * same contract as run metadata in io/run_store.hpp.
 */

#ifndef BONSAI_SORTER_CHECKPOINT_HPP
#define BONSAI_SORTER_CHECKPOINT_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "io/manifest.hpp"
#include "io/run_store.hpp"

namespace bonsai::sorter
{

/** What to do with a job directory's previous contents. */
enum class ResumePolicy {
    ResumeOrFresh, ///< resume when valid, else loud fresh fallback
    ResumeStrict,  ///< resume or fail with the validation reason
};

/** Crash-consistency knobs of a durable (checkpointed) sort. */
struct DurableOptions
{
    std::string dir; ///< job directory for spills + manifest
    ResumePolicy policy = ResumePolicy::ResumeOrFresh;
    /** Installed on the job's spill files and manifest commits
     *  (tests; nullptr = off). */
    std::shared_ptr<io::FaultPolicy> faultPolicy;
    io::RetryPolicy retryPolicy;
};

template <typename RecordT>
class Checkpointer
{
  public:
    struct Config
    {
        /** Job directory (created if missing), resume policy, and the
         *  fault and retry policies of both stores' files and the
         *  manifest temp file. */
        DurableOptions durable;
        /** The request echo a manifest must match to be resumable. */
        io::ManifestParams params;
        /** Batch size for run-checksum read-back (records). */
        std::uint64_t verifyBatchRecords = 1 << 14;
    };

    /** Opens (or creates) the job: loads and validates any previous
     *  manifest per the policy, leaving either a resumed state (runs
     *  installed on the current store) or a clean fresh one. */
    explicit Checkpointer(Config cfg) : cfg_(std::move(cfg))
    {
        BONSAI_REQUIRE(!cfg_.durable.dir.empty(),
                       "a checkpointed sort needs a job directory");
        BONSAI_REQUIRE(cfg_.params.chunkRecords > 0,
                       "checkpoint params need the chunk length");
        io::createDirectories(cfg_.durable.dir);
        if (tryResume())
            return;
        startFresh();
    }

    /** The two persistent spill stores (0 = front, 1 = back). */
    io::PersistentRunStore<RecordT> &
    store(unsigned i)
    {
        return *stores_[i];
    }
    io::PersistentRunStore<RecordT> &front() { return *stores_[0]; }
    io::PersistentRunStore<RecordT> &back() { return *stores_[1]; }

    /** True when a previous attempt's work was adopted. */
    bool resumed() const { return resumed_; }

    /** Phase-1 chunks adopted from the previous attempt. */
    std::uint64_t resumedChunks() const { return resumedChunks_; }

    /** Non-final merge passes adopted from the previous attempt. */
    std::uint64_t resumedPasses() const { return resumedPasses_; }

    /** Journal commits issued by *this* attempt. */
    std::uint64_t commits() const { return commits_; }

    /** Chunks recorded as spilled (resumed + this attempt). */
    std::uint64_t chunksDone() const { return m_.chunksDone; }

    /** All input consumed and spilled (phase 1 can be skipped). */
    bool phase1Complete() const { return m_.phase1Complete; }

    /** Which store holds the live runs (0 = front, 1 = back). */
    unsigned currentStore() const { return m_.currentStore; }

    /** Why a requested resume fell back ("" = no fallback). */
    const std::string &fallbackReason() const { return fallback_; }

    /**
     * Durability point after one phase-1 chunk spill: flush the front
     * store, checksum the new run by read-back, append it to the
     * journal and commit.  phase1Complete is derived — the chunk
     * count saturating means the whole input is spilled.
     */
    void
    commitChunk(const RunSpan &run)
    {
        front().flush("phase-1 checkpoint flush");
        io::ManifestRun rec;
        rec.offset = run.offset;
        rec.length = run.length;
        rec.crc = runCrc(front(), run, "phase-1 checkpoint checksum");
        m_.runs.push_back(rec);
        ++m_.chunksDone;
        m_.currentStore = 0;
        m_.phase1Complete = m_.chunksDone >= totalChunks();
        commit();
    }

    /**
     * Durability point after one non-final merge pass: the caller has
     * already flushed store @p dst_idx; checksum the pass's output
     * runs, replace the journal's run list, advance the pass count
     * and commit.
     */
    void
    commitPass(unsigned dst_idx, const std::vector<RunSpan> &runs)
    {
        m_.runs.clear();
        m_.runs.reserve(runs.size());
        for (const RunSpan &r : runs) {
            io::ManifestRun rec;
            rec.offset = r.offset;
            rec.length = r.length;
            rec.crc = runCrc(store(dst_idx), r,
                             "phase-2 checkpoint checksum");
            m_.runs.push_back(rec);
        }
        m_.currentStore = static_cast<std::uint8_t>(dst_idx);
        m_.phase1Complete = true;
        ++m_.passesDone;
        commit();
    }

    /** Delete the job's durable artifacts (successful completion). */
    void removeArtifacts() { io::removeJobArtifacts(cfg_.durable.dir); }

  private:
    std::uint64_t
    totalChunks() const
    {
        return (cfg_.params.recordsIn + cfg_.params.chunkRecords - 1) /
               cfg_.params.chunkRecords;
    }

    void
    openStores(bool resume)
    {
        for (unsigned i = 0; i < 2; ++i) {
            const std::string path =
                cfg_.durable.dir + "/" +
                (i == 0 ? io::kFrontStoreFileName
                        : io::kBackStoreFileName);
            stores_[i] =
                std::make_unique<io::PersistentRunStore<RecordT>>(
                    path, resume);
            stores_[i]->setFaultPolicy(cfg_.durable.faultPolicy);
            stores_[i]->setRetryPolicy(cfg_.durable.retryPolicy);
        }
    }

    /** Adopt the previous attempt if its manifest and run data check
     *  out; throws for ResumeStrict, records the fallback reason and
     *  returns false otherwise. */
    bool
    tryResume()
    {
        const io::ManifestLoadResult r = io::loadManifest(cfg_.durable.dir);
        std::string reason;
        if (r.status == io::ManifestStatus::Ok) {
            reason =
                io::describeParamMismatch(cfg_.params,
                                          r.manifest.params);
            if (reason.empty()) {
                openStores(/*resume=*/true);
                reason = verifyRuns(r.manifest);
                if (reason.empty()) {
                    adopt(r.manifest);
                    return true;
                }
                stores_[0].reset();
                stores_[1].reset();
            }
        } else {
            reason = r.error;
        }
        if (cfg_.durable.policy == ResumePolicy::ResumeStrict)
            throw std::runtime_error("bonsai checkpoint: cannot "
                                     "resume: " +
                                     reason);
        // A missing manifest is the normal first run of a job, not a
        // fallback worth reporting.
        if (r.status != io::ManifestStatus::NotFound)
            fallback_ = reason;
        return false;
    }

    /** Bounds-check and re-checksum every recorded run; "" = valid. */
    std::string
    verifyRuns(const io::JobManifest &m)
    {
        io::PersistentRunStore<RecordT> &live =
            store(m.currentStore);
        const std::uint64_t fileRecords =
            live.sizeBytes() / sizeof(RecordT);
        for (std::size_t i = 0; i < m.runs.size(); ++i) {
            const io::ManifestRun &r = m.runs[i];
            if (r.offset + r.length > fileRecords)
                return "spill file too small for recorded run " +
                       std::to_string(i) + " (@" +
                       std::to_string(r.offset) + "+" +
                       std::to_string(r.length) + " records, file "
                       "holds " +
                       std::to_string(fileRecords) + ")";
            const std::uint32_t got =
                runCrc(live, RunSpan{r.offset, r.length},
                       "resume checksum of recorded run");
            if (got != r.crc)
                return "run data checksum mismatch for recorded "
                       "run " +
                       std::to_string(i) + " (@" +
                       std::to_string(r.offset) + "+" +
                       std::to_string(r.length) + " records)";
        }
        return "";
    }

    void
    adopt(const io::JobManifest &m)
    {
        m_ = m;
        resumed_ = true;
        resumedChunks_ = m.chunksDone;
        resumedPasses_ = m.passesDone;
        std::vector<RunSpan> spans;
        spans.reserve(m.runs.size());
        for (const io::ManifestRun &r : m.runs)
            spans.push_back(RunSpan{r.offset, r.length});
        store(m.currentStore).setRuns(std::move(spans));
    }

    void
    startFresh()
    {
        // Stale artifacts — a previous job's manifest, orphan spill
        // files from an aborted newer attempt — must not leak into a
        // fresh job.
        io::removeJobArtifacts(cfg_.durable.dir);
        openStores(/*resume=*/false);
        m_ = io::JobManifest{};
        m_.params = cfg_.params;
    }

    /** CRC a run's raw bytes by batched read-back.  The data was just
     *  flushed (or is being resume-verified), so the read is page-
     *  cache hot in the common case. */
    std::uint32_t
    runCrc(const io::PersistentRunStore<RecordT> &s,
           const RunSpan &run, const char *context) const
    {
        std::vector<RecordT> buf(static_cast<std::size_t>(
            std::min(run.length, cfg_.verifyBatchRecords)));
        std::uint32_t crc = 0xffffffffu;
        std::uint64_t done = 0;
        while (done < run.length) {
            const std::uint64_t n = std::min<std::uint64_t>(
                buf.size(), run.length - done);
            s.readAt(run.offset + done, buf.data(), n, context);
            crc = io::crc32(buf.data(), n * sizeof(RecordT), crc);
            done += n;
        }
        return io::crc32Finish(crc);
    }

    /** The write-temp / fdatasync / rename / dir-fsync commit. */
    void
    commit()
    {
        io::saveManifest(cfg_.durable.dir, m_,
                         cfg_.durable.faultPolicy,
                         cfg_.durable.retryPolicy);
        ++commits_;
    }

    Config cfg_;
    std::unique_ptr<io::PersistentRunStore<RecordT>> stores_[2];
    io::JobManifest m_;
    bool resumed_ = false;
    std::uint64_t resumedChunks_ = 0;
    std::uint64_t resumedPasses_ = 0;
    std::uint64_t commits_ = 0;
    std::string fallback_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_CHECKPOINT_HPP
