/**
 * @file
 * The host sorts' output contract, asserted directly: every entry
 * point — DramSorter::sort, SsdSorter::sort and sortStream,
 * StreamEngine::sortInPlace and sortStream on memory and file stores,
 * and a resumed checkpointed sort — emits exactly
 * std::stable_sort of its input, ties included, whatever the chunk
 * (every length 1-40, and lengths that are not multiples of 16), the
 * budget and the thread count.
 *
 * Every record carries its input index (a Record's value, a gensort
 * record's value bytes 10-17), so a tie left in any order but the
 * input's changes the bytes.  The key sets tie in the whole key:
 * FewDistinct, AllEqual, and PrefixTie (for gensort, bytes 0-7 equal
 * and bytes 8-9 of 4096 values; for a Record, a key of 4096 values).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/contract.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "gensort_keys.hpp"
#include "io/byte_io.hpp"
#include "io/manifest.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/external.hpp"
#include "sorter/sorters.hpp"

namespace bonsai
{
namespace
{

constexpr GensortKeys kTiedKeys[] = {GensortKeys::FewDistinct,
                                     GensortKeys::AllEqual,
                                     GensortKeys::PrefixTie};

/** @p n records of key set @p keys, each valued by its input index. */
template <typename RecordT>
std::vector<RecordT>
tiedInput(std::size_t n, GensortKeys keys, std::uint64_t seed)
{
    if constexpr (std::is_same_v<RecordT, GensortRecord>) {
        return makeGensortKeys(n, keys, seed);
    } else {
        if (keys == GensortKeys::FewDistinct)
            return makeRecords(n, Distribution::FewDistinct, seed);
        if (keys == GensortKeys::AllEqual)
            return makeRecords(n, Distribution::AllEqual, seed);
        SplitMix64 rng(seed);
        std::vector<Record> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = Record{0xA5A5A5A5A5A5A000 | rng.nextBounded(4096), i};
        return out;
    }
}

template <typename RecordT>
std::vector<RecordT>
stableSorted(std::vector<RecordT> data)
{
    std::stable_sort(data.begin(), data.end());
    return data;
}

template <typename RecordT>
bool
sameBytes(const std::vector<RecordT> &a, const std::vector<RecordT> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

/** @p engine's streamed sort of @p input over @p front and @p back. */
template <typename RecordT>
std::vector<RecordT>
streamed(const sorter::StreamEngine<RecordT> &engine,
         const std::vector<RecordT> &input, io::RunStore<RecordT> &front,
         io::RunStore<RecordT> &back)
{
    io::MemorySource<RecordT> source{std::span<const RecordT>(input)};
    std::vector<RecordT> out;
    io::MemorySink<RecordT> sink(out);
    engine.sortStream(source, sink, front, back);
    return out;
}

/** StreamEngine in place and streamed on memory stores at every chunk
 *  of 1-40 records and at 1000, and on file stores at three of them,
 *  on 1 and 4 threads.  Counted failures, so a regression reports how
 *  many sorts it breaks. */
template <typename RecordT>
void
expectStreamEngineStable()
{
    constexpr std::size_t n = 300;
    unsigned failures = 0;
    unsigned sorts = 0;
    std::vector<std::uint64_t> chunks;
    for (std::uint64_t c = 1; c <= 40; ++c)
        chunks.push_back(c);
    chunks.push_back(1000);
    for (const GensortKeys keys : kTiedKeys) {
        const auto input = tiedInput<RecordT>(n, keys, 31);
        const auto want = stableSorted(input);
        for (const std::uint64_t chunk : chunks) {
            for (const unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keyName(keys) << " chunk=" << chunk
                             << " threads=" << threads);
                typename sorter::StreamEngine<RecordT>::Options opt;
                opt.chunkRecords = chunk;
                opt.batchRecords = 8;
                opt.bufferBudgetBytes = 64 * 8 * sizeof(RecordT);
                opt.threads = threads;
                const sorter::StreamEngine<RecordT> engine(opt);

                auto got = input;
                engine.sortInPlace(got);
                failures += !sameBytes(got, want);

                std::vector<RecordT> front(n), back(n);
                io::MemoryRunStore<RecordT> front_store(front);
                io::MemoryRunStore<RecordT> back_store(back);
                failures += !sameBytes(
                    streamed(engine, input, front_store, back_store), want);
                sorts += 2;

                if (chunk == 7 || chunk == 37 || chunk == 1000) {
                    io::FileRunStore<RecordT> front_file;
                    io::FileRunStore<RecordT> back_file;
                    failures += !sameBytes(
                        streamed(engine, input, front_file, back_file),
                        want);
                    ++sorts;
                }
            }
        }
    }
    EXPECT_EQ(failures, 0u) << "of " << sorts << " sorts";
}

TEST(StableSort, StreamEngineRecordsAtEveryChunk)
{
    expectStreamEngineStable<Record>();
}

TEST(StableSort, StreamEngineGensortAtEveryChunk)
{
    expectStreamEngineStable<GensortRecord>();
}

/** DramSorter::sort and SsdSorter::sort of @p n records. */
template <typename RecordT>
void
expectFacadesStable(std::size_t n)
{
    for (const GensortKeys keys : kTiedKeys) {
        const auto input = tiedInput<RecordT>(n, keys, 41);
        const auto want = stableSorted(input);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message() << "keys=" << keyName(keys)
                                              << " threads=" << threads);
            sorter::DramSorter dram;
            dram.setThreads(threads);
            auto got = input;
            dram.sort(got, sizeof(RecordT));
            EXPECT_TRUE(sameBytes(got, want)) << "DramSorter";

            sorter::SsdSorter ssd;
            ssd.setThreads(threads);
            got = input;
            ssd.sort(got, sizeof(RecordT));
            EXPECT_TRUE(sameBytes(got, want)) << "SsdSorter::sort";
        }
    }
}

TEST(StableSort, DramAndSsdSorterInMemory)
{
    expectFacadesStable<Record>(5'003);
    expectFacadesStable<GensortRecord>(5'003);
}

/** SsdSorter::sortStream through spill files at budgets whose chunks
 *  (a quarter of the budget) are not whole multiples of 16 records. */
template <typename RecordT>
void
expectSortStreamStable(std::initializer_list<std::uint64_t> budgets)
{
    constexpr std::size_t n = 4'001;
    for (const GensortKeys keys : kTiedKeys) {
        const auto input = tiedInput<RecordT>(n, keys, 53);
        const auto want = stableSorted(input);
        for (const std::uint64_t budget : budgets) {
            for (const unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keyName(keys) << " budget="
                             << budget << " threads=" << threads);
                sorter::SsdSorter ssd;
                ssd.setThreads(threads);
                io::MemorySource<RecordT> source{
                    std::span<const RecordT>(input)};
                std::vector<RecordT> got;
                io::MemorySink<RecordT> sink(got);
                sorter::SsdSorter::StreamOptions opts;
                opts.memoryBudgetBytes = budget;
                const auto report =
                    ssd.sortStream(source, sink, sizeof(RecordT), opts);
                EXPECT_GT(report.host.runs, 1u);
                EXPECT_TRUE(sameBytes(got, want));
            }
        }
    }
}

TEST(StableSort, SsdSorterSortStreamOnFiles)
{
    // Chunks of 781 and 1,250 16-byte records, 163 and 122 gensort
    // records.
    expectSortStreamStable<Record>({50'000, 80'000});
    expectSortStreamStable<GensortRecord>({65'536, 49'152});
}

/** Engine options for the file-store and resume cases: 1000-record
 *  chunks (not a multiple of 16) and 4-way merges. */
sorter::StreamEngine<Record>::Options
smallShape(unsigned threads)
{
    sorter::StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = 64 * 128 * sizeof(Record);
    opt.threads = threads;
    return opt;
}

TEST(StableSort, StreamEngineOnFileStores)
{
    const auto few = tiedInput<Record>(12'000, GensortKeys::FewDistinct, 61);
    const auto prefix = tiedInput<Record>(9'000, GensortKeys::PrefixTie, 62);
    for (const unsigned threads : {1u, 4u}) {
        const sorter::StreamEngine<Record> engine(smallShape(threads));
        for (const auto *input : {&few, &prefix}) {
            SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                              << " n=" << input->size());
            io::MemorySource<Record> source{std::span<const Record>(*input)};
            std::vector<Record> out;
            io::MemorySink<Record> sink(out);
            io::FileRunStore<Record> front, back;
            engine.sortStream(source, sink, front, back);
            EXPECT_TRUE(sameBytes(out, stableSorted(*input)));
        }
    }
}

/** A source that declares all of @p data but ends after @p cut
 *  records, so a checkpointed sort fails after journaling chunks. */
class CutSource : public io::RecordSource<Record>
{
  public:
    CutSource(const std::vector<Record> &data, std::uint64_t cut)
        : data_(&data), cut_(cut)
    {
    }

    std::uint64_t totalRecords() const override { return data_->size(); }

    std::uint64_t
    read(Record *dst, std::uint64_t max) override
    {
        const std::uint64_t n = std::min<std::uint64_t>(max, cut_ - pos_);
        std::copy_n(data_->data() + pos_, n, dst);
        pos_ += n;
        return n;
    }

  private:
    const std::vector<Record> *data_;
    std::uint64_t cut_;
    std::uint64_t pos_ = 0;
};

TEST(StableSort, ResumedCheckpointedSort)
{
    // The first attempt journals the chunks before record 2500 and
    // fails; the resume adopts them and sorts the rest.
    const auto data = tiedInput<Record>(5'000, GensortKeys::FewDistinct, 71);
    const auto want = stableSorted(data);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        const std::string dir = ::testing::TempDir() +
            "bonsai_stable_resume_job_" + std::to_string(threads);
        io::createDirectories(dir);
        const sorter::StreamEngine<Record> engine(smallShape(threads));
        sorter::DurableOptions durable;
        durable.dir = dir;
        {
            CutSource source(data, 2'500);
            std::vector<Record> out;
            io::MemorySink<Record> sink(out);
            EXPECT_THROW(engine.sortStream({.source = &source,
                                            .sink = &sink,
                                            .durable = durable}),
                         ContractViolation);
        }
        io::MemorySource<Record> source{std::span<const Record>(data)};
        std::vector<Record> out;
        io::MemorySink<Record> sink(out);
        durable.policy = sorter::ResumePolicy::ResumeStrict;
        const sorter::StreamStats stats = engine.sortStream(
            {.source = &source, .sink = &sink, .durable = durable});
        EXPECT_GE(stats.resumedChunks, 1u);
        EXPECT_TRUE(sameBytes(out, want));
        io::removeJobArtifacts(dir);
        ::rmdir(dir.c_str());
    }
}

} // namespace
} // namespace bonsai
