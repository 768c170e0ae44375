/**
 * @file
 * Differential tests of every in-memory gensort sort against the
 * oracle (oracle_sort.hpp): BehavioralSorter<GensortRecord>::sort,
 * through the vector overload and the span overload with one scratch
 * reused across sizes, StreamEngine::sortInPlace, whose phase 2 merges
 * the sorted chunks, and DramSorter::sort.  The key sets tie in bytes
 * 0-7 (PrefixTie, TailOnly), in the whole key (FewDistinct, AllEqual)
 * or rarely (Uniform); the counts cover 0-40 records, every presort
 * tail 0-15 past a multi-stage count, and the chunk of each
 * extsort workload; the fan-ins give odd and even stage counts, and
 * presort runs of 1-32 records meet the oracle at the same run.
 * Records carry their input index in their value, so a tie resolved
 * the other way changes the bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/gensort.hpp"
#include "common/record_buffer.hpp"
#include "common/thread_pool.hpp"
#include "gensort_keys.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "oracle_sort.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/external.hpp"
#include "sorter/sorters.hpp"

namespace bonsai
{
namespace
{

/** The record counts every case sorts. */
std::vector<std::size_t>
counts()
{
    std::vector<std::size_t> n;
    for (std::size_t i = 0; i <= 40; ++i)
        n.push_back(i);
    // 300 presort runs and every tail: several stages at every fan-in.
    for (std::size_t r = 0; r < 16; ++r)
        n.push_back(16 * 300 + r);
    // The chunks of extsort-multipass and extsort-1pass.
    n.push_back(10'480);
    n.push_back(167'760);
    return n;
}

bool
sameBytes(const std::vector<GensortRecord> &a,
          const std::vector<GensortRecord> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

const char *
keyName(GensortKeys keys)
{
    switch (keys) {
      case GensortKeys::Uniform:
        return "Uniform";
      case GensortKeys::PrefixTie:
        return "PrefixTie";
      case GensortKeys::FewDistinct:
        return "FewDistinct";
      case GensortKeys::AllEqual:
        return "AllEqual";
      case GensortKeys::TailOnly:
        return "TailOnly";
    }
    return "?";
}

class GensortSorterOracle
    : public ::testing::TestWithParam<std::tuple<GensortKeys, unsigned>>
{
};

TEST_P(GensortSorterOracle, EverySortGivesTheOracle)
{
    const auto [keys, threads] = GetParam();
    ThreadPool pool(threads);
    // One scratch for every size, grown on demand and never cleared.
    RecordBuffer<GensortRecord> scratch;
    sorter::DramSorter dram;
    dram.setThreads(threads);
    for (const std::size_t n : counts()) {
        const auto input = makeGensortKeys(n, keys, 1000 + n);
        const auto want = oracleSort(input);

        auto got = input;
        dram.sort(got, sizeof(GensortRecord));
        ASSERT_TRUE(sameBytes(got, want)) << "DramSorter n=" << n;

        for (const unsigned ell : {2u, 3u, 16u, 32u, 64u}) {
            SCOPED_TRACE(::testing::Message() << "n=" << n << " ell=" << ell);
            const sorter::BehavioralSorter<GensortRecord> sorter(ell, 16,
                                                                 threads);
            got = input;
            sorter.sort(got);
            ASSERT_TRUE(sameBytes(got, want)) << "sort(vector)";

            got = input;
            sorter.sort(std::span<GensortRecord>(got), pool, scratch);
            ASSERT_TRUE(sameBytes(got, want)) << "sort(span, scratch)";

            // About five chunks of whole presort runs, so phase 2
            // merges several runs.
            sorter::StreamEngine<GensortRecord>::Options opt;
            opt.phase1Ell = ell;
            opt.phase2Ell = ell;
            opt.chunkRecords = 16 * (n / 80 + 1);
            opt.threads = threads;
            got = input;
            sorter::StreamEngine<GensortRecord>(opt).sortInPlace(got);
            ASSERT_TRUE(sameBytes(got, want)) << "sortInPlace";
        }
    }
}

TEST(GensortSorterRuns, EveryPresortRunLengthGivesTheOracle)
{
    // Runs of one entry (no presort), of a network shorter or longer
    // than the register network's 16, on keys that tie.
    for (const std::uint64_t run : {1u, 2u, 8u, 32u}) {
        for (const std::size_t n : {1003u, 16u * 300 + 5}) {
            for (const GensortKeys keys :
                 {GensortKeys::PrefixTie, GensortKeys::FewDistinct,
                  GensortKeys::TailOnly}) {
                const auto input = makeGensortKeys(n, keys, run + n);
                const auto want = oracleSort(input, run);
                for (const unsigned threads : {1u, 4u}) {
                    auto got = input;
                    sorter::BehavioralSorter<GensortRecord>(16, run, threads)
                        .sort(got);
                    EXPECT_TRUE(sameBytes(got, want))
                        << "run=" << run << " n=" << n
                        << " keys=" << keyName(keys) << " threads=" << threads;
                }
            }
        }
    }
}

TEST(GensortShortChunks, ChunksShorterThanOneRunGiveTheOracle)
{
    // A chunk of fewer records than one presort run would cut the
    // presort's aligned blocks; the engine rounds it up to one run.
    // Counted failures, not ASSERTs, so a regression reports its size.
    unsigned failures = 0;
    for (std::uint64_t chunk = 1; chunk < 16; ++chunk) {
        for (const GensortKeys keys :
             {GensortKeys::FewDistinct, GensortKeys::AllEqual}) {
            for (const std::size_t n : {4u, 16u, 40u}) {
                for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                    SCOPED_TRACE(::testing::Message()
                                 << "chunk=" << chunk
                                 << " keys=" << keyName(keys) << " n=" << n
                                 << " seed=" << seed);
                    const auto input = makeGensortKeys(n, keys, seed);
                    const auto want = oracleSort(input);
                    sorter::StreamEngine<GensortRecord>::Options opt;
                    opt.chunkRecords = chunk;
                    opt.batchRecords = 8;
                    opt.bufferBudgetBytes = 1 << 20;
                    const sorter::StreamEngine<GensortRecord> engine(opt);

                    auto got = input;
                    engine.sortInPlace(got);
                    failures += !sameBytes(got, want);

                    std::vector<GensortRecord> front(n), back(n);
                    io::MemoryRunStore<GensortRecord> frontStore(front);
                    io::MemoryRunStore<GensortRecord> backStore(back);
                    io::MemorySource<GensortRecord> source(input);
                    got.clear();
                    io::MemorySink<GensortRecord> sink(got);
                    engine.sortStream(source, sink, frontStore, backStore);
                    failures += !sameBytes(got, want);
                }
            }
        }
    }
    EXPECT_EQ(failures, 0u) << "of 3600 sorts";
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndThreads, GensortSorterOracle,
    ::testing::Combine(::testing::Values(GensortKeys::Uniform,
                                         GensortKeys::PrefixTie,
                                         GensortKeys::FewDistinct,
                                         GensortKeys::AllEqual,
                                         GensortKeys::TailOnly),
                       ::testing::Values(1u, 4u)),
    [](const auto &param) {
        return std::string(keyName(std::get<0>(param.param))) + "_" +
            std::to_string(std::get<1>(param.param)) + "threads";
    });

} // namespace
} // namespace bonsai
