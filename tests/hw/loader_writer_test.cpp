/** @file Unit tests for the data loader and data writer. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "hw/data_loader.hpp"
#include "hw/data_writer.hpp"
#include "mem/timing.hpp"
#include "sim/engine.hpp"

namespace bonsai
{
namespace
{

mem::MemTimingConfig
fastMem()
{
    mem::MemTimingConfig cfg;
    cfg.numBanks = 4;
    cfg.bankBytesPerCycle = 32.0;
    cfg.interleaveBytes = 1024;
    cfg.requestLatency = 4;
    return cfg;
}

TEST(DataLoader, DeliversRunsWithTerminals)
{
    const auto source = makeRecords(100, Distribution::Sorted);
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> leaf0(600);
    sim::Fifo<Record> leaf1(600);

    std::vector<hw::DataLoader<Record>::LeafFeed> feeds(2);
    feeds[0].buffer = &leaf0;
    feeds[0].runs = {{0, 30}, {30, 20}};
    feeds[1].buffer = &leaf1;
    feeds[1].runs = {{50, 50}, {0, 0}}; // second run empty (padding)

    hw::DataLoader<Record> loader(
        "dl", std::span<const Record>(source), std::move(feeds), memory,
        /*batch_records=*/64, /*presort_chunk=*/0, 0, 4);

    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&loader);
    const auto result =
        engine.run([&] { return loader.finished(); }, 100000);
    ASSERT_TRUE(result.finished);

    // Leaf 0: 30 records, terminal, 20 records, terminal.
    ASSERT_EQ(leaf0.size(), 52u);
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(leaf0.pop().key, source[i].key);
    EXPECT_TRUE(leaf0.pop().isTerminal());
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(leaf0.pop().key, source[30 + i].key);
    EXPECT_TRUE(leaf0.pop().isTerminal());

    // Leaf 1: 50 records, terminal, then a bare terminal (empty run).
    ASSERT_EQ(leaf1.size(), 52u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(leaf1.pop().key, source[50 + i].key);
    EXPECT_TRUE(leaf1.pop().isTerminal());
    EXPECT_TRUE(leaf1.pop().isTerminal());
}

// Runs the loader's stage-one presort over n reversed records in
// 16-record chunks and checks each chunk arrives sorted and terminated.
void
expectPresortedChunks(std::uint64_t n)
{
    auto source = makeRecords(n, Distribution::Reverse);
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> leaf(600);
    std::vector<hw::DataLoader<Record>::LeafFeed> feeds(1);
    feeds[0].buffer = &leaf;
    feeds[0].runs = chunkRuns(n, 16);
    const std::vector<RunSpan> runs = feeds[0].runs;

    hw::DataLoader<Record> loader(
        "dl", std::span<const Record>(source), std::move(feeds), memory,
        64, /*presort_chunk=*/16, 0, 4);

    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&loader);
    ASSERT_TRUE(engine.run([&] { return loader.finished(); }, 100000)
                    .finished);

    ASSERT_EQ(leaf.size(), n + runs.size());
    for (const RunSpan &run : runs) {
        std::vector<Record> expect(source.begin() + run.offset,
                                   source.begin() + run.offset +
                                       run.length);
        std::sort(expect.begin(), expect.end());
        for (const Record &r : expect)
            EXPECT_EQ(leaf.pop(), r);
        EXPECT_TRUE(leaf.pop().isTerminal());
    }
}

TEST(DataLoader, PresortsChunksDuringFirstStage)
{
    // Four whole chunks for the bitonic network.
    expectPresortedChunks(64);
}

TEST(Presorter, HandlesNonPow2Tail)
{
    // One whole chunk and a 6-record tail, which is not a power of two
    // and is sorted by std::sort instead of the bitonic network.
    expectPresortedChunks(22);
}

TEST(Unpacker, MovesOneWordPerCycle)
{
    // At r = 4 a 512-bit bus word holds 16 records, and the loader
    // hands a leaf at most one word per cycle.
    constexpr std::uint64_t kWord =
        hw::DataLoader<Record>::kBusBytesPerCycle / 4;
    static_assert(kWord == 16);
    const auto source = makeRecords(64, Distribution::UniformRandom);
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> leaf(600);
    std::vector<hw::DataLoader<Record>::LeafFeed> feeds(1);
    feeds[0].buffer = &leaf;
    feeds[0].runs = {{0, 64}};

    hw::DataLoader<Record> loader(
        "dl", std::span<const Record>(source), std::move(feeds), memory,
        /*batch_records=*/64, /*presort_chunk=*/0, 0, 4);

    std::size_t seen = 0;
    std::size_t most = 0;
    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&loader);
    ASSERT_TRUE(engine
                    .run(
                        [&] {
                            most = std::max(most, leaf.size() - seen);
                            seen = leaf.size();
                            return loader.finished();
                        },
                        100000)
                    .finished);
    EXPECT_EQ(most, kWord);

    ASSERT_EQ(leaf.size(), 65u);
    for (const Record &r : source)
        EXPECT_EQ(leaf.pop(), r);
    EXPECT_TRUE(leaf.pop().isTerminal());
}

TEST(DataLoader, RespectsBufferBackPressure)
{
    const auto source = makeRecords(512, Distribution::Sorted);
    mem::MemoryTiming memory("m", fastMem());
    // Capacity buffer: 2 batches of 32 + headroom per canIssue().
    sim::Fifo<Record> leaf(2 * (2 * 32 + 2));
    std::vector<hw::DataLoader<Record>::LeafFeed> feeds(1);
    feeds[0].buffer = &leaf;
    feeds[0].runs = {{0, 512}};
    hw::DataLoader<Record> loader(
        "dl", std::span<const Record>(source), std::move(feeds), memory,
        32, 0, 0, 4);

    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&loader);
    std::vector<Record> drained;
    const auto result = engine.run(
        [&] {
            // Drain slowly: 8 records per cycle.
            for (int i = 0; i < 8 && !leaf.empty(); ++i)
                drained.push_back(leaf.pop());
            return drained.size() >= 513;
        },
        100000);
    ASSERT_TRUE(result.finished);
    EXPECT_TRUE(drained.back().isTerminal());
    drained.pop_back();
    for (std::size_t i = 0; i < drained.size(); ++i)
        EXPECT_EQ(drained[i].key, source[i].key);
    EXPECT_EQ(loader.batchesIssued(), 16u);
}

TEST(DataWriter, WritesRunsAndRecordsBoundaries)
{
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> in(256);
    std::vector<Record> dest(100);
    hw::DataWriter<Record> writer("dw", in,
                                  std::span<Record>(dest), memory,
                                  /*width=*/8, /*expected_records=*/60,
                                  /*expected_runs=*/3, 32, 0, 4);

    // Three runs of 20, each with a terminal.
    for (int run = 0; run < 3; ++run) {
        for (std::uint64_t i = 0; i < 20; ++i)
            in.push(Record{run * 100 + i + 1, 0});
        in.push(Record::terminal());
    }

    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&writer);
    const auto result =
        engine.run([&] { return writer.finished(); }, 100000);
    ASSERT_TRUE(result.finished);

    const auto &runs = writer.runs();
    ASSERT_EQ(runs.size(), 3u);
    for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(runs[r].offset, 20u * r);
        EXPECT_EQ(runs[r].length, 20u);
    }
    EXPECT_EQ(writer.recordsWritten(), 60u);
    for (int r = 0; r < 3; ++r) {
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(dest[20 * r + i].key,
                      static_cast<std::uint64_t>(r * 100 + i + 1));
    }
}

TEST(DataWriter, HandlesEmptyRuns)
{
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> in(64);
    std::vector<Record> dest(16);
    hw::DataWriter<Record> writer("dw", in, std::span<Record>(dest),
                                  memory, 4, 8, 3, 16, 0, 4);
    // Run of 8, empty run, empty run.
    for (std::uint64_t i = 1; i <= 8; ++i)
        in.push(Record{i, 0});
    in.push(Record::terminal());
    in.push(Record::terminal());
    in.push(Record::terminal());

    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&writer);
    ASSERT_TRUE(
        engine.run([&] { return writer.finished(); }, 10000).finished);
    const auto &runs = writer.runs();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].length, 8u);
    EXPECT_EQ(runs[1].length, 0u);
    EXPECT_EQ(runs[2].length, 0u);
}

TEST(LoaderWriterRoundTrip, CopiesThroughMemoryModels)
{
    // loader -> FIFO -> writer moves a buffer intact, with the memory
    // model accounting both directions.
    const auto source = makeRecords(300, Distribution::UniformRandom);
    mem::MemoryTiming memory("m", fastMem());
    sim::Fifo<Record> pipe(2 * (2 * 64 + 2));
    std::vector<hw::DataLoader<Record>::LeafFeed> feeds(1);
    feeds[0].buffer = &pipe;
    feeds[0].runs = {{0, 300}};
    hw::DataLoader<Record> loader("dl",
                                  std::span<const Record>(source),
                                  std::move(feeds), memory, 64, 0, 0, 4);
    std::vector<Record> dest(300);
    hw::DataWriter<Record> writer("dw", pipe, std::span<Record>(dest),
                                  memory, 8, 300, 1, 64,
                                  300 * 4, 4);
    sim::SimEngine engine;
    engine.add(&memory);
    engine.add(&writer);
    engine.add(&loader);
    ASSERT_TRUE(
        engine.run([&] { return writer.finished(); }, 100000).finished);
    for (std::size_t i = 0; i < source.size(); ++i)
        EXPECT_EQ(dest[i], source[i]);
    EXPECT_EQ(memory.bytesRead(), 1200u);
    EXPECT_EQ(memory.bytesWritten(), 1200u);
}

} // namespace
} // namespace bonsai
