/** @file Unit tests for memory- and file-backed run stores, including
 *  a FileRunStore over a named spill file, as crash-consistent sorts
 *  use it: reopen-for-resume must keep every byte, fresh open must
 *  truncate, and a full device must name the spill file and the
 *  spilling chunk in its error. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/record.hpp"
#include "common/run.hpp"
#include "io/fault_injection.hpp"
#include "io/run_store.hpp"

namespace bonsai::io
{
namespace
{

/** Temp file path scoped to one test, removed on destruction. */
class TempSpill
{
  public:
    explicit TempSpill(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempSpill() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

template <typename StoreT>
void
roundTrip(StoreT &store)
{
    std::vector<Record> recs(256);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};

    store.writeAt(0, recs.data(), 100);
    store.writeAt(100, recs.data() + 100, 156);

    std::vector<Record> got(recs.size());
    store.readAt(128, got.data() + 128, 128); // out of order reads
    store.readAt(0, got.data(), 128);
    EXPECT_EQ(got, recs);

    EXPECT_EQ(store.bytesWritten(), 256 * sizeof(Record));
    EXPECT_EQ(store.bytesRead(), 256 * sizeof(Record));
}

TEST(MemoryRunStore, RoundTripsAndCountsTraffic)
{
    std::vector<Record> backing(256);
    MemoryRunStore<Record> store(
        std::span<Record>(backing.data(), backing.size()));
    roundTrip(store);
    EXPECT_EQ(store.memorySpan().data(), backing.data());
}

TEST(FileRunStore, RoundTripsAndCountsTraffic)
{
    FileRunStore<Record> store; // anonymous spill in $TMPDIR
    roundTrip(store);
    EXPECT_TRUE(store.memorySpan().empty());
}

TEST(PersistentRunStore, RoundTripsAndCountsTraffic)
{
    TempSpill spill("persistent_roundtrip.spill");
    FileRunStore<Record> store(ByteFile::create(spill.str()));
    roundTrip(store);
    EXPECT_TRUE(store.memorySpan().empty());
    EXPECT_EQ(store.path(), spill.str());
    EXPECT_EQ(store.sizeBytes(), 256 * sizeof(Record));
}

TEST(PersistentRunStore, ResumeReopenKeepsBytesFreshOpenTruncates)
{
    TempSpill spill("persistent_reopen.spill");
    std::vector<Record> recs(200);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};
    {
        FileRunStore<Record> store(ByteFile::create(spill.str()));
        store.writeAt(0, recs.data(), recs.size());
        store.flush("test flush");
    } // close: the named file outlives the store object

    {
        FileRunStore<Record> store(
            ByteFile::openReadWrite(spill.str()));
        EXPECT_EQ(store.sizeBytes(), recs.size() * sizeof(Record));
        std::vector<Record> got(recs.size());
        store.readAt(0, got.data(), got.size());
        EXPECT_EQ(got, recs);
    }

    // A fresh (non-resume) open is a new attempt: the previous
    // attempt's bytes must not bleed through.
    FileRunStore<Record> store(ByteFile::create(spill.str()));
    EXPECT_EQ(store.sizeBytes(), 0u);
}

TEST(PersistentRunStore, FullDeviceNamesTheSpillFileAndTheChunk)
{
    // The ENOSPC contract from the I/O hardening work: a full job
    // directory surfaces the spill path, the failing offset and the
    // caller's chunk context — named spills must not regress it.
    TempSpill spill("persistent_enospc.spill");
    FileRunStore<Record> store(ByteFile::create(spill.str()));
    FaultPlan plan;
    plan.enospcAtWriteByte = 64 * sizeof(Record);
    store.setFaultPolicy(std::make_shared<FaultInjector>(plan));

    std::vector<Record> recs(128);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};
    std::string msg;
    try {
        store.writeAt(0, recs.data(), recs.size(),
                      "phase-1 spill of chunk 0");
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    ASSERT_FALSE(msg.empty()) << "full device did not surface";
    EXPECT_NE(msg.find(spill.str()), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase-1 spill of chunk 0"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
}

TEST(RunStore, RunMetadataLivesOnTheStore)
{
    FileRunStore<Record> store;
    EXPECT_TRUE(store.runs().empty());
    store.setRuns({RunSpan{0, 10}, RunSpan{10, 20}});
    ASSERT_EQ(store.runs().size(), 2u);
    EXPECT_EQ(store.runs()[1].offset, 10u);
    EXPECT_EQ(store.runs()[1].length, 20u);
}

TEST(RunStoreSink, WritesSequentiallyFromItsBaseOffset)
{
    std::vector<Record> backing(16);
    MemoryRunStore<Record> store(
        std::span<Record>(backing.data(), backing.size()));
    RunStoreSink<Record> sink(store, 4);

    std::vector<Record> recs(8);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};
    sink.write(recs.data(), 3);
    sink.write(recs.data() + 3, 5);
    sink.finish();

    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(backing[4 + i], recs[i]) << "record " << i;
}

} // namespace
} // namespace bonsai::io
