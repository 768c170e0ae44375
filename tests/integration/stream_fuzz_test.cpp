/** @file
 * Seeded differential sweep over the out-of-core engine's
 * configuration space: record count, key distribution, chunk size,
 * batch size, buffer budget, phase-2 fan-in, thread count, store
 * kind, and caller (a plain or a durable SortRequest to
 * StreamEngine::sortStream).
 *
 * Records carry their input index as payload, so equal keys stay
 * distinguishable and the emitted order of ties is part of the
 * compared bytes.  Every case must emit the oracle's bytes
 * (oracle_sort.hpp: std::stable_sort of the input), keep the
 * buffer pool's peak within the budget, and return every pool buffer.
 *
 * The gensort slice sorts 100-byte records, which the in-memory sort
 * moves as key entries and the streamed merges as records: both must
 * emit the oracle's bytes.
 *
 * The long seeded sweep (DISABLED_LongSeededSweep) runs the same grid
 * over many seeds outside tier-1; CI runs it with
 * --gtest_also_run_disabled_tests, and each case names its seed.
 *
 * The fault seeds put a hard EIO on one spill store from a seeded
 * read or write attempt on: the sort must fail with exactly one
 * std::runtime_error and return every pool buffer, or — when the
 * attempt lies past the sort's last I/O on that store — emit the
 * oracle's bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "gensort_keys.hpp"
#include "io/byte_io.hpp"
#include "io/fault_injection.hpp"
#include "io/manifest.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "oracle_sort.hpp"
#include "sorter/external.hpp"
#include "sorter/merge_plan.hpp"

namespace bonsai::sorter
{
namespace
{

enum class Store
{
    Memory,
    File
};

enum class Path
{
    Plain,
    Durable
};

/** Thread counts the cases draw from. */
constexpr unsigned kThreads[] = {1, 2, 4};

/** A budgetBuffers value: the pool booked to the last buffer by the
 *  most threads, laneBuffers(ell) each — the shape SsdSorter's
 *  default batch builds. */
constexpr std::uint64_t kFullyBooked = 0;

/** Every knob of one sort. */
struct Case
{
    std::size_t n;
    Distribution dist;
    std::uint64_t batch;
    std::uint64_t budgetBuffers; ///< or kFullyBooked
    std::uint64_t chunkDivisor; ///< chunk = n / chunkDivisor
    unsigned phase2Ell;
    unsigned phase1Ell;
    unsigned threads = 1;
    Store store = Store::Memory;
    Path path = Path::Plain;
};

std::uint64_t
poolBuffers(const Case &o)
{
    if (o.budgetBuffers != kFullyBooked)
        return o.budgetBuffers;
    return laneBuffers(o.phase2Ell) * std::ranges::max(kThreads);
}

std::string
describe(const Case &o)
{
    return "n=" + std::to_string(o.n) + " dist=" +
           std::to_string(static_cast<int>(o.dist)) + " batch=" +
           std::to_string(o.batch) + " budget_buffers=" +
           std::to_string(poolBuffers(o)) + " chunk_div=" +
           std::to_string(o.chunkDivisor) + " ell=" +
           std::to_string(o.phase2Ell) + " phase1_ell=" +
           std::to_string(o.phase1Ell) + " threads=" +
           std::to_string(o.threads) + " store=" +
           std::to_string(static_cast<int>(o.store)) + " path=" +
           std::to_string(static_cast<int>(o.path));
}

std::uint64_t
budgetBytes(const Case &o)
{
    return poolBuffers(o) * o.batch * sizeof(Record);
}

StreamEngine<Record>::Options
engineOptions(const Case &o)
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = o.phase1Ell;
    opt.phase2Ell = o.phase2Ell;
    opt.presortRun = 16;
    // Several runs at the large count, so phase 2 needs several
    // passes; two 1-record runs at n = 2.
    opt.chunkRecords = std::max<std::uint64_t>(1, o.n / o.chunkDivisor);
    opt.batchRecords = o.batch;
    opt.bufferBudgetBytes = budgetBytes(o);
    opt.threads = o.threads;
    return opt;
}

/** A front/back run-store pair of one kind, sized for @p n records. */
template <typename RecordT = Record>
struct StorePair
{
    StorePair(Store kind, std::size_t n)
    {
        if (kind == Store::File) {
            front = std::make_unique<io::FileRunStore<RecordT>>();
            back = std::make_unique<io::FileRunStore<RecordT>>();
            return;
        }
        frontBacking.resize(n);
        backBacking.resize(n);
        front = std::make_unique<io::MemoryRunStore<RecordT>>(
            std::span<RecordT>(frontBacking));
        back = std::make_unique<io::MemoryRunStore<RecordT>>(
            std::span<RecordT>(backBacking));
    }

    std::vector<RecordT> frontBacking;
    std::vector<RecordT> backBacking;
    std::unique_ptr<io::RunStore<RecordT>> front;
    std::unique_ptr<io::RunStore<RecordT>> back;
};

/** A fresh job directory for durable case @p case_id. */
std::string
makeJobDir(std::uint64_t case_id)
{
    const std::string dir =
        ::testing::TempDir() + "bonsai_fuzz_" + std::to_string(case_id);
    io::createDirectories(dir);
    return dir;
}

void
removeJobDir(const std::string &dir)
{
    io::removeJobArtifacts(dir);
    ::rmdir(dir.c_str());
}

/** Run one case: its output must be @p expected, the oracle's. */
void
runCase(const Case &o, const std::vector<Record> &input,
        const std::vector<Record> &expected, std::uint64_t case_id)
{
    const std::string what = describe(o);
    const StreamEngine<Record> engine(engineOptions(o));
    io::MemorySource<Record> source{std::span<const Record>(input)};
    std::vector<Record> out;
    out.reserve(input.size());
    io::MemorySink<Record> sink(out);
    StreamStats stats;

    if (o.path == Path::Plain) {
        StorePair<> pair(o.store, input.size());
        stats = engine.sortStream(source, sink, *pair.front, *pair.back);
    } else {
        SortRequest<Record> req{.source = &source, .sink = &sink};
        req.durable.dir = makeJobDir(case_id);
        stats = engine.sortStream(req);
        removeJobDir(req.durable.dir);
    }

    EXPECT_EQ(engine.lastPoolOutstanding(), 0u) << what;
    EXPECT_LE(stats.bufferPoolPeakBytes, budgetBytes(o)) << what;
    EXPECT_TRUE(out == expected) << what << ": not the oracle's bytes";
}

/** @p o as given (one thread, memory stores, plain sortStream), then
 *  twice on each path with a seeded thread count and store; the
 *  input's keys come from @p data_seed. */
void
sweep(const Case &o, SplitMix64 &rng, std::uint64_t &case_id,
      std::uint64_t data_seed = 7)
{
    const std::vector<Record> input = makeRecords(o.n, o.dist, data_seed);
    const std::vector<Record> expected = oracleSort(input);
    runCase(o, input, expected, case_id++);
    for (const Path path :
         {Path::Plain, Path::Durable, Path::Plain, Path::Durable}) {
        Case c = o;
        c.threads = kThreads[rng.nextBounded(3)];
        c.store = rng.nextBounded(2) ? Store::File : Store::Memory;
        c.path = path;
        runCase(c, input, expected, case_id++);
    }
}

constexpr Distribution kDists[] = {Distribution::UniformRandom,
                                   Distribution::FewDistinct,
                                   Distribution::AllEqual};
constexpr std::uint64_t kBatches[] = {1, 7, 64};
/** The 6-buffer minimum (ell = 2), a tight budget that caps the
 *  fan-in at 3, a roomy one that admits fan-in 4 on 4 lanes, and a
 *  pool that holds the requested fan-in on 4 lanes with no buffer to
 *  spare. */
constexpr std::uint64_t kBudgets[] = {6, 9, 64, kFullyBooked};
/** About 30, 7 and 15 runs at the multi-pass count. */
constexpr std::uint64_t kChunkDivisors[] = {30, 7, 15};
/** Requested phase-2 fan-in; the budget caps it (16 survives only
 *  the roomy budget). */
constexpr unsigned kElls[] = {2, 4, 16};
/** Phase-1 fan-in: at 128 the in-memory merge tree is wide enough
 *  that its node blocks matter, and the three give chunks of one to
 *  five merge stages, odd and even counts. */
constexpr unsigned kPhase1Ells[] = {4, 16, 128};

TEST(StreamEngineFuzz, TinyInputsAgreeAcrossPathsAndStores)
{
    SplitMix64 rng(0x5EED0);
    std::uint64_t case_id = 0;
    for (const std::size_t n : {0, 1, 2})
        for (const Distribution dist : kDists)
            for (const std::uint64_t batch : kBatches)
                for (const std::uint64_t budget : kBudgets)
                    sweep({n, dist, batch, budget, 30, 4, 4}, rng,
                          case_id);
}

/** One gensort case: @p input sorted in place and streamed on
 *  @p store stores must both give the oracle's bytes. */
void
expectGensortOracle(const StreamEngine<GensortRecord> &engine,
                    const std::vector<GensortRecord> &input, Store store,
                    const std::string &what)
{
    const std::uint64_t want = gensortDigest(oracleSort(input));
    auto in_place = input;
    engine.sortInPlace(in_place);
    ASSERT_EQ(gensortDigest(in_place), want) << what << " (in place)";

    io::MemorySource<GensortRecord> source{
        std::span<const GensortRecord>(input)};
    std::vector<GensortRecord> streamed;
    io::MemorySink<GensortRecord> sink(streamed);
    StorePair<GensortRecord> pair(store, input.size());
    engine.sortStream(source, sink, *pair.front, *pair.back);
    EXPECT_EQ(engine.lastPoolOutstanding(), 0u) << what;
    ASSERT_EQ(streamed.size(), input.size()) << what;
    ASSERT_EQ(gensortDigest(streamed), want) << what << " (streamed)";
}

/**
 * The gensort slice: a streamed StreamEngine<GensortRecord> sort,
 * whose phase-2 trees hold records, and sortInPlace, whose in-memory
 * trees hold key entries, must both emit the oracle's bytes on
 * uniform keys and on keys that tie in bytes 0-7, for every batch and
 * fan-in on seeded thread counts, phase-1 fan-ins and stores.
 */
TEST(StreamEngineFuzz, GensortStreamedMatchesSortInPlace)
{
    SplitMix64 rng(0x5EED6);
    for (const std::size_t n : {0, 1, 2, 1500})
        for (const GensortKeys keys :
             {GensortKeys::Uniform, GensortKeys::PrefixTie})
            for (const std::uint64_t batch : kBatches)
                for (const unsigned ell : kElls) {
                    StreamEngine<GensortRecord>::Options opt;
                    opt.phase1Ell = kPhase1Ells[rng.nextBounded(3)];
                    opt.phase2Ell = ell;
                    opt.chunkRecords = std::max<std::size_t>(1, n / 9);
                    opt.batchRecords = batch;
                    opt.threads = kThreads[rng.nextBounded(3)];
                    opt.bufferBudgetBytes = laneBuffers(ell) *
                                            opt.threads * batch *
                                            sizeof(GensortRecord);
                    const Store store =
                        rng.nextBounded(2) ? Store::File : Store::Memory;
                    expectGensortOracle(
                        StreamEngine<GensortRecord>(opt),
                        makeGensortKeys(n, keys, 7), store,
                        "n=" + std::to_string(n) + " keys=" +
                            std::to_string(static_cast<int>(keys)) +
                            " batch=" + std::to_string(batch) +
                            " ell=" + std::to_string(ell) +
                            " phase1_ell=" +
                            std::to_string(opt.phase1Ell) +
                            " threads=" + std::to_string(opt.threads) +
                            " store=" +
                            std::to_string(static_cast<int>(store)));
                }
}

/**
 * Cell (d, b) of two orthogonal Latin squares over (distribution,
 * batch): every distribution and every batch size meets every budget
 * but the fully booked one and every fan-in once, and every such
 * budget meets every fan-in once, at the count that forces several
 * merge passes.  The chunk size rides on the distribution and the
 * phase-1 fan-in on the batch, so each meets every value of the
 * remaining factors.
 */
Case
multiPassSet(std::size_t d, std::size_t b)
{
    return {30'000,
            kDists[d],
            kBatches[b],
            kBudgets[(d + b) % 3],
            kChunkDivisors[d],
            kElls[(d + 2 * b) % 3],
            kPhase1Ells[b]};
}

TEST(StreamEngineFuzz, MultiPassInputsAgreeAcrossPathsAndStores)
{
    SplitMix64 rng(0x5EED1);
    std::uint64_t case_id = 1000;
    for (std::size_t d = 0; d < 3; ++d)
        for (std::size_t b = 0; b < 3; ++b)
            sweep(multiPassSet(d, b), rng, case_id);
    // The fully booked pool on the transversal b = 2d mod 3, whose
    // cells differ in distribution, batch and fan-in alike.
    for (std::size_t d = 0; d < 3; ++d) {
        Case o = multiPassSet(d, 2 * d % 3);
        o.budgetBuffers = kFullyBooked;
        sweep(o, rng, case_id);
    }
}

/** Seeds of the long sweep. */
constexpr std::uint64_t kLongSweepSeeds = 16;

/**
 * The long seeded sweep, outside tier-1: for every seed, the
 * multi-pass grid on that seed's keys, thread counts and stores; then
 * the gensort slice on every key set, TailOnly included, with the
 * input's length taking every remainder mod 16, on 1 and 4 threads
 * and seeded chunks of any length, fan-ins, batches and stores.
 */
TEST(StreamEngineFuzz, DISABLED_LongSeededSweep)
{
    for (std::uint64_t seed = 1; seed <= kLongSweepSeeds; ++seed) {
        SCOPED_TRACE(::testing::Message() << "sweep seed " << seed);
        SplitMix64 rng(0x5EED5EED + seed);
        std::uint64_t case_id = 100'000 * seed;
        for (std::size_t d = 0; d < 3; ++d)
            for (std::size_t b = 0; b < 3; ++b)
                sweep(multiPassSet(d, b), rng, case_id, seed);
        for (std::size_t d = 0; d < 3; ++d) {
            Case o = multiPassSet(d, 2 * d % 3);
            o.budgetBuffers = kFullyBooked;
            sweep(o, rng, case_id, seed);
        }
        for (const GensortKeys keys :
             {GensortKeys::Uniform, GensortKeys::PrefixTie,
              GensortKeys::FewDistinct, GensortKeys::AllEqual,
              GensortKeys::TailOnly}) {
            for (std::size_t tail = 0; tail < 16; ++tail) {
                for (const unsigned threads : {1u, 4u}) {
                    const std::size_t n = 16 * (20 + rng.nextBounded(120)) + tail;
                    StreamEngine<GensortRecord>::Options opt;
                    opt.phase1Ell = kPhase1Ells[rng.nextBounded(3)];
                    opt.phase2Ell = kElls[rng.nextBounded(3)];
                    opt.chunkRecords = 1 + rng.nextBounded(n / 4 + 16);
                    opt.batchRecords = kBatches[rng.nextBounded(3)];
                    opt.threads = threads;
                    opt.bufferBudgetBytes = laneBuffers(opt.phase2Ell) *
                                            threads * opt.batchRecords *
                                            sizeof(GensortRecord);
                    const Store store =
                        rng.nextBounded(2) ? Store::File : Store::Memory;
                    expectGensortOracle(
                        StreamEngine<GensortRecord>(opt),
                        makeGensortKeys(n, keys, seed * 1000 + tail), store,
                        "n=" + std::to_string(n) + " keys=" +
                            std::to_string(static_cast<int>(keys)) +
                            " chunk=" + std::to_string(opt.chunkRecords) +
                            " batch=" + std::to_string(opt.batchRecords) +
                            " ell=" + std::to_string(opt.phase2Ell) +
                            " phase1_ell=" + std::to_string(opt.phase1Ell) +
                            " threads=" + std::to_string(threads) +
                            " store=" +
                            std::to_string(static_cast<int>(store)));
                }
            }
        }
    }
}

/** One seeded fault: a hard EIO on the front or back spill store
 *  from a read or write attempt on. */
struct SeededFault
{
    bool back;
    bool onRead;
    /** The failing attempt as a fraction of the attempts a clean sort
     *  issues; past 1 it lies beyond the sort's last I/O. */
    double at;
};

/** The outcome of one sort on file stores. */
struct FaultRun
{
    std::vector<Record> out;
    bool threw = false;
    /** The sort's leftover pool buffers. */
    std::uint64_t poolOutstanding = 0;
};

/**
 * Sort @p input on file stores whose front (or back) store carries
 * @p injector, through a plain sortStream.  Any exception other than
 * one std::runtime_error fails the test.
 */
FaultRun
runOnFaultyStore(const Case &o, bool back,
                 std::shared_ptr<io::FaultInjector> injector,
                 const std::vector<Record> &input)
{
    io::RetryPolicy fast;
    fast.backoffBaseMicros = 1;
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> rear;
    io::FileRunStore<Record> &faulty = back ? rear : front;
    faulty.setFaultPolicy(std::move(injector));
    faulty.setRetryPolicy(fast);
    io::MemorySource<Record> source{std::span<const Record>(input)};
    FaultRun run;
    io::MemorySink<Record> sink(run.out);
    const StreamEngine<Record> engine(engineOptions(o));
    try {
        engine.sortStream(source, sink, front, rear);
    } catch (const std::runtime_error &) {
        run.threw = true;
    }
    run.poolOutstanding = engine.lastPoolOutstanding();
    return run;
}

TEST(StreamEngineFuzz, SeededHardFaultsFailOnceOrMatchTheReference)
{
    // A clean run counts the faulty store's attempts; the seed then
    // fails everything from a chosen attempt on (up to a quarter past
    // the last, so some seeds never fire).  The sort must throw one
    // std::runtime_error exactly when the attempt exists, and emit
    // the oracle's bytes otherwise, and return every pool buffer
    // either way.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
        SplitMix64 rng(0xFA017 + seed);
        Case o = multiPassSet(rng.nextBounded(3), rng.nextBounded(3));
        o.store = Store::File;
        const SeededFault fault{rng.nextBounded(2) == 1,
                                rng.nextBounded(2) == 1,
                                static_cast<double>(rng.nextBounded(1250)) /
                                    1000.0};
        const std::vector<Record> input = makeRecords(o.n, o.dist, 7);
        const std::vector<Record> expected = oracleSort(input);
        for (const unsigned threads : {1u, 2u, 4u}) {
            o.threads = threads;
            const std::string what = describe(o) +
                (fault.back ? " back" : " front") +
                (fault.onRead ? " read" : " write") +
                " at=" + std::to_string(fault.at);
            auto counter =
                std::make_shared<io::FaultInjector>(io::FaultPlan{});
            const FaultRun clean =
                runOnFaultyStore(o, fault.back, counter, input);
            ASSERT_FALSE(clean.threw) << what;
            ASSERT_TRUE(clean.out == expected) << what;
            const std::uint64_t attempts = fault.onRead
                                               ? counter->readAttempts()
                                               : counter->writeAttempts();
            const auto at = static_cast<unsigned>(
                1 + fault.at * static_cast<double>(attempts));

            io::FaultPlan plan;
            (fault.onRead ? plan.eioOnReadAttempt
                          : plan.eioOnWriteAttempt) = at;
            plan.eioFailures = 1'000'000; // never heals
            auto injector = std::make_shared<io::FaultInjector>(plan);
            const FaultRun run =
                runOnFaultyStore(o, fault.back, injector, input);
            if (at <= attempts) {
                EXPECT_TRUE(run.threw)
                    << what << ": attempt " << at << " of " << attempts;
                EXPECT_GT(injector->injectedEio(), 0u) << what;
            } else {
                EXPECT_FALSE(run.threw) << what;
                EXPECT_EQ(injector->injectedEio(), 0u) << what;
                EXPECT_TRUE(run.out == expected) << what;
            }
            EXPECT_EQ(run.poolOutstanding, 0u) << what;
        }
    }
}

} // namespace
} // namespace bonsai::sorter
