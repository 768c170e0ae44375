/**
 * @file
 * End-to-end and per-layer benchmark of the out-of-core sort.
 *
 * One process, one client, closed loop: each workload sorts its seeded
 * input through the public sort call a user makes, one sort at a time,
 * for a fixed measuring time.  Every output is validated (sorted, same
 * record count and checksum as the input, same FNV-1a digest on every
 * repetition).  The timer covers only the sort call.
 *
 * The process runs on one CPU with one engine thread.  After each sort
 * a reference sorts the same records in memory with std::sort on that
 * CPU (an extsort reference also reads the input file and writes and
 * syncs the output, as the sort does), and the headline metric is the
 * ratio of the two times: a shared host's CPUs and disk change speed by
 * up to 2x for minutes at a time, and the ratio of two sorts measured
 * back to back on one CPU cancels most of that.
 *
 * With --trace 1 (the default) a traced pass follows: each workload is
 * sorted once more through the timing decorators of trace_io.hpp, and
 * the phase-1 kernel and the planner are timed on their own, which
 * splits the end-to-end time by layer.  See README.md for the metric
 * definitions and why each workload exists.
 *
 *   bonsai_bench [--seed S] [--dir D] [--out FILE] [--workload NAME]
 *                [--seconds T] [--trace 0|1] [--trace-dir D] [--smoke]
 *
 * Prints one "workload metric value unit" line per metric, writes the
 * same numbers to FILE (default BENCH_e2e.json) and exits 1 if any
 * output failed validation.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/platforms.hpp"
#include "core/ssd_planner.hpp"
#include "io/byte_io.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "model/perf_model.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/external.hpp"
#include "sorter/sorters.hpp"
#include "trace_io.hpp"

namespace
{

using namespace bonsai;
using bench::SpanKind;
using bench::TraceLog;
using Clock = std::chrono::steady_clock;

enum class Kind { ExtSort, InMem };

/**
 * The workloads.  Extsort inputs are 100 MB of gensort records; the
 * budgets keep the pass structure the workload is meant to exercise
 * (64 MiB: 6 chunks, final pass only; 4 MiB: 96 chunks, one non-final
 * pass of merge groups, then the final pass).
 */
struct Workload
{
    const char *name;
    Kind kind;
    std::uint64_t records;
    std::uint64_t budgetMiB; ///< extsort memory budget
};

constexpr Workload kWorkloads[] = {
    {"extsort-1pass", Kind::ExtSort, 1'000'000, 64},
    {"extsort-multipass", Kind::ExtSort, 1'000'000, 4},
    {"inmem-16b", Kind::InMem, 4'000'000, 0},
};

/** Engine threads.  On a host shared with other tenants, every thread
 *  past the first made run-to-run spread worse (a parallel sort waits
 *  for its slowest CPU), so the benchmark measures one thread on one
 *  CPU; bench_external_sort sweeps thread counts. */
constexpr unsigned kThreads = 1;
/** --smoke divides every input and budget by this (~1 MB each). */
constexpr std::uint64_t kSmokeDivisor = 100;
/** Set-ups per workload; setup_s is their median. */
constexpr int kSetupReps = 3;
constexpr int kPlanReps = 5;
/** Merge passes reported as sorter.pass_s.<i> even when fewer ran. */
constexpr unsigned kReportedPasses = 2;
constexpr std::uint64_t kIoBatchRecords = 1 << 14;

struct Config
{
    std::uint64_t seed = 1;
    std::string dir;
    std::string out = "BENCH_e2e.json";
    std::string only;
    std::string traceDir;
    double seconds = 10.0;
    bool trace = true;
    bool smoke = false;
    unsigned nproc = 1;
    int cpu = -1; ///< the CPU the process is pinned to
};

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** User + system CPU seconds of the whole process. */
double
processCpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(u.ru_utime) + secs(u.ru_stime);
}

/** Reset VmHWM to the current RSS (no-op where /proc forbids it). */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
readPeakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
}

/** syncfs() on the filesystem holding @p dir: commits its journal and
 *  the blocks freed by deleted spills and outputs, work that would
 *  otherwise land inside the next timed sort's first fdatasync. */
void
syncFilesystem(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        throw std::runtime_error("cannot open " + dir);
    const int rc = ::syncfs(fd);
    ::close(fd);
    if (rc != 0)
        throw std::runtime_error("syncfs failed on " + dir);
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

/** Pin the process, and every thread it starts later, to the CPU it
 *  runs on now, so each sort and its std::sort reference run on the
 *  same CPU; returns that CPU. */
int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        throw std::runtime_error("sched_getcpu failed");
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
    return cpu;
}

std::string
filesystemOf(const std::string &dir)
{
    struct statfs fs{};
    if (statfs(dir.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
        return "ext2/3/4";
    case 0x01021994UL:
        return "tmpfs";
    case 0x58465342UL:
        return "xfs";
    case 0x9123683EUL:
        return "btrfs";
    case 0x794C7630UL:
        return "overlayfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        return buf;
    }
    }
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

// ---- output validation -------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/** FNV-1a over 64-bit words, with a byte-wise tail.  A multiply per
 *  word rather than per byte keeps validation short, so more of a
 *  run's time goes to measured sorts. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= bytes; i += sizeof(std::uint64_t)) {
        std::uint64_t word;
        std::memcpy(&word, p + i, sizeof(word));
        h ^= word;
        h *= kFnvPrime;
    }
    for (; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** valsort's criteria over a gensort stream (sorted, record count and
 *  order-independent checksum) plus the stream's FNV-1a digest. */
class GensortCheck
{
  public:
    void
    feed(const GensortRecord *recs, std::uint64_t count)
    {
        acc_.feed(recs, count);
        digest_ = fnv1a(digest_, recs, count * sizeof(GensortRecord));
    }

    /** Sorted, and the same multiset as @p input by count and sum. */
    bool
    passes(const GensortCheck &input) const
    {
        const ValsortSummary &s = acc_.summary();
        return s.sorted && s.records == input.acc_.summary().records &&
            s.checksum == input.acc_.summary().checksum;
    }

    std::uint64_t digest() const { return digest_; }

  private:
    ValsortAccumulator acc_;
    std::uint64_t digest_ = kFnvOffset;
};

/** The same check for 16-byte records: sorted by key, same count and
 *  order-independent checksum, plus the FNV-1a digest. */
class RecordCheck
{
  public:
    void
    feed(const Record *recs, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            if (count_ > 0 && recs[i].key < prevKey_)
                sorted_ = false;
            prevKey_ = recs[i].key;
            sum_ += SplitMix64(recs[i].key ^
                               recs[i].value * 0x9E3779B97F4A7C15ULL)
                        .next();
            ++count_;
        }
        digest_ = fnv1a(digest_, recs, count * sizeof(Record));
    }

    bool
    passes(const RecordCheck &input) const
    {
        return sorted_ && count_ == input.count_ && sum_ == input.sum_;
    }

    std::uint64_t digest() const { return digest_; }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t prevKey_ = 0;
    bool sorted_ = true;
    std::uint64_t digest_ = kFnvOffset;
};

// ---- the std::sort reference ---------------------------------------

/** Key orderings of the reference, defined here rather than taken from
 *  the library's record types, so no change to the library moves the
 *  reference. */
bool
keyLess(const GensortRecord &a, const GensortRecord &b)
{
    return std::memcmp(a.bytes.data(), b.bytes.data(),
                       GensortRecord::kKeyBytes) < 0;
}

bool
keyLess(const Record &a, const Record &b)
{
    return a.key < b.key;
}

struct KeyLess
{
    template <typename RecordT>
    bool
    operator()(const RecordT &a, const RecordT &b) const
    {
        return keyLess(a, b);
    }
};

/** Negative control for --smoke: one out-of-order record must fail
 *  both validators, and the sorted buffer must pass them. */
bool
validatorsRejectDisorder()
{
    std::vector<GensortRecord> g = GensortGenerator(7).generate(0, 1000);
    GensortCheck g_in;
    g_in.feed(g.data(), g.size());
    std::sort(g.begin(), g.end());
    GensortCheck g_ok;
    g_ok.feed(g.data(), g.size());
    std::swap(g[500], g[501]);
    GensortCheck g_bad;
    g_bad.feed(g.data(), g.size());

    std::vector<Record> r = makeRecords(1000, Distribution::UniformRandom, 7);
    RecordCheck r_in;
    r_in.feed(r.data(), r.size());
    std::sort(r.begin(), r.end());
    RecordCheck r_ok;
    r_ok.feed(r.data(), r.size());
    std::swap(r[500], r[501]);
    RecordCheck r_bad;
    r_bad.feed(r.data(), r.size());

    return g_ok.passes(g_in) && !g_bad.passes(g_in) && r_ok.passes(r_in) &&
        !r_bad.passes(r_in);
}

// ---- one sort ----------------------------------------------------

struct Outcome
{
    bool ok = false;
    double seconds = 0.0;    ///< wall time of the sort call
    double cpuSeconds = 0.0; ///< process CPU during the sort call
    double peakRssMiB = 0.0; ///< VmHWM during the sort call
    double refSeconds = 0.0; ///< the std::sort reference run after it
    std::uint64_t digest = 0;
    core::SsdPlan plan;
    sorter::StreamStats stats;
};

/** Times @p sort (which returns an SsdReport) into @p o. */
template <typename Fn>
void
timeSort(Outcome &o, TraceLog *log, Fn &&sort)
{
    resetPeakRss();
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const double span0 = log ? log->now() : 0.0;
    try {
        const sorter::SsdSorter::SsdReport report = sort();
        o.seconds = secondsSince(t0);
        o.cpuSeconds = processCpuSeconds() - cpu0;
        o.peakRssMiB = readPeakRssMiB();
        o.plan = report.plan;
        o.stats = report.stream;
        o.ok = true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bonsai_bench: sort failed: %s\n", e.what());
    }
    if (log != nullptr)
        log->record("sort", SpanKind::Sort, span0, 0);
}

/** Time the phase-1 kernel alone over every chunk of the input, as
 *  the engine's sorter stage runs it; @p fill copies records
 *  [lo, lo + len) of the input into its destination.  False if a
 *  sorted chunk is out of order. */
template <typename RecordT, typename Fill>
bool
timeKernelChunks(const core::SsdPlan &plan, std::uint64_t records,
                 TraceLog &log, Fill &&fill)
{
    const sorter::BehavioralSorter<RecordT> kernel(
        plan.phase1.config.ell, model::MergerArchParams{}.presortRunLength,
        kThreads);
    ThreadPool pool(kThreads);
    std::vector<RecordT> chunk(std::min(plan.chunkRecords, records));
    bool sorted = true;
    for (std::uint64_t lo = 0; lo < records; lo += chunk.size()) {
        const std::uint64_t len =
            std::min<std::uint64_t>(chunk.size(), records - lo);
        fill(lo, len, chunk.data());
        const double t = log.now();
        kernel.sort(std::span<RecordT>(chunk.data(), len), pool);
        log.record("phase-1 kernel", SpanKind::Kernel, t,
                   len * sizeof(RecordT));
        const auto first = chunk.begin();
        sorted &= std::is_sorted(first,
                                 first + static_cast<std::ptrdiff_t>(len));
    }
    return sorted;
}

/** Median wall time of core::planSsdSort with the sort's arguments. */
double
planSeconds(std::uint64_t records, std::uint64_t record_bytes,
            std::uint64_t chunk_bytes)
{
    std::vector<double> t;
    for (int i = 0; i < kPlanReps; ++i) {
        const auto t0 = Clock::now();
        const auto plan = core::planSsdSort(
            {records, record_bytes}, core::awsF1(),
            model::MergerArchParams{}, core::SsdParams{}, chunk_bytes);
        t.push_back(secondsSince(t0));
        if (!plan)
            throw std::runtime_error("planSsdSort found no plan");
    }
    return median(t);
}

/** The gensort workloads: SsdSorter::sortStream over a FileSource and
 *  a FileSink, the path `file_sorter extsort` runs. */
class ExtSortBench
{
  public:
    using RecordT = GensortRecord;

    ExtSortBench(const Workload &w, const Config &cfg)
        : records_(w.records / (cfg.smoke ? kSmokeDivisor : 1)),
          budget_((w.budgetMiB << 20) / (cfg.smoke ? kSmokeDivisor : 1)),
          seed_(cfg.seed), spillDir_(cfg.dir),
          in_(cfg.dir + "/" + w.name + ".in"),
          out_(cfg.dir + "/" + w.name + ".out")
    {
    }

    ~ExtSortBench()
    {
        std::error_code ec; // best effort: nothing to report it to
        std::filesystem::remove(in_, ec);
        std::filesystem::remove(out_, ec);
    }

    ExtSortBench(const ExtSortBench &) = delete;
    ExtSortBench &operator=(const ExtSortBench &) = delete;

    std::uint64_t inputBytes() const { return records_ * sizeof(RecordT); }

    /** Generate the seeded input and write it to the input file. */
    void
    makeInput()
    {
        io::ByteFile f = io::ByteFile::create(in_);
        const GensortGenerator gen(seed_);
        input_ = GensortCheck{};
        for (std::uint64_t lo = 0; lo < records_; lo += kIoBatchRecords) {
            const std::vector<RecordT> batch = gen.generate(
                lo, std::min(kIoBatchRecords, records_ - lo));
            f.writeAt(lo * sizeof(RecordT), batch.data(),
                      batch.size() * sizeof(RecordT), "benchmark input");
            input_.feed(batch.data(), batch.size());
        }
        // Write-back of the input must not overlap the timed sorts.
        f.sync("benchmark input");
    }

    /** One sort as a user runs it. */
    Outcome
    sort()
    {
        sorter::SsdSorter ssd;
        ssd.setThreads(kThreads);
        sorter::SsdSorter::StreamOptions opts;
        opts.memoryBudgetBytes = budget_;
        opts.spillDir = spillDir_;
        Outcome o;
        { // the files close here, before settle() frees them
            io::FileSource<RecordT> src(io::ByteFile::openRead(in_));
            io::FileSink<RecordT> sink(io::ByteFile::create(out_));
            timeSort(o, nullptr, [&] {
                return ssd.sortStream(src, sink, sizeof(RecordT), opts);
            });
        }
        validate(o);
        settle();
        return o;
    }

    /** The sort a user with memory to spare runs instead: read the
     *  input file, std::sort it, write the output file and sync it.
     *  Its writes and sync see the same device as the sort's, so the
     *  ratio of the two cancels the device's drift too.  Seconds, or a
     *  negative value if its output fails the sort's validation. */
    double
    reference() const
    {
        const auto t0 = Clock::now();
        std::vector<RecordT> recs(records_);
        io::ByteFile::openRead(in_).readAt(0, recs.data(), inputBytes(),
                                           "benchmark reference input");
        std::sort(recs.begin(), recs.end(), KeyLess{});
        {
            io::ByteFile out = io::ByteFile::create(out_);
            out.writeAt(0, recs.data(), inputBytes(),
                        "benchmark reference output");
            out.sync("benchmark reference output");
        }
        const double s = secondsSince(t0);
        settle();
        GensortCheck out;
        out.feed(recs.data(), recs.size());
        return out.passes(input_) ? s : -1.0;
    }

    /** The traced sort runs StreamEngine directly over decorated
     *  stores, with the options @p ref's untraced SsdSorter sort used:
     *  SsdSorter builds its own stores, which cannot be wrapped. */
    Outcome
    tracedSort(const Outcome &ref, TraceLog &log)
    {
        typename sorter::StreamEngine<RecordT>::Options eng;
        eng.phase1Ell = ref.plan.phase1.config.ell;
        eng.phase2Ell = ref.plan.phase2.config.ell;
        eng.presortRun = model::MergerArchParams{}.presortRunLength;
        eng.chunkRecords = ref.plan.chunkRecords;
        eng.batchRecords = ref.stats.batchRecords;
        eng.bufferBudgetBytes = ref.stats.bufferPoolBytes;
        eng.threads = kThreads;

        Outcome o;
        { // the files close here, before settle() frees them
            io::FileSource<RecordT> file_src(io::ByteFile::openRead(in_));
            io::FileSink<RecordT> file_sink(io::ByteFile::create(out_));
            io::FileRunStore<RecordT> file_front(spillDir_);
            io::FileRunStore<RecordT> file_back(spillDir_);
            bench::TracedSource<RecordT> src(file_src, log);
            bench::TracedSink<RecordT> sink(file_sink, log);
            bench::TracedRunStore<RecordT> front(file_front, log);
            bench::TracedRunStore<RecordT> back(file_back, log);
            timeSort(o, &log, [&] {
                sorter::SsdSorter::SsdReport r;
                r.plan = ref.plan;
                r.stream = sorter::StreamEngine<RecordT>(eng).sortStream(
                    src, sink, front, back);
                return r;
            });
        }
        validate(o);
        settle();
        return o;
    }

    bool
    timeKernel(const core::SsdPlan &plan, TraceLog &log)
    {
        const io::ByteFile f = io::ByteFile::openRead(in_);
        return timeKernelChunks<RecordT>(
            plan, records_, log,
            [&f](std::uint64_t lo, std::uint64_t len, RecordT *dst) {
                f.readAt(lo * sizeof(RecordT), dst, len * sizeof(RecordT),
                         "benchmark kernel input");
            });
    }

    double
    timePlan(const core::SsdPlan &plan) const
    {
        return planSeconds(records_, sizeof(RecordT),
                           plan.chunkRecords * sizeof(RecordT));
    }

  private:
    /** Between sorts: the next one writes a new output file, as a
     *  user's sort into a fresh path does, and finds this one's spills
     *  and output freed and committed rather than queued. */
    void
    settle() const
    {
        std::filesystem::remove(out_);
        syncFilesystem(spillDir_);
    }

    void
    validate(Outcome &o) const
    {
        if (!o.ok)
            return;
        const io::ByteFile f = io::ByteFile::openRead(out_);
        if (f.sizeBytes() != inputBytes()) {
            o.ok = false;
            return;
        }
        std::vector<RecordT> batch(kIoBatchRecords);
        GensortCheck out;
        for (std::uint64_t lo = 0; lo < records_; lo += kIoBatchRecords) {
            const std::uint64_t n = std::min(kIoBatchRecords, records_ - lo);
            f.readAt(lo * sizeof(RecordT), batch.data(), n * sizeof(RecordT),
                     "benchmark output validation");
            out.feed(batch.data(), n);
        }
        o.ok = out.passes(input_);
        o.digest = out.digest();
    }

    std::uint64_t records_;
    std::uint64_t budget_;
    std::uint64_t seed_;
    std::string spillDir_;
    std::string in_;
    std::string out_;
    GensortCheck input_;
};

/** The in-memory workload: SsdSorter::sort over a vector of 16-byte
 *  records (the two-phase in-memory adapter; no spill I/O). */
class InMemBench
{
  public:
    using RecordT = Record;

    InMemBench(const Workload &w, const Config &cfg)
        : records_(w.records / (cfg.smoke ? kSmokeDivisor : 1)),
          seed_(cfg.seed)
    {
    }

    std::uint64_t inputBytes() const { return records_ * sizeof(RecordT); }

    void
    makeInput()
    {
        input_ = makeRecords(records_, Distribution::UniformRandom, seed_);
        inputCheck_ = RecordCheck{};
        inputCheck_.feed(input_.data(), input_.size());
    }

    Outcome
    sort(TraceLog *log = nullptr)
    {
        std::vector<RecordT> work = input_;
        sorter::SsdSorter ssd;
        ssd.setThreads(kThreads);
        Outcome o;
        timeSort(o, log, [&] { return ssd.sort(work, sizeof(RecordT)); });
        if (o.ok) {
            RecordCheck out;
            out.feed(work.data(), work.size());
            o.ok = out.passes(inputCheck_);
            o.digest = out.digest();
        }
        return o;
    }

    /** std::sort of a copy of the input, made outside the timer, as
     *  the sort's own copy is.  Seconds, or a negative value if its
     *  output fails the sort's validation. */
    double
    reference() const
    {
        std::vector<RecordT> recs = input_;
        const auto t0 = Clock::now();
        std::sort(recs.begin(), recs.end(), KeyLess{});
        const double s = secondsSince(t0);
        RecordCheck out;
        out.feed(recs.data(), recs.size());
        return out.passes(inputCheck_) ? s : -1.0;
    }

    /** No store or stream to decorate: the traced sort is the sort
     *  inside one span. */
    Outcome
    tracedSort(const Outcome &, TraceLog &log)
    {
        return sort(&log);
    }

    bool
    timeKernel(const core::SsdPlan &plan, TraceLog &log)
    {
        return timeKernelChunks<RecordT>(
            plan, records_, log,
            [this](std::uint64_t lo, std::uint64_t len, RecordT *dst) {
                std::copy_n(input_.begin() + static_cast<std::ptrdiff_t>(lo),
                            len, dst);
            });
    }

    double
    timePlan(const core::SsdPlan &) const
    {
        return planSeconds(records_, sizeof(RecordT), 0);
    }

  private:
    std::uint64_t records_;
    std::uint64_t seed_;
    std::vector<RecordT> input_;
    RecordCheck inputCheck_;
};

// ---- metrics and the per-workload loop ---------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Attempted/failed sorts of one workload; a sort fails when it
 *  throws, fails validation, or its digest differs from the first. */
class Tally
{
  public:
    bool
    account(const Outcome &o)
    {
        ++attempted_;
        bool good = o.ok;
        if (good && !digest_)
            digest_ = o.digest;
        if (good && o.digest != *digest_) {
            std::fprintf(stderr, "bonsai_bench: output digest differs "
                                 "from the first sort's\n");
            good = false;
        }
        if (!good)
            ++failed_;
        return good;
    }

    /** A sort outside the digest comparison (a different sort of the
     *  same input, checked on its own terms). */
    bool
    account(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::optional<std::uint64_t> digest_;
};

/** Median over @p samples of one StreamStats field. */
template <typename Field>
double
medianOf(const std::vector<Outcome> &samples, Field field)
{
    std::vector<double> v;
    for (const Outcome &o : samples)
        v.push_back(static_cast<double>(field(o.stats)));
    return median(v);
}

/** The pass structure the traced sort must reproduce. */
bool
sameStructure(const Outcome &a, const Outcome &b)
{
    return a.digest == b.digest &&
        a.stats.phase1Chunks == b.stats.phase1Chunks &&
        a.stats.mergePasses == b.stats.mergePasses &&
        a.stats.effectiveEll == b.stats.effectiveEll &&
        a.stats.concurrentGroups == b.stats.concurrentGroups &&
        a.stats.finalSlices == b.stats.finalSlices &&
        a.stats.spillBytesWritten == b.stats.spillBytesWritten;
}

/**
 * Per-pass wall times of traced sort @p id: pass i runs from the flush
 * that ended the previous phase (phase 1 or pass i-1) to the flush
 * that ends it; the final pass ends with the sink's finish().  Empty
 * when the stores were not traced.
 */
std::vector<double>
passSeconds(const TraceLog &log, unsigned id)
{
    std::vector<double> bounds;
    double finish = 0.0;
    for (const bench::Span &s : log.spans()) {
        if (s.sort != id)
            continue;
        if (s.kind == SpanKind::SpillFlush &&
            (s.name == "phase-1 spill flush" ||
             s.name == "phase-2 merge pass flush"))
            bounds.push_back(s.end);
        if (s.kind == SpanKind::SinkFinish)
            finish = s.end;
    }
    std::vector<double> passes;
    if (bounds.empty())
        return passes;
    std::sort(bounds.begin(), bounds.end());
    bounds.push_back(finish);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        passes.push_back(bounds[i] - bounds[i - 1]);
    return passes;
}

/** What the traced pass adds to a workload's results. */
struct Traced
{
    std::vector<Metric> metrics;
    bool equal = true;         ///< traced sort kept the pass structure
    double passSumRatio = 0.0; ///< sum of pass_s.* / traced phase 2
};

/**
 * The traced pass: one traced sort (sort 1), the phase-1 kernel alone
 * (sort 2) and the planner, all measured against @p ref, the last
 * untraced sort, whose median wall time is @p p50 and median phase-1
 * time @p phase1_s.
 */
template <typename Bench>
Traced
tracedPass(Bench &b, const Workload &w, const Config &cfg,
           const Outcome &ref, double p50, double phase1_s, Tally &tally)
{
    Traced r;
    const double mb = static_cast<double>(b.inputBytes()) / 1e6;
    TraceLog log;
    auto sort1 = [&](SpanKind kind) { return log.totals(kind, 1); };

    log.beginSort(1);
    const Outcome t = b.tracedSort(ref, log);
    tally.account(t);
    r.equal = t.ok && sameStructure(t, ref);
    if (!r.equal)
        std::fprintf(stderr,
                     "bonsai_bench: %s: traced sort differs from the "
                     "untraced one\n",
                     w.name);

    log.beginSort(2);
    tally.account(b.timeKernel(ref.plan, log));
    const double kernel_s = log.totals(SpanKind::Kernel, 2).seconds;

    const std::vector<double> passes = passSeconds(log, 1);
    double pass_sum = 0.0;
    const std::size_t reported =
        std::max<std::size_t>(passes.size(), kReportedPasses);
    for (std::size_t i = 0; i < reported; ++i) {
        const double s = i < passes.size() ? passes[i] : 0.0;
        pass_sum += s;
        r.metrics.push_back(
            {"sorter.pass_s." + std::to_string(i), s, "s"});
    }
    r.passSumRatio = ratio(pass_sum, t.stats.phase2Seconds);

    const bench::SpanTotals src = sort1(SpanKind::SourceRead);
    const bench::SpanTotals p1 = sort1(SpanKind::SpillWriteP1);
    const bench::SpanTotals p2 = sort1(SpanKind::SpillWriteP2);
    const bench::SpanTotals rd = sort1(SpanKind::SpillRead);
    const bench::SpanTotals probe = sort1(SpanKind::SplitterProbe);
    const bench::SpanTotals flush = sort1(SpanKind::SpillFlush);
    const bench::SpanTotals sink = sort1(SpanKind::SinkWrite);
    const bench::SpanTotals fin = sort1(SpanKind::SinkFinish);
    const double writes = static_cast<double>(p1.count + p2.count);
    const double eq1_passes = model::mergeStages(
        ref.stats.recordsIn, ref.stats.effectiveEll,
        ref.plan.chunkRecords);
    const std::vector<Metric> layer = {
        {"sorter.kernel_s", kernel_s, "s"},
        {"sorter.kernel_mb_s", ratio(mb, kernel_s), "MB/s"},
        {"sorter.splitter_probes", static_cast<double>(probe.count),
         "count"},
        {"sorter.splitter_probe_s", probe.seconds, "s"},
        {"pipeline.phase1_overlap",
         ratio(src.seconds + kernel_s + p1.seconds, phase1_s), "ratio"},
        {"io.source_reads", static_cast<double>(src.count), "count"},
        {"io.source_read_s", src.seconds, "s"},
        {"io.spill_p1_write_s", p1.seconds, "s"},
        {"io.spill_p2_write_s", p2.seconds, "s"},
        {"io.spill_writes", writes, "count"},
        {"io.spill_write_kib_mean",
         ratio(static_cast<double>(p1.bytes + p2.bytes) / 1024, writes),
         "KiB"},
        {"io.spill_reads", static_cast<double>(rd.count), "count"},
        {"io.spill_read_s", rd.seconds, "s"},
        {"io.spill_read_kib_mean",
         ratio(static_cast<double>(rd.bytes) / 1024,
               static_cast<double>(rd.count)),
         "KiB"},
        {"io.spill_flushes", static_cast<double>(flush.count), "count"},
        {"io.spill_flush_s", flush.seconds, "s"},
        {"io.sink_writes", static_cast<double>(sink.count), "count"},
        {"io.sink_write_s", sink.seconds, "s"},
        {"io.sink_finish_s", fin.seconds, "s"},
        {"core.plan_s", b.timePlan(ref.plan), "s"},
        {"model.eq1_passes", eq1_passes, "count"},
        {"model.eq1_spill_ratio", 2.0 * eq1_passes, "ratio"},
        {"trace.overhead", ratio(t.seconds, p50) - 1.0, "ratio"},
    };
    r.metrics.insert(r.metrics.end(), layer.begin(), layer.end());

    if (!cfg.traceDir.empty()) {
        io::createDirectories(cfg.traceDir);
        const std::string path =
            cfg.traceDir + "/TRACE_" + w.name + ".json";
        if (!log.writeChromeTrace(path))
            throw std::runtime_error("cannot write " + path);
    }
    return r;
}

template <typename Bench>
bool
runWorkload(const Workload &w, const Config &cfg, bench::JsonReporter &json)
{
    Bench b(w, cfg);
    Tally tally;
    const double mb = static_cast<double>(b.inputBytes()) / 1e6;

    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        b.makeInput();
        const double input_s = secondsSince(t0);
        const Outcome warm = b.sort();
        tally.account(warm);
        setup.push_back(input_s + warm.seconds);
    }

    std::vector<Outcome> samples;
    const auto start = Clock::now();
    do {
        Outcome o = b.sort();
        if (tally.account(o)) {
            o.refSeconds = b.reference();
            if (tally.account(o.refSeconds > 0.0))
                samples.push_back(std::move(o));
        }
    } while (secondsSince(start) < cfg.seconds);

    std::vector<double> sort_s;
    std::vector<double> ref_s;
    std::vector<double> speedup;
    std::vector<double> peak_rss;
    double cpu_s = 0.0;
    for (const Outcome &o : samples) {
        sort_s.push_back(o.seconds);
        ref_s.push_back(o.refSeconds);
        speedup.push_back(ratio(o.refSeconds, o.seconds));
        peak_rss.push_back(o.peakRssMiB);
        cpu_s += o.cpuSeconds;
    }
    const double p50 = median(sort_s);
    const double speedup_p50 = median(speedup);
    const double gb_sorted =
        static_cast<double>(samples.size()) * mb / 1e3;
    using S = sorter::StreamStats;
    const double phase1_s =
        medianOf(samples, [](const S &s) { return s.phase1Seconds; });
    const double spill_ratio = ratio(
        medianOf(samples, [](const S &s) {
            return s.spillBytesWritten + s.spillBytesRead;
        }),
        static_cast<double>(b.inputBytes()));

    std::vector<Metric> m = {
        {"speedup_vs_std_sort", speedup_p50, "ratio"},
        {"throughput_mb_s", ratio(mb, p50), "MB/s"},
        {"sort_s_p50", p50, "s"},
        {"cpu_s_per_gb", ratio(cpu_s, gb_sorted), "s/GB"},
        {"peak_rss_mib", median(peak_rss), "MiB"},
        {"setup_s", median(setup), "s"},
        {"baseline.std_sort_mb_s", ratio(mb, median(ref_s)), "MB/s"},
        {"spill_bytes_per_input_byte", spill_ratio, "ratio"},
        {"sorter.phase1_s", phase1_s, "s"},
        {"sorter.phase2_s",
         medianOf(samples, [](const S &s) { return s.phase2Seconds; }),
         "s"},
        {"sorter.merge_passes",
         medianOf(samples, [](const S &s) { return s.mergePasses; }),
         "count"},
        {"sorter.effective_ell",
         medianOf(samples, [](const S &s) { return s.effectiveEll; }),
         "count"},
        {"sorter.batch_records",
         medianOf(samples, [](const S &s) { return s.batchRecords; }),
         "records"},
        {"sorter.read_stall_s",
         medianOf(samples, [](const S &s) { return s.readStallSeconds; }),
         "s"},
        {"sorter.write_stall_s",
         medianOf(samples, [](const S &s) { return s.writeStallSeconds; }),
         "s"},
        {"io.pool_peak_mib",
         medianOf(samples,
                  [](const S &s) { return s.bufferPoolPeakBytes; }) /
             (1 << 20),
         "MiB"},
        {"io.pool_budget_mib",
         medianOf(samples, [](const S &s) { return s.bufferPoolBytes; }) /
             (1 << 20),
         "MiB"},
        {"io.retries", medianOf(samples, [](const S &s) {
             return s.ioTransientRetries + s.ioEintrRetries +
                 s.ioShortTransfers;
         }),
         "count"},
    };

    Traced traced;
    if (cfg.trace && !samples.empty())
        traced = tracedPass(b, w, cfg, samples.back(), p50, phase1_s, tally);
    m.insert(m.end(), traced.metrics.begin(), traced.metrics.end());

    const double fail_ratio = ratio(static_cast<double>(tally.failed()),
                                    static_cast<double>(tally.attempted()));
    for (const Metric &x : m)
        std::printf("%s %s %.6g %s\n", w.name, x.name.c_str(), x.value,
                    x.unit);
    std::printf("%s fail_ratio %.6g ratio\n", w.name, fail_ratio);

    json.beginPoint();
    json.field("workload", std::string(w.name));
    json.field("cpu", static_cast<std::uint64_t>(cfg.cpu));
    json.field("input_bytes", b.inputBytes());
    json.field("reps", static_cast<std::uint64_t>(samples.size()));
    json.field("attempted", tally.attempted());
    json.field("failed", tally.failed());
    json.field("fail_ratio", fail_ratio);
    json.field("traced", static_cast<std::uint64_t>(cfg.trace ? 1 : 0));
    json.field("traced_equal",
               static_cast<std::uint64_t>(traced.equal ? 1 : 0));
    json.field("trace.pass_sum_ratio", traced.passSumRatio);
    json.field("sort_s_min", quantile(sort_s, 0.0));
    json.field("sort_s_max", quantile(sort_s, 1.0));
    json.field("sort_s_spread",
               ratio(quantile(sort_s, 0.75) - quantile(sort_s, 0.25), p50));
    json.field("speedup_spread",
               ratio(quantile(speedup, 0.75) - quantile(speedup, 0.25),
                     speedup_p50));
    for (const Metric &x : m)
        json.field(x.name, x.value);
    return tally.failed() == 0 && traced.equal;
}

Config
parseArgs(int argc, char **argv)
{
    Config cfg;
    const char *tmp = std::getenv("TMPDIR");
    cfg.dir = std::string(tmp && *tmp ? tmp : "/tmp") + "/bonsai-bench";
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--seed")
            cfg.seed = std::stoull(value());
        else if (a == "--dir")
            cfg.dir = value();
        else if (a == "--out")
            cfg.out = value();
        else if (a == "--workload")
            cfg.only = value();
        else if (a == "--trace-dir")
            cfg.traceDir = value();
        else if (a == "--seconds") {
            cfg.seconds = std::stod(value());
            seconds_given = true;
        } else if (a == "--trace")
            cfg.trace = value() != "0";
        else if (a == "--smoke")
            cfg.smoke = true;
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (cfg.smoke && !seconds_given)
        cfg.seconds = 0.0; // one measured sort
    cfg.nproc = onlineCpus();
    return cfg;
}

int
run(int argc, char **argv)
{
    Config cfg = parseArgs(argc, argv);
    cfg.cpu = pinToCurrentCpu();
    // glibc raises its mmap threshold after each large free, and from
    // then on freed chunk buffers stay in the heap: VmHWM then depends
    // on the sorts run before (160-220 MiB at a 64 MiB budget).  A fixed
    // threshold maps every chunk buffer afresh and returns it when it
    // is freed, as in a process that sorts once, so peak_rss_mib is
    // the memory the sort holds.
    mallopt(M_MMAP_THRESHOLD, 256 << 10);
    bool ok = true;
    if (cfg.smoke && !validatorsRejectDisorder()) {
        std::fprintf(stderr, "bonsai_bench: validator accepted an "
                             "out-of-order buffer\n");
        ok = false;
    }
    io::createDirectories(cfg.dir);

    bench::JsonReporter json("e2e");
    json.config("build_type", std::string(BONSAI_BENCH_BUILD_TYPE));
    json.config("compiler", compilerName());
    json.config("bonsai_checked",
                static_cast<std::uint64_t>(BONSAI_CHECKED ? 1 : 0));
    json.config("nproc", static_cast<std::uint64_t>(cfg.nproc));
    json.config("threads", static_cast<std::uint64_t>(kThreads));
    json.config("seed", cfg.seed);
    json.config("seconds", cfg.seconds);
    json.config("setup_reps", static_cast<std::uint64_t>(kSetupReps));
    json.config("smoke", static_cast<std::uint64_t>(cfg.smoke ? 1 : 0));
    json.config("filesystem", filesystemOf(cfg.dir));

    bool found = false;
    for (const Workload &w : kWorkloads) {
        if (!cfg.only.empty() && cfg.only != w.name)
            continue;
        found = true;
        ok &= w.kind == Kind::ExtSort
            ? runWorkload<ExtSortBench>(w, cfg, json)
            : runWorkload<InMemBench>(w, cfg, json);
    }
    if (!found)
        throw std::invalid_argument("unknown workload " + cfg.only);

    const std::filesystem::path out(cfg.out);
    const std::filesystem::path dir =
        out.has_parent_path() ? out.parent_path() : ".";
    if (!json.write(dir.string()))
        throw std::runtime_error("cannot write into " + dir.string());
    if (out.filename() != "BENCH_e2e.json")
        std::filesystem::rename(dir / "BENCH_e2e.json", out);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bonsai_bench: %s\n", e.what());
        return 2;
    }
}
