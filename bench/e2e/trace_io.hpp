/**
 * @file
 * Tracing decorators for the end-to-end benchmark: timing wrappers
 * around the io interfaces (RecordSource, RecordSink, RunStore) that
 * record one span per call into an in-memory TraceLog, so a traced
 * sort reports where its I/O time went without any change to the
 * engine.  Spans are summed into per-layer metrics by bonsai_bench and
 * optionally written out as Chrome trace-event JSON (Perfetto opens
 * it).
 *
 * The decorators forward every virtual call of the interface they
 * wrap.  A missing forward does not fail loudly: a sink that stops
 * reporting supportsSegments() silently turns the splitter-parallel
 * final pass into the serial one, which is why bonsai_bench compares
 * the traced sort's pass structure with the untraced sort's.
 */

#ifndef BONSAI_BENCH_E2E_TRACE_IO_HPP
#define BONSAI_BENCH_E2E_TRACE_IO_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"

namespace bonsai::bench
{

/** What a span measured; each kind feeds one group of metrics. */
enum class SpanKind {
    Sort,          ///< one whole sort call
    Kernel,        ///< standalone phase-1 kernel over one chunk
    SourceRead,    ///< RecordSource::read
    SinkWrite,     ///< RecordSink::write / writeSegment
    SinkFinish,    ///< RecordSink::finish (the output fdatasync)
    SpillWriteP1,  ///< RunStore::writeAt from the phase-1 spiller
    SpillWriteP2,  ///< RunStore::writeAt from a merge pass
    SpillRead,     ///< RunStore::readAt of run data
    SplitterProbe, ///< RunStore::readAt of a final-pass splitter probe
    SpillFlush,    ///< RunStore::flush
};

/** Module a span kind belongs to (the Chrome trace category). */
inline const char *
spanLayer(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Sort:
    case SpanKind::Kernel:
    case SpanKind::SplitterProbe:
        return "sorter";
    default:
        return "io";
    }
}

struct Span
{
    std::string name;
    SpanKind kind = SpanKind::Sort;
    double start = 0.0; ///< seconds since the log was created
    double end = 0.0;
    unsigned thread = 0; ///< small per-process thread index
    std::uint64_t bytes = 0;
    unsigned sort = 0; ///< id of the sort the span belongs to

    double seconds() const { return end - start; }
};

/** Count, summed duration and bytes of one span kind. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;
    std::uint64_t bytes = 0;
};

/** In-memory span log shared by every decorator of one benchmark run.
 *  Safe to record into from the engine's worker threads. */
class TraceLog
{
  public:
    using Clock = std::chrono::steady_clock;

    TraceLog() : origin_(Clock::now()) {}

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** Spans recorded from here on belong to sort @p id. */
    void beginSort(unsigned id) { sort_.store(id); }

    void
    record(std::string name, SpanKind kind, double start,
           std::uint64_t bytes) BONSAI_EXCLUDES(mu_)
    {
        Span s;
        s.name = std::move(name);
        s.kind = kind;
        s.start = start;
        s.end = now();
        s.thread = threadIndex();
        s.bytes = bytes;
        s.sort = sort_.load();
        ScopedLock lock(mu_);
        spans_.push_back(std::move(s));
    }

    /** Snapshot of every span recorded so far. */
    std::vector<Span>
    spans() const BONSAI_EXCLUDES(mu_)
    {
        ScopedLock lock(mu_);
        return spans_;
    }

    /** Totals of the spans of @p kind that belong to sort @p id. */
    SpanTotals
    totals(SpanKind kind, unsigned id) const BONSAI_EXCLUDES(mu_)
    {
        SpanTotals t;
        ScopedLock lock(mu_);
        for (const Span &s : spans_) {
            if (s.kind != kind || s.sort != id)
                continue;
            ++t.count;
            t.seconds += s.seconds();
            t.bytes += s.bytes;
        }
        return t;
    }

    /** Write the log as Chrome trace-event JSON; false on I/O error. */
    bool
    writeChromeTrace(const std::string &path) const BONSAI_EXCLUDES(mu_)
    {
        const std::vector<Span> all = spans();
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\": [");
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            std::fprintf(f,
                         "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": %u, \"args\": "
                         "{\"bytes\": %llu, \"sort\": %u}}",
                         i == 0 ? "" : ",", escaped(s.name).c_str(),
                         spanLayer(s.kind), s.start * 1e6,
                         s.seconds() * 1e6, s.thread,
                         static_cast<unsigned long long>(s.bytes), s.sort);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    static unsigned
    threadIndex()
    {
        static std::atomic<unsigned> next{0};
        thread_local const unsigned index = next.fetch_add(1);
        return index;
    }

    static std::string
    escaped(std::string_view raw)
    {
        std::string out;
        for (const char c : raw) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    Clock::time_point origin_;
    std::atomic<unsigned> sort_{0};
    mutable Mutex mu_;
    std::vector<Span> spans_ BONSAI_GUARDED_BY(mu_);
};

/** Source decorator: one SourceRead span per read(). */
template <typename RecordT>
class TracedSource final : public io::RecordSource<RecordT>
{
  public:
    TracedSource(io::RecordSource<RecordT> &inner, TraceLog &log)
        : inner_(&inner), log_(&log)
    {
    }

    std::uint64_t
    totalRecords() const override
    {
        return inner_->totalRecords();
    }

    std::uint64_t
    read(RecordT *dst, std::uint64_t max) override
    {
        const double t = log_->now();
        const std::uint64_t got = inner_->read(dst, max);
        log_->record("source read", SpanKind::SourceRead, t,
                     got * sizeof(RecordT));
        return got;
    }

    std::uint64_t
    skip(std::uint64_t count) override
    {
        return inner_->skip(count);
    }

  private:
    io::RecordSource<RecordT> *inner_;
    TraceLog *log_;
};

/** Sink decorator: SinkWrite spans for sequential and positioned
 *  writes, a SinkFinish span for the closing fdatasync. */
template <typename RecordT>
class TracedSink final : public io::RecordSink<RecordT>
{
  public:
    TracedSink(io::RecordSink<RecordT> &inner, TraceLog &log)
        : inner_(&inner), log_(&log)
    {
    }

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        const double t = log_->now();
        inner_->write(src, count);
        log_->record("sink write", SpanKind::SinkWrite, t,
                     count * sizeof(RecordT));
    }

    void
    finish() override
    {
        const double t = log_->now();
        inner_->finish();
        log_->record("sink finish", SpanKind::SinkFinish, t, 0);
    }

    bool
    supportsSegments() const override
    {
        return inner_->supportsSegments();
    }

    void
    beginSegments(std::uint64_t total) override
    {
        inner_->beginSegments(total);
    }

    void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count) override
    {
        const double t = log_->now();
        inner_->writeSegment(offset, src, count);
        log_->record("sink segment write", SpanKind::SinkWrite, t,
                     count * sizeof(RecordT));
    }

  private:
    io::RecordSink<RecordT> *inner_;
    TraceLog *log_;
};

/**
 * Run-store decorator.  The engine reads spill traffic from the store
 * it was handed, so this counts bytes itself (countRead/countWrite)
 * besides forwarding; run metadata lives on the decorator, which is
 * the store the engine sees.  Calls are classified by the context
 * string the engine passes: "phase-1 ..." writes are phase-1 spills,
 * "final-pass splitter ..." reads are splitter probes.
 */
template <typename RecordT>
class TracedRunStore final : public io::RunStore<RecordT>
{
  public:
    TracedRunStore(io::RunStore<RecordT> &inner, TraceLog &log)
        : inner_(&inner), log_(&log)
    {
    }

    void
    writeAt(std::uint64_t offset, const RecordT *src, std::uint64_t count,
            const char *context = nullptr) override
    {
        const double t = log_->now();
        inner_->writeAt(offset, src, count, context);
        const std::uint64_t bytes = count * sizeof(RecordT);
        this->countWrite(bytes);
        const std::string_view ctx = context ? context : "";
        log_->record(std::string(ctx.empty() ? "spill write" : ctx),
                     ctx.starts_with("phase-1") ? SpanKind::SpillWriteP1
                                                : SpanKind::SpillWriteP2,
                     t, bytes);
    }

    void
    readAt(std::uint64_t offset, RecordT *dst, std::uint64_t count,
           const char *context = nullptr) const override
    {
        const double t = log_->now();
        inner_->readAt(offset, dst, count, context);
        const std::uint64_t bytes = count * sizeof(RecordT);
        this->countRead(bytes);
        const std::string_view ctx = context ? context : "";
        log_->record(std::string(ctx.empty() ? "spill read" : ctx),
                     ctx.starts_with("final-pass splitter")
                         ? SpanKind::SplitterProbe
                         : SpanKind::SpillRead,
                     t, bytes);
    }

    void
    flush(const char *context = nullptr) override
    {
        const double t = log_->now();
        inner_->flush(context);
        log_->record(context ? context : "spill flush",
                     SpanKind::SpillFlush, t, 0);
    }

    io::IoRetryStats
    retryStats() const override
    {
        return inner_->retryStats();
    }

    std::span<RecordT>
    memorySpan() override
    {
        return inner_->memorySpan();
    }

  private:
    io::RunStore<RecordT> *inner_;
    TraceLog *log_;
};

} // namespace bonsai::bench

#endif // BONSAI_BENCH_E2E_TRACE_IO_HPP
