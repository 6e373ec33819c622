#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace am = accordion::manycore;
namespace ar = accordion::rms;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Bench:
        return "bench";
    case Layer::Harness:
        return "harness";
    case Layer::Quality:
        return "quality";
    case Layer::Rms:
        return "rms";
    case Layer::Vartech:
        return "vartech";
    case Layer::Pareto:
        return "pareto";
    case Layer::Manycore:
        return "manycore";
    }
    return "bench";
}

/** One thread's spans plus its stack of open span ids. */
struct Tracer::Buffer
{
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
};

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_nextId{1};
std::atomic<std::uint32_t> g_rep{0};
/** Innermost span open on the main thread (0: none). */
std::atomic<std::uint32_t> g_mainTop{0};
thread_local bool t_main = false;

/**
 * Decorator spans (kernel runs, estimates) open nothing beneath them,
 * so a leaf the main thread runs inside a parallelFor must not become
 * the parent of the workers' concurrent leaves.
 */
bool
leaf(Layer layer)
{
    return layer == Layer::Rms || layer == Layer::Manycore;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

void
Tracer::bindMainThread()
{
    t_main = true;
}

void
Tracer::setRep(std::uint32_t rep)
{
    g_rep.store(rep, std::memory_order_relaxed);
}

Tracer::Buffer &
Tracer::buffer()
{
    // Buffers are owned by the tracer and never freed, so a pool
    // worker that exits leaves its spans behind for collect().
    thread_local Buffer *mine = nullptr;
    if (!mine) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        mine = buffers_.back().get();
        mine->thread = static_cast<std::uint32_t>(buffers_.size());
    }
    return *mine;
}

std::vector<Span>
Tracer::collect() const
{
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &b : buffers_)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return all;
}

const char *
Tracer::intern(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return interned_.insert(text).first->c_str();
}

ScopedSpan::ScopedSpan(Layer layer, const char *name, const char *label)
{
    if (!g_on.load(std::memory_order_relaxed))
        return;
    active_ = true;
    Tracer::Buffer &buf = Tracer::instance().buffer();
    span_.name = name;
    span_.label = label;
    span_.layer = layer;
    span_.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    span_.rep = g_rep.load(std::memory_order_relaxed);
    span_.thread = buf.thread;
    span_.parent = !buf.open.empty()
        ? buf.open.back()
        : (t_main ? 0 : g_mainTop.load(std::memory_order_acquire));
    buf.open.push_back(span_.id);
    if (t_main && !leaf(layer))
        g_mainTop.store(span_.id, std::memory_order_release);
    span_.t0 = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.t1 = nowNs();
    Tracer::Buffer &buf = Tracer::instance().buffer();
    buf.open.pop_back();
    if (t_main && !leaf(span_.layer))
        g_mainTop.store(buf.open.empty() ? 0 : buf.open.back(),
                        std::memory_order_release);
    buf.spans.push_back(span_);
}

namespace {

/** Length of the union of @p intervals clipped to [lo, hi). */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> &intervals,
            std::int64_t lo, std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            cursor = b;
        }
    }
    return covered;
}

} // namespace

LayerReport
analyzeLayers(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;
    std::vector<Intervals> kids(spans.size());
    std::map<std::uint32_t, std::pair<const Span *, Intervals>> reps;
    for (const Span &s : spans) {
        if (s.rep == 0)
            continue;
        if (s.layer == Layer::Bench && std::strcmp(s.name, "rep") == 0)
            reps[s.rep].first = &s;
        else if (s.layer != Layer::Bench)
            reps[s.rep].second.emplace_back(s.t0, s.t1);
        if (s.parent == 0)
            continue;
        const auto it = index.find(s.parent);
        if (it != index.end())
            kids[it->second].emplace_back(s.t0, s.t1);
    }

    LayerReport report;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.rep == 0)
            continue;
        const std::int64_t covered = unionLength(kids[i], s.t0, s.t1);
        report.selfSeconds[static_cast<std::size_t>(s.layer)] +=
            static_cast<double>(s.t1 - s.t0 - covered) * 1e-9;
    }
    std::int64_t rep_ns = 0;
    std::int64_t layer_ns = 0;
    for (auto &[id, rep] : reps) {
        if (!rep.first)
            continue;
        rep_ns += rep.first->t1 - rep.first->t0;
        layer_ns += unionLength(rep.second, rep.first->t0, rep.first->t1);
    }
    if (rep_ns > 0)
        report.coverage =
            static_cast<double>(layer_ns) / static_cast<double>(rep_ns);
    return report;
}

std::size_t
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 std::size_t max_events)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return 0;
    // Estimate spans are the only numerous kind (one per Pareto
    // candidate); keep every other span and fill the rest of the
    // budget with estimates in id order.
    std::size_t others = 0;
    for (const Span &s : spans)
        others += s.layer != Layer::Manycore;
    std::size_t estimate_budget =
        max_events > others ? max_events - others : 0;
    const std::int64_t origin = spans.empty() ? 0 : [&] {
        std::int64_t t = spans.front().t0;
        for (const Span &s : spans)
            t = std::min(t, s.t0);
        return t;
    }();

    std::fprintf(out, "{\"traceEvents\":[\n");
    std::size_t written = 0;
    for (const Span &s : spans) {
        if (s.layer == Layer::Manycore) {
            if (estimate_budget == 0)
                continue;
            --estimate_budget;
        }
        std::fprintf(
            out,
            "%s{\"name\":\"%s%s%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"rep\":%u,\"id\":%u,\"parent\":%u}}",
            written ? ",\n" : "", s.name, *s.label ? ":" : "", s.label,
            layerName(s.layer), static_cast<double>(s.t0 - origin) * 1e-3,
            static_cast<double>(s.t1 - s.t0) * 1e-3, s.thread, s.rep,
            s.id, s.parent);
        ++written;
    }
    std::fprintf(out, "\n]}\n");
    const bool ok = std::fclose(out) == 0;
    return ok ? written : 0;
}

TracedWorkload::TracedWorkload(const ar::Workload &inner)
    : inner_(&inner), label_(Tracer::instance().intern(inner.name()))
{
}

ar::RunResult
TracedWorkload::run(const ar::RunConfig &config) const
{
    const char *kind = "kernel_run";
    if (!config.fault.none())
        kind = "faulted_run";
    else if (config.input == inner_->hyperAccurateInput())
        kind = "reference_run";
    ScopedSpan span(Layer::Rms, kind, label_);
    return inner_->run(config);
}

am::ExecutionEstimate
TracedPerfModel::estimate(const accordion::vartech::ChipGeometry &geometry,
                          const std::vector<std::size_t> &cores,
                          double f_hz, const am::TaskSet &tasks,
                          const am::WorkloadTraits &traits,
                          double latency_scale) const
{
    ScopedSpan span(Layer::Manycore, "estimate");
    return inner_->estimate(geometry, cores, f_hz, tasks, traits,
                            latency_scale);
}

RecordingPerfModel::Key
RecordingPerfModel::key(std::size_t cores, double f_hz, double seconds)
{
    std::uint64_t f_bits = 0;
    std::uint64_t s_bits = 0;
    std::memcpy(&f_bits, &f_hz, sizeof f_bits);
    std::memcpy(&s_bits, &seconds, sizeof s_bits);
    return {cores, f_bits, s_bits};
}

am::ExecutionEstimate
RecordingPerfModel::estimate(const accordion::vartech::ChipGeometry &geometry,
                             const std::vector<std::size_t> &cores,
                             double f_hz, const am::TaskSet &tasks,
                             const am::WorkloadTraits &traits,
                             double latency_scale) const
{
    const am::ExecutionEstimate est = inner_->estimate(
        geometry, cores, f_hz, tasks, traits, latency_scale);
    std::lock_guard<std::mutex> lock(mutex_);
    calls_[key(cores.size(), f_hz, est.seconds)] =
        Call{&geometry, cores, f_hz, tasks, traits, latency_scale};
    return est;
}

const RecordingPerfModel::Call *
RecordingPerfModel::find(std::size_t cores, double f_hz,
                         double seconds) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = calls_.find(key(cores, f_hz, seconds));
    return it == calls_.end() ? nullptr : &it->second;
}

am::ExecutionEstimate
RecordingPerfModel::replay(const Call &call, const am::PerfModel &engine)
{
    return engine.estimate(*call.geometry, call.cores, call.fHz, call.tasks,
                           call.traits, call.latencyScale);
}

} // namespace perfbench
