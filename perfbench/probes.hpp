/**
 * @file
 * The benchmark's own instrumentation, kept outside the library:
 *
 *  - an in-memory span recorder (per-thread buffers, written out as a
 *    Chrome trace only when the run ends),
 *  - forwarding decorators for the two library interfaces whose calls
 *    the benchmark times from outside: rms::Workload (kernel runs
 *    during profile set-up) and manycore::PerfModel (execution-time
 *    estimates behind every Pareto point),
 *  - RecordingPerfModel, which keeps each estimate's arguments so the
 *    call behind a front point can be replayed on another engine (the
 *    engine-gap measurement).
 *
 * Decorators forward every call unchanged and only read the clock, so
 * decorated profiles and fronts are bit-identical to undecorated ones;
 * the traced run checks this on every invocation.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "manycore/perf_model.hpp"
#include "rms/workload.hpp"

namespace perfbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

/** The library modules the traced run attributes time to. */
enum class Layer : std::uint8_t
{
    Bench, //!< the benchmark's own rep loop
    Harness, //!< harness experiments (src/harness)
    Quality, //!< quality-profile measurement (src/core/quality_profile)
    Rms, //!< RMS kernel runs (src/rms)
    Vartech, //!< chip manufacture (src/vartech)
    Pareto, //!< core selection, baselines, fronts (src/core)
    Manycore, //!< execution-time estimates (src/manycore)
};

constexpr std::size_t kLayers = 7;

/** Metric-name spelling of a layer ("harness", "manycore", ...). */
const char *layerName(Layer layer);

/** One closed span. Names are string literals; labels are interned. */
struct Span
{
    const char *name = "";
    const char *label = ""; //!< kernel or experiment, "" when none
    Layer layer = Layer::Bench;
    std::uint32_t id = 0; //!< 1-based, unique while recording
    std::uint32_t parent = 0; //!< 0 for roots
    std::uint32_t rep = 0; //!< 0 = set-up, 1.. = traced reps
    std::uint32_t thread = 0;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
};

/**
 * Process-wide span recorder. Off by default; ScopedSpan costs one
 * relaxed load while off. Spans nest per thread; a span opened on a
 * pool worker with nothing open on that thread is parented to the
 * innermost span open on the main thread (the benchmark is a single
 * closed-loop client, so that span is the one that fanned the work
 * out).
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Record from now on (true) or stop recording (false). */
    void setEnabled(bool on);

    /** The thread whose open spans parent worker-thread spans. */
    void bindMainThread();

    /** Rep id stamped on spans opened from now on. */
    void setRep(std::uint32_t rep);

    /** Every recorded span, ordered by id. Call with no span open. */
    std::vector<Span> collect() const;

    /** A stable C string equal to @p text (labels outlive spans). */
    const char *intern(const std::string &text);

  private:
    Tracer() = default;
    friend class ScopedSpan;
    struct Buffer;
    Buffer &buffer();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_; //!< guarded by mutex_
    std::set<std::string> interned_; //!< guarded by mutex_
};

/** Records its own lifetime as a span when the tracer is on. */
class ScopedSpan
{
  public:
    ScopedSpan(Layer layer, const char *name, const char *label = "");
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_ = false;
    Span span_;
};

/** Per-layer self time and coverage of the traced reps. */
struct LayerReport
{
    /** Self seconds per layer (span minus the union of its children),
     *  summed over every thread. */
    std::array<double, kLayers> selfSeconds{};
    /** Share of rep wall time inside spans of the library layers
     *  (every layer but Bench), on any thread. */
    double coverage = 0.0;
};

/** Self time of the spans of reps >= 1. */
LayerReport analyzeLayers(const std::vector<Span> &spans);

/**
 * Write @p spans as Chrome-trace JSON (Perfetto-loadable), at most
 * @p max_events of them, leaf estimate spans dropped first.
 * Returns the number written, 0 on an I/O error.
 */
std::size_t writeChromeTrace(const std::string &path,
                             const std::vector<Span> &spans,
                             std::size_t max_events);

/** Kernel decorator: forwards every call, spans each run(). */
class TracedWorkload final : public accordion::rms::Workload
{
  public:
    explicit TracedWorkload(const accordion::rms::Workload &inner);

    std::string name() const override { return inner_->name(); }
    std::string domain() const override { return inner_->domain(); }
    std::string qualityMetricName() const override
    {
        return inner_->qualityMetricName();
    }
    std::string accordionInputName() const override
    {
        return inner_->accordionInputName();
    }
    double defaultInput() const override { return inner_->defaultInput(); }
    std::vector<double> inputSweep() const override
    {
        return inner_->inputSweep();
    }
    double hyperAccurateInput() const override
    {
        return inner_->hyperAccurateInput();
    }
    std::size_t defaultThreads() const override
    {
        return inner_->defaultThreads();
    }
    accordion::rms::RunResult
    run(const accordion::rms::RunConfig &config) const override;
    double quality(const accordion::rms::RunResult &result,
                   const accordion::rms::RunResult &reference) const override
    {
        return inner_->quality(result, reference);
    }
    accordion::manycore::WorkloadTraits traits() const override
    {
        return inner_->traits();
    }
    accordion::rms::Dependency problemSizeDependency() const override
    {
        return inner_->problemSizeDependency();
    }
    accordion::rms::Dependency qualityDependency() const override
    {
        return inner_->qualityDependency();
    }

  private:
    const accordion::rms::Workload *inner_;
    const char *label_;
};

/** Perf-model decorator: forwards every call, spans each estimate. */
class TracedPerfModel final : public accordion::manycore::PerfModel
{
  public:
    explicit TracedPerfModel(const accordion::manycore::PerfModel &inner)
        : inner_(&inner)
    {
    }

    accordion::manycore::ExecutionEstimate
    estimate(const accordion::vartech::ChipGeometry &geometry,
             const std::vector<std::size_t> &cores, double f_hz,
             const accordion::manycore::TaskSet &tasks,
             const accordion::manycore::WorkloadTraits &traits,
             double latency_scale) const override;
    using PerfModel::estimate;

  private:
    const accordion::manycore::PerfModel *inner_;
};

/**
 * Forwards to an engine and keeps every call's arguments, so the call
 * behind a front point, found by the (core count, clock, seconds) of
 * the estimate that produced it, can be replayed on another engine.
 */
class RecordingPerfModel final : public accordion::manycore::PerfModel
{
  public:
    struct Call
    {
        const accordion::vartech::ChipGeometry *geometry = nullptr;
        std::vector<std::size_t> cores;
        double fHz = 0.0;
        accordion::manycore::TaskSet tasks;
        accordion::manycore::WorkloadTraits traits;
        double latencyScale = 1.0;
    };

    explicit RecordingPerfModel(const accordion::manycore::PerfModel &inner)
        : inner_(&inner)
    {
    }

    accordion::manycore::ExecutionEstimate
    estimate(const accordion::vartech::ChipGeometry &geometry,
             const std::vector<std::size_t> &cores, double f_hz,
             const accordion::manycore::TaskSet &tasks,
             const accordion::manycore::WorkloadTraits &traits,
             double latency_scale) const override;
    using PerfModel::estimate;

    /** The call whose estimate was (cores, f_hz, seconds); or null. */
    const Call *find(std::size_t cores, double f_hz, double seconds) const;

    /** Run a recorded call on @p engine. */
    static accordion::manycore::ExecutionEstimate
    replay(const Call &call, const accordion::manycore::PerfModel &engine);

  private:
    using Key = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;
    static Key key(std::size_t cores, double f_hz, double seconds);

    const accordion::manycore::PerfModel *inner_;
    mutable std::mutex mutex_;
    mutable std::map<Key, Call> calls_; //!< guarded by mutex_
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
