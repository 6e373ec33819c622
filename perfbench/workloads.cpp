#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>

#include "harness/experiment.hpp"
#include "harness/run_context.hpp"
#include "harness/silencer.hpp"
#include "manycore/bsp_engine.hpp"
#include "obs/stats.hpp"
#include "probes.hpp"
#include "rms/workload.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace ac = accordion::core;
namespace am = accordion::manycore;
namespace ah = accordion::harness;
namespace ar = accordion::rms;
namespace au = accordion::util;
namespace av = accordion::vartech;
namespace fs = std::filesystem;

namespace {

/** FNV-1a over the exact bytes of every value fed to it. */
class Fingerprint
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ull;
        }
    }

    void real(double v) { bytes(&v, sizeof v); }
    void count(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    reals(const std::vector<double> &v)
    {
        count(v.size());
        bytes(v.data(), v.size() * sizeof(double));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

std::string
readFile(const fs::path &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    *ok = static_cast<bool>(in);
    return text.str();
}

/** Decorator per kernel, built once; profiles keep no reference. */
const ar::Workload &
tracedKernel(const ar::Workload &kernel)
{
    static const std::vector<std::unique_ptr<TracedWorkload>> decorated =
        [] {
            std::vector<std::unique_ptr<TracedWorkload>> all;
            for (const ar::Workload *w : ar::allWorkloads())
                all.push_back(std::make_unique<TracedWorkload>(*w));
            return all;
        }();
    const auto &kernels = ar::allWorkloads();
    const auto it = std::find(kernels.begin(), kernels.end(), &kernel);
    return *decorated[static_cast<std::size_t>(it - kernels.begin())];
}

/** Front points and feasible points, for pareto.feasible_ratio. */
struct Feasibility
{
    double points = 0.0;
    double feasible = 0.0;

    void
    add(const ChipFronts &fronts)
    {
        for (const auto &front : fronts.fronts)
            for (const ac::OperatingPoint &p : front) {
                points += 1.0;
                feasible += p.feasible ? 1.0 : 0.0;
            }
    }

    void
    store(Rep &rep) const
    {
        rep.layer["pareto.front_points"] += points;
        rep.layer["pareto.feasible_points"] += feasible;
    }
};

/** A front is usable: points exist and every time is finite. */
bool
sane(const ChipFronts &fronts)
{
    for (const auto &front : fronts.fronts) {
        if (front.empty())
            return false;
        for (const ac::OperatingPoint &p : front)
            if (!std::isfinite(p.execSeconds) || p.execSeconds <= 0.0 ||
                !std::isfinite(p.mipsPerWatt))
                return false;
    }
    return true;
}

/** `accordion run all`, one fresh RunContext and output dir per rep. */
class ReproduceAll final : public Workload
{
  public:
    explicit ReproduceAll(const Options &options)
        : options_(options),
          experiments_(ah::Registry::instance().all())
    {
        for (const ah::Experiment *e : experiments_)
            labels_.push_back(Tracer::instance().intern(e->name()));
    }

    Rep
    run(std::uint32_t index, bool /*traced*/) override
    {
        Rep rep;
        rep.units = experiments_.size();
        rep.outDir = options_.outDir + "/rep-" + std::to_string(index);
        fs::remove_all(rep.outDir);

        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span(Layer::Bench, "rep");
            // The experiments print their tables; stdout carries only
            // the benchmark's result line.
            ah::StdoutSilencer quiet;
            ah::RunContext::Options run;
            run.seed = options_.seed;
            run.outDir = rep.outDir;
            ah::RunContext ctx(run);
            for (std::size_t i = 0; i < experiments_.size(); ++i) {
                const std::int64_t u0 = nowNs();
                try {
                    ScopedSpan exp(Layer::Harness, "experiment",
                                   labels_[i]);
                    experiments_[i]->run(ctx);
                } catch (const std::exception &) {
                    ++rep.failed;
                }
                rep.unitMs.push_back(static_cast<double>(nowNs() - u0) *
                                     1e-6);
            }
        }
        rep.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
        return rep;
    }

    void
    check(Rep &rep) override
    {
        std::vector<fs::path> files;
        std::error_code missing;
        for (const auto &entry : fs::directory_iterator(rep.outDir, missing))
            if (entry.is_regular_file())
                files.push_back(entry.path());
        rep.failed += missing ? 1 : 0;
        std::sort(files.begin(), files.end());
        double bytes = 0.0;
        for (const fs::path &file : files) {
            bool ok = false;
            const std::string content = readFile(file, &ok);
            const std::string name = file.filename().string();
            Fingerprint fp;
            fp.bytes(name.data(), name.size());
            fp.bytes(content.data(), content.size());
            rep.digests.push_back(fp.value());
            rep.failed += ok ? 0 : 1;
            bytes += static_cast<double>(content.size());
            if (name == "fig6_pareto.csv" || name == "fig7_pareto.csv")
                tallyCsvFeasible(content, rep);
        }
        rep.layer["harness.output_bytes"] = bytes;

        // The goldens were recorded at the harness default seed.
        if (options_.seed == 12345) {
            for (const char *name :
                 {"fig6_pareto.csv", "fig7_pareto.csv",
                  "table3_characterization.csv"}) {
                bool got = false;
                bool want = false;
                const std::string a =
                    readFile(fs::path(rep.outDir) / name, &got);
                const std::string b = readFile(
                    fs::path(options_.root) / "tests/golden/harness" / name,
                    &want);
                if (!got || !want || a != b)
                    ++rep.failed;
            }
        }
        fs::remove_all(rep.outDir);
    }

  private:
    /** Count rows and feasible rows of a fig6/fig7 front CSV. */
    static void
    tallyCsvFeasible(const std::string &csv, Rep &rep)
    {
        Feasibility tally;
        std::istringstream lines(csv);
        std::string line;
        std::getline(lines, line); // header; "feasible" is column 11
        while (std::getline(lines, line)) {
            std::size_t pos = 0;
            for (int comma = 0; comma < 10 && pos != std::string::npos;
                 ++comma)
                pos = line.find(',', pos + 1);
            tally.points += 1.0;
            if (pos != std::string::npos && line.compare(pos, 3, ",1,") == 0)
                tally.feasible += 1.0;
        }
        tally.store(rep);
    }

    Options options_;
    std::vector<const ah::Experiment *> experiments_;
    std::vector<const char *> labels_;
};

/**
 * Monte Carlo design-space sweep over chips of one factory. Each rep
 * fans its chips out over the pool, one task per chip, as a Monte
 * Carlo sweep does: the extractor's own parallelFor then runs inline
 * on the worker, and the client thread only waits. (Run from the
 * client, every extract would wake the pool for ten-odd microsecond
 * tasks; on the reference VM those wake-ups made the rep time swing
 * threefold from run to run.)
 */
class ChipSweep final : public Workload
{
  public:
    /** Chips per rep: enough that p95 has >= 10 samples beyond it. */
    static constexpr std::size_t kChips = 200;

    explicit ChipSweep(const Fixture &fixture) : fixture_(fixture) {}

    Rep
    run(std::uint32_t /*index*/, bool traced) override
    {
        Rep rep;
        rep.units = kChips;
        rep.unitMs.resize(kChips);
        rep.digests.resize(kChips);
        std::vector<char> usable(kChips, 0);
        std::vector<Feasibility> feasibility(kChips);
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span(Layer::Bench, "rep");
            const am::AnalyticPerfModel analytic(fixture_.config.memory);
            const TracedPerfModel decorated(analytic);
            const am::PerfModel &perf = traced
                ? static_cast<const am::PerfModel &>(decorated)
                : analytic;
            // Every task writes only its own chip's slots.
            std::vector<std::future<void>> chips;
            chips.reserve(kChips);
            for (std::size_t id = 0; id < kChips; ++id)
                chips.push_back(au::ThreadPool::global().submit([&, id] {
                    const std::int64_t u0 = nowNs();
                    {
                        ScopedSpan unit(Layer::Bench, "chip");
                        const av::VariationChip chip = [&] {
                            ScopedSpan s(Layer::Vartech, "manufacture");
                            return fixture_.factory->make(id);
                        }();
                        const ChipFronts fronts =
                            computeFronts(fixture_, chip, perf);
                        Fingerprint fp;
                        for (const auto &front : fronts.fronts)
                            fp.count(digest(front));
                        rep.digests[id] = fp.value();
                        usable[id] = sane(fronts);
                        feasibility[id].add(fronts);
                    }
                    rep.unitMs[id] =
                        static_cast<double>(nowNs() - u0) * 1e-6;
                }));
            for (std::future<void> &chip : chips)
                chip.get();
        }
        rep.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
        for (std::size_t id = 0; id < kChips; ++id) {
            rep.failed += usable[id] ? 0 : 1;
            feasibility[id].store(rep);
        }
        return rep;
    }

    void check(Rep &) override {}

  private:
    const Fixture &fixture_;
};

/** fig6/fig7 fronts of chip 0 under the BSP discrete-event engine. */
class EventFronts final : public Workload
{
  public:
    EventFronts(const Options &options, const Fixture &fixture)
        : options_(options), fixture_(fixture)
    {
    }

    Rep
    run(std::uint32_t index, bool traced) override
    {
        Rep rep;
        ChipFronts fronts;
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span(Layer::Bench, "rep");
            const am::BspPerfModel bsp(fixture_.config.memory,
                                       options_.threads);
            const TracedPerfModel decorated(bsp);
            const am::PerfModel &perf = traced
                ? static_cast<const am::PerfModel &>(decorated)
                : bsp;
            fronts = computeFronts(fixture_, *fixture_.chip0, perf);
        }
        rep.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
        rep.units = fronts.fronts.size();
        rep.unitMs = fronts.extractMs;
        for (const auto &front : fronts.fronts)
            rep.digests.push_back(digest(front));
        rep.failed += sane(fronts) ? 0 : 1;
        Feasibility feasibility;
        feasibility.add(fronts);
        feasibility.store(rep);
        rep.sampledFront =
            static_cast<std::size_t>((options_.seed + index) %
                                     fronts.fronts.size());
        rep.sampled = fronts.fronts[rep.sampledFront];
        rep.sampledPoint = static_cast<std::size_t>(
            (options_.seed / fronts.fronts.size() + index) %
            rep.sampled.size());
        return rep;
    }

    void
    check(Rep &rep) override
    {
        // One sampled point must be bit for bit what the serial event
        // engine computes. (A whole canneal front takes the serial
        // engine tens of seconds; one point at most a few.)
        const am::EventDrivenPerfModel serial(fixture_.config.memory);
        const ac::ParetoExtractor extractor(*fixture_.chip0,
                                            *fixture_.power, serial,
                                            fixture_.config.pareto);
        const std::size_t k = rep.sampledFront / 2;
        const ac::Flavor flavor = rep.sampledFront % 2 == 0
            ? ac::Flavor::Safe
            : ac::Flavor::Speculative;
        const ar::Workload &kernel = *fixture_.kernels[k];
        const ac::QualityProfile &profile = fixture_.profiles[k];
        const ac::OperatingPoint &want = rep.sampled[rep.sampledPoint];
        const ac::OperatingPoint got = extractor.evaluateAt(
            kernel, profile, flavor, want.psRatio,
            extractor.baseline(kernel, profile));
        if (digest({got}) != digest({want}))
            ++rep.failed;
        rep.sampled.clear();
    }

  private:
    Options options_;
    const Fixture &fixture_;
};

} // namespace

std::unique_ptr<Fixture>
setUp(std::uint64_t seed, bool traced)
{
    auto fixture = std::make_unique<Fixture>();
    ScopedSpan span(Layer::Bench, "setup");
    fixture->seed = seed;
    fixture->config.seed = seed;
    {
        ScopedSpan s(Layer::Vartech, "factory");
        fixture->factory = std::make_unique<av::ChipFactory>(
            fixture->tech, fixture->config.factory, seed);
    }
    {
        ScopedSpan s(Layer::Vartech, "manufacture");
        fixture->chip0 = std::make_unique<av::VariationChip>(
            fixture->factory->make(fixture->config.chipId));
    }
    fixture->power = std::make_unique<am::PowerModel>(fixture->tech,
                                                      fixture->config.power);
    for (const ar::Workload *kernel : ar::allWorkloads()) {
        const char *label = Tracer::instance().intern(kernel->name());
        fixture->kernels.push_back(kernel);
        fixture->labels.push_back(label);
        ScopedSpan s(Layer::Quality, "profile", label);
        fixture->profiles.push_back(ac::QualityProfile::measure(
            traced ? tracedKernel(*kernel) : *kernel, seed));
    }
    return fixture;
}

std::uint64_t
digest(const ac::QualityProfile &profile)
{
    Fingerprint fp;
    for (const ac::ProfileCurve *curve :
         {&profile.defaultCurve(), &profile.dropQuarterCurve(),
          &profile.dropHalfCurve()}) {
        fp.reals(curve->psRatio);
        fp.reals(curve->qRatio);
    }
    fp.real(profile.defaultProblemSize());
    fp.real(profile.defaultQuality());
    fp.real(profile.defaultInstrPerTask());
    fp.count(profile.threads());
    return fp.value();
}

std::uint64_t
digest(const std::vector<ac::OperatingPoint> &front)
{
    Fingerprint fp;
    fp.count(front.size());
    for (const ac::OperatingPoint &p : front) {
        for (double v : {p.psRatio, p.fHz, p.perr, p.dropFraction,
                         p.execSeconds, p.powerW, p.mips, p.mipsPerWatt,
                         p.qualityRatio})
            fp.real(v);
        fp.count(p.n);
        fp.count(static_cast<std::uint64_t>(p.flavor));
        fp.count(static_cast<std::uint64_t>(p.sizeMode));
        fp.count(p.withinBudget);
        fp.count(p.feasible);
    }
    return fp.value();
}

ChipFronts
computeFronts(const Fixture &fixture, const av::VariationChip &chip,
              const am::PerfModel &perf)
{
    const ac::ParetoExtractor extractor = [&] {
        ScopedSpan s(Layer::Pareto, "extractor");
        return ac::ParetoExtractor(chip, *fixture.power, perf,
                                   fixture.config.pareto);
    }();
    ChipFronts out;
    for (std::size_t k = 0; k < fixture.kernels.size(); ++k) {
        const ar::Workload &kernel = *fixture.kernels[k];
        const ac::QualityProfile &profile = fixture.profiles[k];
        {
            ScopedSpan s(Layer::Pareto, "baseline", fixture.labels[k]);
            out.baselines.push_back(extractor.baseline(kernel, profile));
        }
        for (ac::Flavor flavor :
             {ac::Flavor::Safe, ac::Flavor::Speculative}) {
            const std::int64_t t0 = nowNs();
            {
                ScopedSpan s(Layer::Pareto, "extract", fixture.labels[k]);
                out.fronts.push_back(
                    extractor.extract(kernel, profile, flavor));
            }
            out.extractMs.push_back(static_cast<double>(nowNs() - t0) *
                                    1e-6);
        }
    }
    return out;
}

EngineGap
measureEngineGap(const Fixture &fixture)
{
    const am::AnalyticPerfModel analytic(fixture.config.memory);
    const RecordingPerfModel recorder(analytic);
    // A team of one: BSP results are bit-identical at any team size.
    const am::BspPerfModel bsp(fixture.config.memory, 1);
    EngineGap gap;
    const ChipFronts fronts =
        computeFronts(fixture, *fixture.chip0, recorder);
    std::vector<double> errors;
    for (const auto &front : fronts.fronts) {
        for (const ac::OperatingPoint &p : front) {
            const RecordingPerfModel::Call *call =
                recorder.find(p.n, p.fHz, p.execSeconds);
            if (!call) {
                ++gap.unmatched;
                continue;
            }
            const double bsp_seconds =
                RecordingPerfModel::replay(*call, bsp).seconds;
            errors.push_back(std::fabs(p.execSeconds / bsp_seconds - 1.0));
        }
    }
    gap.points = errors.size();
    std::sort(errors.begin(), errors.end());
    gap.gapPct = 100.0 * accordion::obs::sortedQuantile(errors, 50.0);
    return gap;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "reproduce_all", "chip_sweep", "event_fronts"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, const Fixture &fixture)
{
    if (options.workload == "reproduce_all")
        return std::make_unique<ReproduceAll>(options);
    if (options.workload == "chip_sweep")
        return std::make_unique<ChipSweep>(fixture);
    if (options.workload == "event_fronts")
        return std::make_unique<EventFronts>(options, fixture);
    return nullptr;
}

} // namespace perfbench
