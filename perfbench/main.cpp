/**
 * @file
 * Entry point of the repository benchmark. Usage:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--out-dir DIR]
 *
 * Set-up builds the shared fixture (chip factory, chip 0, power model,
 * six quality profiles) from the seed. A model-accuracy pass then
 * measures the Analytic-vs-BSP gap outside every timed window. The
 * workload runs timed repetitions for S seconds (at least one).
 *
 * --trace 0 prints the end-to-end metrics of an uninstrumented run.
 * --trace 1 splits S between uninstrumented reps and reps with the
 * stats registry, the span recorder and the decorators on, and prints
 * per-layer metrics; the spans go to a Chrome trace in the output
 * directory once the run ends.
 *
 * The last stdout line is the result JSON; the report is on stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stats.hpp"
#include "probes.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace ao = accordion::obs;
namespace au = accordion::util;

/** Experiments reported one by one (most of `run all`); the rest are
 *  summed as harness.exp.other_s. */
const char *const kHeavyExperiments[] = {
    "table3_characterization",      "fig2_fig4_quality_fronts",
    "sec62_error_model_validation", "comparison_baselines",
    "fig6_pareto_parsec",           "ext_weak_scaling",
    "ablation_cc_policy",
};

struct Args
{
    Options options;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "reproduce_all|chip_sweep|event_fronts --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--out-dir DIR]\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    args.options.outDir = ".bench_build/perfbench-out";
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " wants a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usage("--seed wants a non-negative integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0.0))
                usage("--seconds wants a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--root") {
            args.options.root = value;
        } else if (flag == "--out-dir") {
            args.options.outDir = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!have_workload || !have_seed)
        usage("--workload and --seed are required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.options.workload) ==
        names.end())
        usage("unknown workload " + args.options.workload);
    return args;
}

double
quantile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return ao::sortedQuantile(values, p);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Sum of the counters whose names start and end as given. */
double
counterSum(const std::vector<ao::StatEntry> &stats, const std::string &prefix,
           const std::string &suffix = "")
{
    double sum = 0.0;
    for (const ao::StatEntry &e : stats) {
        if (e.kind != ao::StatKind::Counter ||
            e.name.compare(0, prefix.size(), prefix) != 0 ||
            e.name.size() < prefix.size() + suffix.size() ||
            e.name.compare(e.name.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
            continue;
        sum += static_cast<double>(e.count);
    }
    return sum;
}

/** The named distribution; an empty one when it never registered. */
ao::StatEntry
distribution(const std::vector<ao::StatEntry> &stats, const std::string &name)
{
    for (const ao::StatEntry &e : stats)
        if (e.name == name && e.kind == ao::StatKind::Distribution)
            return e;
    return {};
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Per-layer metrics of the traced reps (and the traced set-up). */
std::vector<Metric>
layerMetrics(const std::vector<Rep> &traced_reps,
             const std::vector<Rep> &plain_reps,
             const std::vector<ao::StatEntry> &stats,
             const std::vector<Span> &spans, std::size_t workers)
{
    const double n = static_cast<double>(traced_reps.size());
    std::vector<Metric> out;
    auto add = [&](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };
    std::vector<double> traced_wall;
    for (const Rep &r : traced_reps)
        traced_wall.push_back(r.wallS);
    std::vector<double> plain_wall;
    for (const Rep &r : plain_reps)
        plain_wall.push_back(r.wallS);
    const double wall = quantile(traced_wall, 50.0);
    double wall_sum = 0.0;
    for (double w : traced_wall)
        wall_sum += w;

    // Harness: experiment spans by name, per rep.
    double other = 0.0;
    std::vector<double> heavy(std::size(kHeavyExperiments), 0.0);
    for (const Span &s : spans) {
        if (s.rep == 0 || s.layer != Layer::Harness)
            continue;
        const double sec = static_cast<double>(s.t1 - s.t0) * 1e-9;
        std::size_t i = 0;
        while (i < heavy.size() &&
               std::string(s.label) != kHeavyExperiments[i])
            ++i;
        (i < heavy.size() ? heavy[i] : other) += sec;
    }
    for (std::size_t i = 0; i < heavy.size(); ++i)
        add(std::string("harness.exp.") + kHeavyExperiments[i] + "_s",
            heavy[i] / n, "s");
    add("harness.exp.other_s", other / n, "s");
    add("harness.syscache_builds", counterSum(stats, "syscache.misses") / n,
        "count");
    add("harness.syscache_hits", counterSum(stats, "syscache.hits") / n,
        "count");
    double layer_extra[3] = {0.0, 0.0, 0.0};
    for (const Rep &r : traced_reps) {
        auto get = [&](const char *key) {
            const auto it = r.layer.find(key);
            return it == r.layer.end() ? 0.0 : it->second;
        };
        layer_extra[0] += get("harness.output_bytes");
        layer_extra[1] += get("pareto.feasible_points");
        layer_extra[2] += get("pareto.front_points");
    }
    add("harness.output_bytes", layer_extra[0] / n, "bytes");

    // Quality profiles measured inside the reps (registry).
    add("quality.profiles", counterSum(stats, "quality.profiles") / n,
        "count");
    add("quality.kernel_runs", counterSum(stats, "quality.kernel_runs") / n,
        "count");
    add("quality.measure_s",
        distribution(stats, "time.quality.measure_ns").sum * 1e-9 / n, "s");

    // RMS kernel runs of the traced set-up (decorated kernels).
    double reference_s = 0.0;
    double faulted = 0.0;
    for (const char *kernel :
         {"canneal", "ferret", "bodytrack", "x264", "hotspot", "srad"}) {
        double runs = 0.0;
        double busy = 0.0;
        for (const Span &s : spans) {
            if (s.rep != 0 || s.layer != Layer::Rms ||
                std::string(s.label) != kernel)
                continue;
            runs += 1.0;
            busy += static_cast<double>(s.t1 - s.t0) * 1e-9;
        }
        add(std::string("rms.") + kernel + ".runs", runs, "count");
        add(std::string("rms.") + kernel + ".busy_s", busy, "s");
    }
    for (const Span &s : spans) {
        if (s.rep != 0 || s.layer != Layer::Rms)
            continue;
        if (std::string(s.name) == "reference_run")
            reference_s += static_cast<double>(s.t1 - s.t0) * 1e-9;
        if (std::string(s.name) == "faulted_run")
            faulted += 1.0;
    }
    add("rms.reference_s", reference_s, "s");
    add("rms.faulted_runs", faulted, "count");

    // Thread pool: worker busy time inside the traced reps.
    const double busy = counterSum(stats, "pool.worker", ".busy_ns") * 1e-9;
    const double capacity = static_cast<double>(workers) * wall_sum;
    add("pool.busy_s", busy / n, "s");
    add("pool.idle_s", std::max(0.0, capacity - busy) / n, "s");
    add("pool.utilization", capacity > 0.0 ? busy / capacity : 0.0,
        "ratio");

    add("vartech.chips", counterSum(stats, "chip.manufactured") / n,
        "count");
    add("vartech.manufacture_ms_p50",
        distribution(stats, "time.chip.manufacture_ns").p50() * 1e-6, "ms");

    // Pareto: registry counts plus the benchmark's own spans.
    std::vector<double> baseline_ms;
    std::vector<double> estimate_us;
    double extracts_spanned = 0.0;
    double estimate_s = 0.0;
    for (const Span &s : spans) {
        if (s.rep == 0)
            continue;
        const double ns = static_cast<double>(s.t1 - s.t0);
        const std::string name = s.name;
        if (name == "baseline")
            baseline_ms.push_back(ns * 1e-6);
        else if (name == "extract")
            extracts_spanned += 1.0;
        else if (name == "estimate") {
            estimate_us.push_back(ns * 1e-3);
            estimate_s += ns * 1e-9;
        }
    }
    add("pareto.extracts", counterSum(stats, "pareto.extracts") / n,
        "count");
    add("pareto.points", counterSum(stats, "pareto.points") / n, "count");
    add("pareto.feasible_ratio",
        layer_extra[2] > 0.0 ? layer_extra[1] / layer_extra[2] : 0.0,
        "ratio");
    add("pareto.extract_ms_p50",
        distribution(stats, "time.pareto.extract_ns").p50() * 1e-6, "ms");
    add("pareto.baseline_ms_p50",
        baseline_ms.empty() ? 0.0 : quantile(baseline_ms, 50.0), "ms");

    // Manycore: decorator spans, then the engine's own counters.
    const double estimates = static_cast<double>(estimate_us.size());
    add("manycore.estimates", estimates / n, "count");
    add("manycore.estimates_per_extract",
        extracts_spanned > 0.0 ? estimates / extracts_spanned : 0.0,
        "count");
    add("manycore.estimate_us_p50",
        estimate_us.empty() ? 0.0 : quantile(estimate_us, 50.0), "us");
    add("manycore.estimate_s", estimate_s / n, "s");
    add("manycore.epochs", counterSum(stats, "manycore.epochs") / n,
        "count");
    add("manycore.cross_cluster_msgs",
        counterSum(stats, "manycore.cross_cluster_msgs") / n, "count");
    add("manycore.barrier_wait_s",
        counterSum(stats, "manycore.partition", ".barrier_wait_ns") * 1e-9 /
            n,
        "s");
    add("manycore.heap_advance_s",
        counterSum(stats, "manycore.partition", ".heap_advance_ns") * 1e-9 /
            n,
        "s");
    add("manycore.mailbox_merge_s",
        counterSum(stats, "manycore.partition", ".mailbox_merge_ns") *
            1e-9 / n,
        "s");

    const LayerReport layers = analyzeLayers(spans);
    for (std::size_t l = 0; l < kLayers; ++l)
        add(std::string("self_s.") + layerName(static_cast<Layer>(l)),
            layers.selfSeconds[l] / n, "s");
    add("trace.coverage_pct", 100.0 * layers.coverage, "%");
    add("obs.trace_overhead_pct",
        100.0 * (wall / quantile(plain_wall, 50.0) - 1.0), "%");
    return out;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            ao::jsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Options &options = args.options;
    // The pool `accordion run all` gets on the reference box: one
    // worker per core, at most four.
    options.threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    const std::size_t threads = options.threads;
    au::setVerbose(false);
    au::ThreadPool::setGlobalThreads(threads);
    Tracer &tracer = Tracer::instance();
    tracer.bindMainThread();
    std::filesystem::create_directories(options.outDir);

    std::size_t failed = 0;

    // Set-up, several times so its median is steady; the last copy
    // serves the run. Profiles must repeat bit for bit, decorated or
    // not (the traced run decorates its last set-up).
    const std::size_t setups = args.trace ? 2 : 3;
    std::vector<double> setup_s;
    std::vector<std::uint64_t> first_profiles;
    std::unique_ptr<Fixture> fixture;
    for (std::size_t s = 0; s < setups; ++s) {
        const bool traced = args.trace && s + 1 == setups;
        tracer.setRep(0);
        tracer.setEnabled(traced);
        const std::int64_t t0 = nowNs();
        fixture = setUp(options.seed, traced);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        tracer.setEnabled(false);
        std::vector<std::uint64_t> profiles;
        for (const auto &p : fixture->profiles)
            profiles.push_back(digest(p));
        if (s == 0)
            first_profiles = profiles;
        else if (profiles != first_profiles)
            ++failed;
    }

    const std::int64_t gap_t0 = nowNs();
    const EngineGap gap = measureEngineGap(*fixture);
    std::fprintf(stderr, "perfbench: engine-gap pass %.2f s\n",
                 static_cast<double>(nowNs() - gap_t0) * 1e-9);
    failed += gap.unmatched + (gap.points == 0 ? 1 : 0);
    const auto workload = makeWorkload(options, *fixture);

    // Timed reps: closed loop, one rep at a time, checks in between
    // (outside the timed window) for the uninstrumented phase.
    auto runPhase = [&](bool traced, double budget, std::vector<Rep> *reps,
                        std::uint32_t *next) {
        double spent = 0.0;
        do {
            tracer.setRep(traced ? static_cast<std::uint32_t>(
                                       reps->size() + 1)
                                 : 0);
            Rep rep = workload->run((*next)++, traced);
            spent += rep.wallS;
            if (!traced)
                workload->check(rep);
            reps->push_back(std::move(rep));
        } while (spent < budget);
    };

    std::uint32_t next_index = 0;
    std::vector<Rep> plain;
    runPhase(false, args.trace ? args.seconds / 2 : args.seconds, &plain,
             &next_index);

    std::vector<Rep> traced;
    std::vector<ao::StatEntry> stats;
    std::vector<Span> spans;
    if (args.trace) {
        ao::StatsRegistry &registry = ao::StatsRegistry::global();
        registry.setEnabled(true);
        // Rebuilt so the workers bind live busy/idle counters.
        au::ThreadPool::setGlobalThreads(threads);
        registry.reset();
        tracer.setEnabled(true);
        runPhase(true, args.seconds / 2, &traced, &next_index);
        tracer.setEnabled(false);
        stats = registry.snapshot();
        registry.setEnabled(false);
        // Workers hold handles into the registry's cells; rebuild the
        // pool without them so no worker outlives the cells at exit.
        au::ThreadPool::setGlobalThreads(threads);
        // Checks of traced reps wait until the registry is read, so
        // their extra extractions do not count as rep work.
        for (Rep &rep : traced)
            workload->check(rep);
        spans = tracer.collect();
    }

    // Every rep's outputs match the first rep's, traced or not.
    std::size_t attempted = 0;
    const auto &want = plain.front().digests;
    for (const std::vector<Rep> *phase : {&plain, &traced}) {
        for (const Rep &r : *phase) {
            attempted += r.units;
            failed += r.failed;
            if (r.digests.size() != want.size()) {
                failed += r.units;
                continue;
            }
            for (std::size_t i = 0; i < want.size(); ++i)
                failed += r.digests[i] != want[i] ? 1 : 0;
        }
    }

    std::vector<double> wall;
    std::vector<double> unit_ms;
    for (const Rep &r : plain) {
        wall.push_back(r.wallS);
        unit_ms.insert(unit_ms.end(), r.unitMs.begin(), r.unitMs.end());
    }
    std::fprintf(stderr,
                 "perfbench %s seed=%llu threads=%zu: %zu reps, wall_s "
                 "p25/p50/p75 = %.4f/%.4f/%.4f; %zu units, unit_ms "
                 "p50/p95 = %.4f/%.4f (%zu samples beyond p95); set-up "
                 "%zu x, median %.4f s; engine gap %.4f%% over %zu "
                 "points; failed %zu of %zu (failed_frac %.6f)\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed), threads,
                 plain.size(), quantile(wall, 25.0), quantile(wall, 50.0),
                 quantile(wall, 75.0), unit_ms.size(),
                 quantile(unit_ms, 50.0), quantile(unit_ms, 95.0),
                 unit_ms.size() / 20, setups, quantile(setup_s, 50.0),
                 gap.gapPct, gap.points, failed, attempted,
                 attempted ? static_cast<double>(failed) /
                         static_cast<double>(attempted)
                           : 0.0);

    if (plain.front().unitMs.size() <= 24) {
        std::fprintf(stderr, "perfbench: first rep, ms per unit:");
        for (double ms : plain.front().unitMs)
            std::fprintf(stderr, " %.1f", ms);
        std::fprintf(stderr, "\n");
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", quantile(wall, 50.0), "s"},
            {"setup_s", quantile(setup_s, 50.0), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"engine_gap_pct", gap.gapPct, "%"},
        };
    } else {
        metrics = {{"unit_ms_p50", quantile(unit_ms, 50.0), "ms"},
                   {"unit_ms_p95", quantile(unit_ms, 95.0), "ms"}};
        for (Metric &m : layerMetrics(traced, plain, stats, spans, threads))
            metrics.push_back(std::move(m));
        const std::string path = options.outDir + "/trace-" +
            options.workload + "-" + std::to_string(options.seed) +
            ".json";
        const std::size_t written = writeChromeTrace(path, spans, 50000);
        std::fprintf(stderr, "perfbench: %zu of %zu spans -> %s\n", written,
                     spans.size(), path.c_str());
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
