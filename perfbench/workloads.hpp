/**
 * @file
 * The benchmark's workloads and the set-up they share. Each workload
 * is a closed loop with one client: main() calls run() for one timed
 * repetition, then check() outside the timed window, and only then
 * starts the next repetition.
 *
 *  - reproduce_all: every registered experiment in registry order
 *    through a fresh harness::RunContext, i.e. `accordion run all`.
 *  - chip_sweep: K chips from the set-up's ChipFactory, each with a
 *    fresh ParetoExtractor over the Analytic model computing the STV
 *    baseline and Safe/Speculative fronts of all six kernels.
 *  - event_fronts: the fig6/fig7 fronts of chip 0 under the BSP
 *    discrete-event engine.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/accordion.hpp"

namespace perfbench {

/** Inputs shared by every workload, made from the seed by set-up. */
struct Fixture
{
    std::uint64_t seed = 0;
    accordion::core::AccordionSystem::Config config;
    accordion::vartech::Technology tech =
        accordion::vartech::Technology::makeItrs11nm();
    std::unique_ptr<accordion::vartech::ChipFactory> factory;
    std::unique_ptr<accordion::vartech::VariationChip> chip0;
    std::unique_ptr<accordion::manycore::PowerModel> power;
    /** The six kernels in Table 3 order, and their profiles. */
    std::vector<const accordion::rms::Workload *> kernels;
    std::vector<const char *> labels; //!< interned kernel names
    std::vector<accordion::core::QualityProfile> profiles;
};

/**
 * Build the factory, chip 0, the power model and the six quality
 * profiles at @p seed. @p traced measures the profiles through the
 * TracedWorkload decorator (spans per kernel run).
 */
std::unique_ptr<Fixture> setUp(std::uint64_t seed, bool traced);

/** Bitwise fingerprint of a profile (all three curves and scalars). */
std::uint64_t digest(const accordion::core::QualityProfile &profile);

/** Bitwise fingerprint of a front. */
std::uint64_t digest(const std::vector<accordion::core::OperatingPoint> &front);

/** Baselines and fronts of every kernel on one chip. */
struct ChipFronts
{
    std::vector<accordion::core::StvBaseline> baselines; //!< per kernel
    /** Kernel-major: kernel k's Safe front at 2k, Speculative 2k+1. */
    std::vector<std::vector<accordion::core::OperatingPoint>> fronts;
    std::vector<double> extractMs; //!< per front
};

/** Fronts of every kernel on @p chip with a fresh extractor. */
ChipFronts computeFronts(const Fixture &fixture,
                         const accordion::vartech::VariationChip &chip,
                         const accordion::manycore::PerfModel &perf);

/**
 * Model accuracy, measured outside every timed window: chip 0's fig6
 * and fig7 fronts under the Analytic model every figure uses, each
 * point's estimate replayed on the BSP event engine; the median
 * |Analytic/BSP - 1| of execution time, in percent.
 */
struct EngineGap
{
    double gapPct = 0.0;
    std::size_t points = 0;
    std::size_t unmatched = 0; //!< points with no recorded estimate
};

EngineGap measureEngineGap(const Fixture &fixture);

/** One repetition: its timing, its outputs' fingerprints, checks. */
struct Rep
{
    double wallS = 0.0;
    std::vector<double> unitMs; //!< per unit of work
    std::size_t units = 0; //!< units attempted
    /** Output fingerprints, compared with the first rep's. */
    std::vector<std::uint64_t> digests;
    std::size_t failed = 0; //!< failed output checks
    /** Per-layer figures only the workload can see. */
    std::map<std::string, double> layer;

    // Inputs of the checks made after the timed window.
    std::string outDir;
    std::size_t sampledFront = 0; //!< kernel-major front index
    std::size_t sampledPoint = 0;
    std::vector<accordion::core::OperatingPoint> sampled;
};

/** A workload: timed repetitions plus their output checks. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One timed repetition; @p traced routes calls via decorators. */
    virtual Rep run(std::uint32_t index, bool traced) = 0;

    /** Checks outside the timed window; adds to rep.failed. */
    virtual void check(Rep &rep) = 0;
};

/** Run options main() hands to the workloads. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::size_t threads = 4;
    std::string root = "."; //!< checkout root (goldens)
    std::string outDir; //!< scratch output root
};

/** The named workload, or nullptr when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const Options &options,
                                       const Fixture &fixture);

/** Names makeWorkload() accepts. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
