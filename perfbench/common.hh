/**
 * @file
 * Shared pieces of the benchmark binary: run options, the result report
 * with its failure accounting, small statistics helpers, the logical
 * branch-stream fingerprint used as an output check, and store-directory
 * helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir/program.hh"
#include "opt/optimizer.hh"
#include "trace/engine.hh"
#include "workload/workload.hh"

namespace vp
{
struct VpResult;
namespace package
{
struct PackagedProgram;
}
} // namespace vp

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One benchmark run, as run.py passes it on the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;

    /** Directory for stores and other run files (removed by the
     *  caller); spans are written to spansPath when tracing. */
    std::string scratch;
    std::string spansPath;
};

/**
 * The run's result: metric values, operations attempted and failed, and
 * human-readable lines. finish() prints the lines, then the one-line
 * JSON result {"correct", "attempted", "failed", "values"}, and returns
 * the process exit code. Metric names and units live in BENCHMARK.json
 * only: run.py checks the names a run set, attaches the units, and fills
 * in the metrics the workload does not exercise.
 */
class Report
{
  public:
    /** Set metric @p name. */
    void
    set(std::string_view name, double value)
    {
        values_.insert_or_assign(std::string(name), value);
    }

    /** Count @p n attempted operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count @p n failed operations and say why. */
    void fail(std::uint64_t n, const std::string &why);

    /** Check @p ok as one attempted operation; a false one fails. */
    void check(bool ok, const std::string &what);

    /** Add a human-readable line to the output. */
    void note(const std::string &line);

    bool correct() const { return failed_ == 0; }

    /** Failed operations as a share of those attempted. */
    double
    failureRate() const
    {
        return attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
    }

    /** Print everything; @return 0 when every output check held. */
    int finish() const;

  private:
    std::map<std::string, double, std::less<>> values_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

double median(std::vector<double> v);

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank percentile (@p p in (0, 1]) of an integer sample. */
std::uint64_t percentile(std::vector<std::uint64_t> v, double p);

/** Return freed heap to the system and restart the peak resident set
 *  size from the current one, so that peakRssMb() covers only what runs
 *  after this call. @return false if the kernel refused the reset. */
bool resetPeakRss();

/** Peak resident set size of this process (VmHWM), in MB. */
double peakRssMb();

/**
 * Check that @p packaged retires the logical branch stream of @p w's
 * original program over the original's full run: every retired
 * conditional branch as (original behavior id, outcome in original-code
 * sense). Packaging clones branches and layout may invert their sense,
 * so a correct packaged program retires the same logical stream as the
 * original over the same branch count. @return true if it does.
 */
bool branchStreamPreserved(const vp::workload::Workload &w,
                           const vp::ir::Program &packaged);

/** Bundle images (.vpb files) under a store directory. */
struct StoreSize
{
    std::uint64_t images = 0;
    std::uint64_t bytes = 0;

    bool operator==(const StoreSize &) const = default;
};

StoreSize storeSize(const std::string &dir);

/** Shuffle 0..n-1 with @p seed (the only use of the workload seed). */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

class SpanLog;

/**
 * Work of the trace, hsd, region, package and opt layers summed over one
 * roster sweep of a traced run, and its report as per-layer metrics
 * (the layers' times come from the span log).
 */
struct StageTotals
{
    std::uint64_t bareInsts = 0;
    std::uint64_t traceInsts = 0;
    std::uint64_t traceBuilds = 0;

    std::uint64_t detections = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t rawRecords = 0;
    std::uint64_t records = 0;

    std::uint64_t selectedInsts = 0;
    std::uint64_t originalInsts = 0;
    std::uint64_t packages = 0;
    std::uint64_t links = 0;
    std::uint64_t launchPoints = 0;
    vp::opt::OptStats opt;

    /** Count a profiling run's detector and filter output. */
    void addProfile(const vp::VpResult &r);

    /** Count one packaged program and its optimization. */
    void addPackaged(const vp::package::PackagedProgram &p,
                     const vp::opt::OptStats &o);

    /** Run @p w's original program on the bare engine in a "trace.run"
     *  span: the trace layer alone, and the base hsd.self_s subtracts. */
    void bareRun(const vp::workload::Workload &w, SpanLog &spans);

    /** Set the trace, hsd, region, package and opt metrics;
     *  @p profiles_per_bare_run hsd.profile spans share each bare run. */
    void report(const SpanLog &spans, std::size_t profiles_per_bare_run,
                Report &rep) const;
};

/** The offline_eval workload; @p spans is null on an untraced run. */
void runOfflineEval(const Options &opt, Report &report, SpanLog *spans);

/** fleet_cold (@p warm false) or fleet_warm; @p spans as above. */
void runFleet(const Options &opt, bool warm, Report &report,
              SpanLog *spans);

/**
 * setup_s: the median of repeated set-ups. The first set-up runs before
 * the workload; the workload may take more between its passes (more()),
 * so that a burst of host interference skews few of them, and finish()
 * takes the rest.
 * @p setup(i) returns the seconds set-up i took, excluding its cleanup.
 */
class SetupSamples
{
  public:
    SetupSamples(std::size_t reps, std::function<double(std::size_t)> setup)
        : reps_(reps), setup_(std::move(setup))
    {
        more();
    }

    /** Set up once more, unless all reps are taken. */
    void
    more()
    {
        if (secs_.size() < reps_)
            secs_.push_back(setup_(secs_.size()));
    }

    /** Take the reps still missing. */
    void
    finish()
    {
        while (secs_.size() < reps_)
            more();
    }

    double median() const { return perfbench::median(secs_); }

  private:
    std::size_t reps_;
    std::function<double(std::size_t)> setup_;
    std::vector<double> secs_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
