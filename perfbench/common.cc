#include "common.hh"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <random>

#include "package/packager.hh"
#include "spans.hh"
#include "support/saturating.hh"
#include "vp/pipeline.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Report::fail(std::uint64_t n, const std::string &why)
{
    if (n == 0)
        return;
    failed_ += n;
    notes_.push_back(format("FAIL (%llu): %s",
                            static_cast<unsigned long long>(n), why.c_str()));
}

void
Report::check(bool ok, const std::string &what)
{
    attempt();
    if (!ok)
        fail(1, what);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

int
Report::finish() const
{
    for (const std::string &line : notes_)
        std::printf("# %s\n", line.c_str());
    std::string values;
    for (const auto &[name, v] : values_)
        values += format("%s\"%s\": %.17g", values.empty() ? "" : ", ",
                         name.c_str(), v);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"values\": {%s}}\n",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(attempted_, 1)),
                static_cast<unsigned long long>(failed_), values.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
percentile(std::vector<std::uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

bool
resetPeakRss()
{
    malloc_trim(0);
    // "5" resets VmHWM to the current resident set size (Linux >= 4.0).
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    unsigned long kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

namespace
{

/** A run's logical branch stream, FNV-folded, and its length. */
struct StreamPrint
{
    std::uint64_t branches = 0;
    std::uint64_t hash = 0;

    bool operator==(const StreamPrint &) const = default;
};

/** FNV-1a fold of (behavior, logical outcome) per conditional branch —
 *  the tiering test's stream fingerprint. */
class BranchStreamSink final : public vp::trace::InstSink
{
  public:
    void
    onRetire(const vp::trace::RetiredInst &ri) override
    {
        ++print_.branches;
        const bool outcome = ri.branchTaken ^ ri.inst->invertSense;
        print_.hash = (print_.hash ^ (ri.inst->behavior * 2 + outcome)) *
                      1099511628211ull;
    }

    unsigned eventMask() const override { return vp::trace::kEventBranches; }

    const StreamPrint &print() const { return print_; }

  private:
    StreamPrint print_{0, 1469598103934665603ull};
};

/** Run @p prog over @p w's oracle and fingerprint its branch stream. */
StreamPrint
streamPrint(const vp::workload::Workload &w, const vp::ir::Program &prog,
            std::uint64_t max_insts, std::uint64_t max_branches)
{
    vp::trace::ExecutionEngine engine(prog, w);
    BranchStreamSink sink;
    engine.addSink(&sink);
    engine.run(max_insts, max_branches);
    return sink.print();
}

} // namespace

bool
branchStreamPreserved(const vp::workload::Workload &w,
                      const vp::ir::Program &packaged)
{
    const StreamPrint orig = streamPrint(
        w, w.program, w.maxDynInsts,
        std::numeric_limits<std::uint64_t>::max());
    // Equal logical work: the packaged program runs to the original's
    // branch count (it retires fewer instructions to get there).
    const StreamPrint pkg = streamPrint(
        w, packaged, vp::satMul(w.maxDynInsts, 2), orig.branches);
    return orig == pkg;
}

StoreSize
storeSize(const std::string &dir)
{
    namespace fs = std::filesystem;
    StoreSize s;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file() && it->path().extension() == ".vpb") {
            ++s.images;
            s.bytes += it->file_size();
        }
    }
    return s;
}

void
StageTotals::addProfile(const vp::VpResult &r)
{
    detections += r.hsdStats.detections();
    suppressed += r.hsdStats.suppressed;
    rawRecords += r.rawRecords.size();
    records += r.records.size();
}

void
StageTotals::addPackaged(const vp::package::PackagedProgram &p,
                         const vp::opt::OptStats &o)
{
    selectedInsts += p.selectedOrigInsts;
    originalInsts += p.originalInsts;
    packages += p.packages.size();
    links += p.numLinks;
    launchPoints += p.numLaunchPoints;
    opt.loopsUnrolled += o.loopsUnrolled;
    opt.instsSunk += o.instsSunk;
    opt.deadRemoved += o.deadRemoved;
    opt.blocksMerged += o.blocksMerged;
    opt.flippedBranches += o.flippedBranches;
    opt.jumpsRemoved += o.jumpsRemoved;
    opt.blocksScheduled += o.blocksScheduled;
    opt.instsMoved += o.instsMoved;
    opt.functionsOptimized += o.functionsOptimized;
}

void
StageTotals::bareRun(const vp::workload::Workload &w, SpanLog &spans)
{
    SpanLog::Scope s(spans, "trace.run", w.label());
    vp::trace::ExecutionEngine engine(w.program, w);
    bareInsts += engine.run(w.maxDynInsts).dynInsts;
    traceInsts += engine.traceStats().insts;
    traceBuilds += engine.traceStats().builds;
}

void
StageTotals::report(const SpanLog &spans, std::size_t profiles_per_bare_run,
                    Report &rep) const
{
    const double traceS = spans.selfSeconds("trace.run");
    const double profileS = spans.selfSeconds("hsd.profile");
    rep.set("trace.run_s", traceS);
    rep.set("trace.minst_per_s", ratio(bareInsts / 1e6, traceS));
    rep.set("trace.trace_cov", ratio(traceInsts, bareInsts));
    rep.set("trace.trace_builds", traceBuilds);
    rep.set("hsd.profile_s", profileS);
    rep.set("hsd.self_s", profileS - profiles_per_bare_run * traceS);
    rep.set("hsd.detections", detections);
    rep.set("hsd.suppressed", suppressed);
    rep.set("hsd.filter_keep", ratio(records, rawRecords));
    rep.set("region.identify_s", spans.selfSeconds("region.identify"));
    rep.set("region.selected_frac", ratio(selectedInsts, originalInsts));
    rep.set("package.build_s", spans.selfSeconds("package.build"));
    rep.set("package.packages", packages);
    rep.set("package.links", links);
    rep.set("package.launch_points", launchPoints);
    rep.set("opt.optimize_s", spans.selfSeconds("opt.optimize"));
    rep.set("opt.loops_unrolled", opt.loopsUnrolled);
    rep.set("opt.insts_sunk", opt.instsSunk);
    rep.set("opt.dead_removed", opt.deadRemoved);
    rep.set("opt.blocks_merged", opt.blocksMerged);
    rep.set("opt.flipped_branches", opt.flippedBranches);
    rep.set("opt.jumps_removed", opt.jumpsRemoved);
    rep.set("opt.blocks_scheduled", opt.blocksScheduled);
    rep.set("opt.insts_moved", opt.instsMoved);
    rep.set("opt.functions_optimized", opt.functionsOptimized);
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

} // namespace perfbench
