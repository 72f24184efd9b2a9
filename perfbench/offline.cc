/**
 * @file
 * offline_eval: the paper's Figures 8-10 flow. One client, closed loop,
 * one roster row at a time: analyzeWorkload() under all four inference x
 * linking variants plus branch categorization, with the RunCache cleared
 * before each row so every row pays what a `vpack report` process pays.
 * The seed permutes the row order; runs are made of whole passes over
 * the roster so every row is sampled equally often.
 *
 * The traced run replays analyzeWorkload's call sequence through the
 * lower-level entry points (profile, identifyRegions, tryBuildPackages,
 * tryOptimizePackages, measureCoverage, measureSpeedup,
 * categorizeBranches) under one span each, after an untraced
 * analyzeWorkload of the same row that serves as the reference for both
 * the results and the tracing overhead.
 */

#include <array>
#include <cmath>
#include <optional>

#include "common.hh"
#include "package/packager.hh"
#include "spans.hh"
#include "vp/evaluate.hh"
#include "vp/pipeline.hh"
#include "vp/report.hh"
#include "vp/run_cache.hh"
#include "vp/stages.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

namespace
{

using vp::workload::Workload;

/** analyzeWorkload's variant order (the paper's). */
constexpr std::array<std::pair<bool, bool>, 4> kVariants = {
    std::pair{false, false}, {false, true}, {true, false}, {true, true}};
constexpr std::size_t kFull = 3;

/** What one row's analysis produced that later passes must repeat. */
struct RowResult
{
    std::string text; ///< toText() of the report (deterministic fields)
    double speedup = 0.0;
    double coverage = 0.0;
    double expansion = 0.0;
    std::uint64_t insts = 0; ///< instructions the analysis covered
};

RowResult
summarize(const vp::WorkloadReport &r)
{
    RowResult out;
    out.text = vp::toText(r);
    out.speedup = r.full().speedup;
    out.coverage = r.full().coverage;
    out.expansion = r.full().expansion;
    for (const vp::StageCost &s : r.stages)
        out.insts += s.insts;
    return out;
}

double
geomean(const std::vector<double> &v)
{
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0 : std::exp(logSum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Output checks on the full configuration's packaged program of @p w:
 *  no dropped phase, the logical branch stream preserved, and the
 *  coverage analyzeWorkload reported. Untimed. */
void
checkPackaged(const Workload &w, double reported_coverage, Report &rep)
{
    const vp::VpResult r = vp::VacuumPacker(w).run();
    rep.check(r.droppedPhases == 0,
              w.label() + ": phases dropped by package construction");
    rep.check(branchStreamPreserved(w, r.packaged.program),
              w.label() + ": packaged branch stream differs from original");
    rep.check(vp::measureCoverage(w, r.packaged.program).packageCoverage() ==
                  reported_coverage,
              w.label() + ": pipeline coverage differs from analyzeWorkload");
}

void
untraced(const Options &opt, const std::vector<Workload> &roster,
         Report &rep)
{
    const std::vector<std::size_t> order =
        permutation(roster.size(), opt.seed);
    std::vector<RowResult> first(roster.size());
    std::vector<double> rowSecs;
    std::vector<double> passSecs;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double rssMb = 0.0; // over the first pass, as for the fleets

    if (!resetPeakRss())
        rep.note("cannot reset the peak RSS; peak_rss_mb includes set-up");
    // Start another pass while at least half of one fits in the budget,
    // so a run measures about --seconds whatever the pass time.
    const Clock::time_point start = Clock::now();
    while (passSecs.empty() ||
           secondsSince(start) + median(passSecs) / 2 <= opt.seconds) {
        double pass = 0.0;
        for (std::size_t idx : order) {
            const Workload &w = roster[idx];
            vp::RunCache::instance().clear();
            const Clock::time_point t0 = Clock::now();
            const vp::WorkloadReport r = vp::analyzeWorkload(w, {}, 1);
            const double dt = secondsSince(t0);
            rowSecs.push_back(dt);
            pass += dt;
            hits += r.runCacheHits;
            misses += r.runCacheMisses;
            rep.attempt();
            RowResult rr = summarize(r);
            if (passSecs.empty())
                first[idx] = std::move(rr);
            else
                rep.check(rr.text == first[idx].text,
                          w.label() + ": report differs between passes");
        }
        passSecs.push_back(pass);
        if (passSecs.size() == 1)
            rssMb = peakRssMb();
    }

    for (std::size_t idx : order)
        checkPackaged(roster[idx], first[idx].coverage, rep);

    std::vector<double> speedup, coverage, expansion;
    std::uint64_t passInsts = 0;
    for (const RowResult &rr : first) {
        speedup.push_back(rr.speedup);
        coverage.push_back(rr.coverage);
        expansion.push_back(rr.expansion);
        passInsts += rr.insts;
    }
    const double passP50 = median(passSecs);
    rep.set("pass_s_p50", passP50);
    rep.set("peak_rss_mb", rssMb);
    rep.set("speedup_geomean", geomean(speedup));
    rep.set("offline_coverage_mean", mean(coverage));
    rep.set("expansion_mean", mean(expansion));

    std::vector<std::uint64_t> rowUs;
    for (double s : rowSecs)
        rowUs.push_back(static_cast<std::uint64_t>(s * 1e6));
    rep.note(format("offline_eval: %zu passes, %zu rows; row_s p50 %.4f "
                    "p75 %.4f (n=%zu); pass_s p50 %.3f (n=%zu), "
                    "%.2f rows/s, %.1f Minst/s analyzed",
                    passSecs.size(), rowSecs.size(), median(rowSecs),
                    percentile(rowUs, 0.75) / 1e6, rowSecs.size(), passP50,
                    passSecs.size(), roster.size() / passP50,
                    passInsts / passP50 / 1e6));
    rep.note(format("run cache per pass: %.1f hits, %.1f misses",
                    static_cast<double>(hits) / passSecs.size(),
                    static_cast<double>(misses) / passSecs.size()));
}

/** Sums over the roster of one traced pass. */
struct TracedTotals
{
    double analyzeSecs = 0.0; ///< untraced analyzeWorkload, reference
    double replaySecs = 0.0;  ///< traced replay of the same rows
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    StageTotals stages;         ///< full-config profile and packages
    std::uint64_t simInsts = 0; ///< simulated by measureSpeedup
    vp::sim::CoreStats core;    ///< full-config packaged legs, summed
};

void
addCore(vp::sim::CoreStats &sum, const vp::sim::CoreStats &c)
{
    sum.cycles += c.cycles;
    sum.insts += c.insts;
    sum.branches += c.branches;
    sum.branchMispredicts += c.branchMispredicts;
    sum.btbMisses += c.btbMisses;
    sum.dataStallCycles += c.dataStallCycles;
    sum.fetchStallCycles += c.fetchStallCycles;
    sum.ldStBufStallCycles += c.ldStBufStallCycles;
    sum.l1iMisses += c.l1iMisses;
    sum.l1dMisses += c.l1dMisses;
}

/** Replay analyzeWorkload(w) under spans; check it against @p ref. */
void
replayRow(const Workload &w, const vp::WorkloadReport &ref, SpanLog &spans,
          TracedTotals &tot, Report &rep)
{
    const std::string label = w.label();
    std::optional<vp::ir::Program> fullProgram;
    {
        SpanLog::Scope row(spans, "vp.row", label);
        for (std::size_t v = 0; v < kVariants.size(); ++v) {
            const vp::VpConfig cfg = vp::VpConfig::variant(
                kVariants[v].first, kVariants[v].second);
            const std::string what = label + format(" variant %zu", v);
            vp::VpResult r;
            {
                SpanLog::Scope s(spans, "hsd.profile", label);
                vp::VacuumPacker(w, cfg).profile(r);
            }
            {
                SpanLog::Scope s(spans, "region.identify", label);
                r.regions =
                    vp::identifyRegions(w.program, r.records, cfg.region);
            }
            vp::Expected<vp::package::PackagedProgram> built =
                vp::Status::error("not built");
            {
                SpanLog::Scope s(spans, "package.build", label);
                built = vp::package::tryBuildPackages(w.program, r.regions,
                                                      cfg.package);
            }
            rep.check(built.isOk(), what + ": package build failed");
            if (!built)
                continue;
            vp::Expected<vp::opt::OptStats> optimized =
                vp::Status::error("not optimized");
            {
                SpanLog::Scope s(spans, "opt.optimize", label);
                optimized = vp::opt::tryOptimizePackages(
                    built->program, cfg.opt, cfg.machine);
            }
            rep.check(optimized.isOk(), what + ": optimization failed");
            if (!optimized)
                continue;
            vp::trace::RunStats cov;
            {
                SpanLog::Scope s(spans, "vp.coverage", label);
                cov = vp::measureCoverage(w, built->program);
            }
            vp::SpeedupResult sp;
            {
                SpanLog::Scope s(spans, "sim.speedup", label);
                sp = vp::measureSpeedup(w, built->program, cfg.machine);
            }
            // The baseline leg is simulated once per row (RunCache).
            tot.simInsts +=
                sp.packaged.insts + (v == 0 ? sp.baseline.insts : 0);
            const vp::ConfigReport &cr = ref.configs[v];
            rep.check(built->expansion() == cr.expansion &&
                          cov.packageCoverage() == cr.coverage &&
                          sp.speedup() == cr.speedup,
                      what + ": replay differs from analyzeWorkload");
            if (v != kFull)
                continue;

            vp::Categorization cat;
            {
                SpanLog::Scope s(spans, "vp.categorize", label);
                cat = vp::categorizeBranches(w, r.records);
            }
            rep.check(cat.fraction == ref.categorization.fraction,
                      label + ": categorization differs from analyzeWorkload");
            tot.stages.addProfile(r);
            tot.stages.addPackaged(built.value(), optimized.value());
            addCore(tot.core, sp.packaged);
            fullProgram = std::move(built->program);
        }
        tot.replaySecs += row.elapsed();
    }

    tot.stages.bareRun(w, spans);

    rep.check(fullProgram.has_value(), label + ": no full-config program");
    if (fullProgram) {
        rep.check(branchStreamPreserved(w, *fullProgram),
                  label + ": packaged branch stream differs from original");
    }
}

void
traced(const Options &opt, const std::vector<Workload> &roster,
       SpanLog &spans, Report &rep)
{
    TracedTotals tot;
    for (std::size_t idx : permutation(roster.size(), opt.seed)) {
        const Workload &w = roster[idx];
        vp::RunCache::instance().clear();
        const Clock::time_point t0 = Clock::now();
        const vp::WorkloadReport ref = vp::analyzeWorkload(w, {}, 1);
        tot.analyzeSecs += secondsSince(t0);
        tot.cacheHits += ref.runCacheHits;
        tot.cacheMisses += ref.runCacheMisses;
        rep.attempt();

        vp::RunCache::instance().clear();
        replayRow(w, ref, spans, tot, rep);
    }

    tot.stages.report(spans, kVariants.size(), rep);
    const double simS = spans.selfSeconds("sim.speedup");
    rep.set("sim.speedup_s", simS);
    rep.set("sim.minst_per_s", ratio(tot.simInsts / 1e6, simS));
    const vp::sim::CoreStats &c = tot.core;
    rep.set("sim.cpi_data", ratio(c.dataStallCycles, c.insts));
    rep.set("sim.cpi_fetch", ratio(c.fetchStallCycles, c.insts));
    rep.set("sim.cpi_ldst", ratio(c.ldStBufStallCycles, c.insts));
    rep.set("sim.mispredict_per_kbr",
            ratio(1000.0 * c.branchMispredicts, c.branches));
    rep.set("sim.btb_miss_per_kbr", ratio(1000.0 * c.btbMisses, c.branches));
    rep.set("sim.l1i_miss_per_kinst", ratio(1000.0 * c.l1iMisses, c.insts));
    rep.set("sim.l1d_miss_per_kinst", ratio(1000.0 * c.l1dMisses, c.insts));
    rep.set("vp.coverage_s", spans.selfSeconds("vp.coverage"));
    rep.set("vp.categorize_s", spans.selfSeconds("vp.categorize"));
    rep.set("vp.runcache_hits", tot.cacheHits);
    rep.set("vp.runcache_misses", tot.cacheMisses);
    rep.set("tracing.overhead_frac",
            ratio(tot.replaySecs, tot.analyzeSecs) - 1.0);

    rep.note(format("offline_eval traced: %zu rows; analyzeWorkload %.3f s, "
                    "traced replay %.3f s, replay glue (vp.row self) %.3f s",
                    roster.size(), tot.analyzeSecs, tot.replaySecs,
                    spans.selfSeconds("vp.row")));
}

} // namespace

void
runOfflineEval(const Options &opt, Report &rep, SpanLog *spans)
{
    // Set-up is building the roster: tens of milliseconds, so its median
    // needs many samples. They run back to back before the passes, on a
    // fresh heap: taken between or after rows, their time depended on the
    // state the row analyses left the heap in, so on the seed.
    std::vector<Workload> roster;
    SetupSamples setup(15, [&](std::size_t) {
        roster.clear();
        std::optional<SpanLog::Scope> s;
        if (spans)
            s.emplace(*spans, "workload.build");
        const Clock::time_point t0 = Clock::now();
        roster = vp::workload::makeAllWorkloads();
        return secondsSince(t0);
    });
    setup.finish();
    if (spans)
        traced(opt, roster, *spans, rep);
    else
        untraced(opt, roster, rep);
    if (spans)
        rep.set("workload.build_s",
                median(spans->durations("workload.build")));
    else
        rep.set("setup_s", setup.median());
}

} // namespace perfbench
