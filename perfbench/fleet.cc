/**
 * @file
 * fleet_cold and fleet_warm: FleetController::run() over the 20-tenant
 * roster (threads = min(4, nproc), 4 shards), pass after pass, as a
 * batch of tenants rather than an open loop.
 *
 * fleet_cold runs each pass with no store, so the tenants synthesize
 * every bundle; the store flush runs once per run, untimed, for the
 * output checks, and its cost is measured per layer by the traced run.
 * fleet_warm starts each pass from a byte-identical copy of one store
 * snapshot made during set-up, so the pass runs the recovery scan,
 * decodes and verifier-gates every stored image, and executes almost no
 * synthesis. Only FleetController::run() is timed; store copies and
 * removal are not.
 *
 * The traced run spends half its time on fleet passes, each in one
 * "fleet.run" span. The fleet is opaque, so the other half probes each
 * layer it drives from outside, one roster row at a time: a standalone
 * RuntimeController::run(), the profile and bare engine run, and then
 * the write path (fleet_cold: trySynthesizeBundle per filtered record
 * and tier, its stage replay, verify, serialize, deserialize, store put)
 * or the read path (fleet_warm: recovery scan, load, decode, rehydration
 * verify over a snapshot copy). The probe sweep runs once untraced and
 * once traced; the tracing overhead is their difference.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <thread>

#include "common.hh"
#include "fleet/controller.hh"
#include "fleet/serialize.hh"
#include "fleet/store.hh"
#include "package/packager.hh"
#include "runtime/bundle.hh"
#include "runtime/controller.hh"
#include "runtime/verifier.hh"
#include "spans.hh"
#include "vp/pipeline.hh"
#include "vp/stages.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using vp::workload::Workload;

vp::fleet::FleetConfig
fleetConfig(const std::string &store, bool warm)
{
    vp::fleet::FleetConfig fc;
    fc.shards = 4;
    fc.threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    fc.storeDir = store;
    fc.warmStart = warm;
    return fc;
}

/** Each tenant's report row, as `vpack runtime` would print it. */
std::vector<std::string>
tenantRows(const vp::fleet::FleetStats &s)
{
    std::vector<std::string> rows;
    for (const vp::fleet::TenantStats &t : s.tenants)
        rows.push_back(t.degraded ? "DEGRADED " + t.label
                                  : vp::runtime::toText(t.stats, t.label));
    return rows;
}

/** Run one fleet pass over @p store; @return its wall seconds. */
double
fleetPass(const std::string &store, bool warm, vp::fleet::FleetStats &out,
          SpanLog *spans)
{
    vp::fleet::FleetController fleet(fleetConfig(store, warm));
    std::optional<SpanLog::Scope> s;
    if (spans)
        s.emplace(*spans, "fleet.run");
    const Clock::time_point t0 = Clock::now();
    out = fleet.run();
    return secondsSince(t0);
}

/** Count a pass's operations and everything that went wrong in it. */
void
account(const vp::fleet::FleetStats &s, Report &rep)
{
    rep.attempt(s.tenants.size() + s.jobsSubmitted + s.storeSaved +
                s.storeLoaded + s.storeRejected + s.storeCorrupt);
    std::uint64_t failedBuilds = 0;
    std::uint64_t rejects = 0;
    std::uint64_t rollbacks = 0;
    for (const vp::fleet::TenantStats &t : s.tenants) {
        failedBuilds += t.stats.failedBuilds;
        rejects += t.stats.verifierRejects;
        rollbacks += t.stats.installRollbacks + t.stats.liveVerifyFailures;
    }
    rep.fail(s.degradedTenants, "degraded tenants");
    rep.fail(failedBuilds, "failed synthesis builds");
    rep.fail(rejects, "bundles rejected at the install gate");
    rep.fail(rollbacks, "installs rolled back or live verify failures");
    rep.fail(s.storeRejected, "stored images rejected by the verifier");
    rep.fail(s.storeCorrupt + s.storeQuarantined, "corrupt store images");
    rep.fail(s.poolTaskErrors, "worker task errors");
}

/** Compare a pass's tenant rows with the reference rows. */
void
checkRows(const std::vector<std::string> &rows,
          const std::vector<std::string> &ref, const std::string &what,
          Report &rep)
{
    rep.check(rows.size() == ref.size(), what + ": tenant count differs");
    for (std::size_t i = 0; i < std::min(rows.size(), ref.size()); ++i)
        rep.check(rows[i] == ref[i], what + format(": tenant %zu differs", i));
}

/** Set the deterministic end-to-end metrics of one fleet pass. */
void
setOnlineMetrics(const vp::fleet::FleetStats &s, Report &rep)
{
    // Install latency of the fully optimized (tier-1) bundles: tier-0
    // bundles install at the quantum they are submitted (latency 0), so
    // they say nothing about how long a phase waits for optimized code.
    std::vector<std::uint64_t> latency;
    std::uint64_t tier1 = 0;
    for (const vp::fleet::TenantStats &t : s.tenants) {
        for (const vp::runtime::BundleStats &b : t.stats.bundles) {
            if (b.tier != 1)
                continue;
            ++tier1;
            if (b.installedQuantum != vp::runtime::BundleStats::kNever)
                latency.push_back(b.installedQuantum - b.submittedQuantum);
        }
    }
    rep.set("online_coverage_mean", s.meanCoverage);
    rep.set("online_coverage_min", s.minCoverage);
    rep.set("install_q_p50", percentile(latency, 0.50));
    rep.set("install_q_p75", percentile(latency, 0.75));
    rep.set("installed_frac", ratio(latency.size(), tier1));
    rep.note(format("tier-1 install latency over %zu installs (p90 %llu); "
                    "%zu of %llu tier-1 bundles never installed",
                    latency.size(),
                    static_cast<unsigned long long>(percentile(latency, 0.9)),
                    static_cast<std::size_t>(tier1 - latency.size()),
                    static_cast<unsigned long long>(tier1)));
}

std::uint64_t
tenantInsts(const vp::fleet::FleetStats &s)
{
    std::uint64_t n = 0;
    for (const vp::fleet::TenantStats &t : s.tenants)
        n += t.stats.run.dynInsts;
    return n;
}

std::vector<std::uint8_t>
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Sums over the roster of one probe sweep. */
struct ProbeTotals
{
    std::uint64_t installs = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t planRebuilds = 0;
    std::uint64_t stallQuanta = 0;

    StageTotals stages; ///< tier-1 stage replays

    std::uint64_t images = 0;
    std::uint64_t imageBytes = 0;
};

/**
 * Synthesize @p rec at @p tier as the fleet's workers do, then follow
 * the bundle down the write path: gate, serialize, decode, store put.
 * The stage replay (identify, build, optimize under the tier's config)
 * attributes the synthesis time to the region/package/opt layers.
 */
void
probeWritePath(const Workload &w, const vp::hsd::HotSpotRecord &rec,
               unsigned tier, const vp::VpConfig &vpcfg, std::uint64_t ns,
               const vp::runtime::PackageVerifier &gate,
               vp::fleet::BundleStore &store, SpanLog &spans,
               ProbeTotals &tot, Report &rep)
{
    const std::string label = w.label();
    const std::string what = label + format(" tier %u", tier);
    vp::Expected<vp::runtime::PackageBundle> bundle =
        vp::Status::error("not synthesized");
    {
        SpanLog::Scope s(spans, format("runtime.synth_t%u", tier), label);
        bundle = vp::runtime::trySynthesizeBundle(w.program, rec, vpcfg,
                                                  tier);
    }
    rep.check(bundle.isOk(), what + ": synthesis failed");
    if (!bundle)
        return;

    {
        vp::VpConfig c = vpcfg;
        c.package.dynamicLaunch = false;
        c.opt = vp::opt::budgetedOptConfig(c.opt, tier);
        SpanLog::Scope s(spans, "runtime.synth_replay", label);
        std::vector<vp::region::Region> regions;
        {
            SpanLog::Scope r(spans, "region.identify", label);
            regions = vp::identifyRegions(w.program, {rec}, c.region);
        }
        vp::Expected<vp::package::PackagedProgram> built =
            vp::Status::error("not built");
        {
            SpanLog::Scope p(spans, "package.build", label);
            built = vp::package::tryBuildPackages(w.program, regions,
                                                  c.package);
        }
        vp::Expected<vp::opt::OptStats> optimized =
            vp::Status::error("not optimized");
        if (built) {
            SpanLog::Scope o(spans, "opt.optimize", label);
            optimized = vp::opt::tryOptimizePackages(built->program, c.opt,
                                                     c.machine);
        }
        rep.check(optimized.isOk() &&
                      built->addedInsts == bundle->packaged.addedInsts,
                  what + ": stage replay differs from trySynthesizeBundle");
        if (optimized && tier == 1)
            tot.stages.addPackaged(built.value(), optimized.value());
    }

    vp::Status verdict;
    {
        SpanLog::Scope s(spans, "runtime.verify", label);
        verdict = gate.verify(*bundle);
    }
    rep.check(verdict.isOk(), what + ": verifier rejected a fresh bundle");

    std::vector<std::uint8_t> image;
    {
        SpanLog::Scope s(spans, "fleet.serialize", label);
        image = vp::fleet::serializeBundle(*bundle);
    }
    ++tot.images;
    tot.imageBytes += image.size();
    vp::Expected<vp::runtime::PackageBundle> decoded =
        vp::Status::error("not decoded");
    {
        SpanLog::Scope s(spans, "fleet.deserialize", label);
        decoded = vp::fleet::deserializeBundle(image.data(), image.size());
    }
    rep.check(decoded.isOk() && vp::fleet::serializeBundle(*decoded) == image,
              what + ": image does not round-trip");

    vp::Expected<bool> put = vp::Status::error("not stored");
    {
        SpanLog::Scope s(spans, "fleet.store_put", label);
        put = store.put(ns, vp::fleet::recordKey(rec, tier), *bundle);
    }
    rep.check(put.isOk(), what + ": store put failed");
}

/** Follow one namespace of a store snapshot down the warm-start read
 *  path: recovery scan, load, a second decode, rehydration gate. */
void
probeReadPath(const Workload &w, std::uint64_t ns,
              const vp::runtime::PackageVerifier &gate,
              vp::fleet::BundleStore &store, SpanLog &spans,
              ProbeTotals &tot, Report &rep)
{
    const std::string label = w.label();
    vp::fleet::RecoveryStats recovered;
    {
        SpanLog::Scope s(spans, "fleet.recover", label);
        recovered = store.recoverNamespace(ns);
    }
    vp::fleet::NamespaceLoad load;
    {
        SpanLog::Scope s(spans, "fleet.load", label);
        load = store.loadNamespace(ns);
    }
    rep.check(recovered.quarantined == 0 && load.corrupt == 0,
              label + ": snapshot holds corrupt images");

    const fs::path nsdir =
        fs::path(store.dir()) /
        format("%016llx", static_cast<unsigned long long>(ns));
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(nsdir, ec)) {
        if (e.path().extension() != ".vpb")
            continue;
        const std::vector<std::uint8_t> image = readFile(e.path());
        ++tot.images;
        tot.imageBytes += image.size();
        vp::Expected<vp::runtime::PackageBundle> decoded =
            vp::Status::error("not decoded");
        {
            SpanLog::Scope s(spans, "fleet.deserialize", label);
            decoded = vp::fleet::deserializeBundle(image.data(), image.size());
        }
        rep.check(decoded.isOk(), label + ": stored image does not decode");
    }

    for (const vp::fleet::StoredBundle &sb : load.bundles) {
        vp::Status verdict;
        {
            SpanLog::Scope s(spans, "fleet.rehydrate_verify", label);
            verdict = gate.verify(sb.bundle);
        }
        rep.check(verdict.isOk(), label + ": verifier rejected a stored image");
    }
}

/**
 * One probe sweep over the roster. @p fleetRows are the tenant rows of a
 * fleet pass: a standalone runtime run of the same row must print the
 * same report.
 */
ProbeTotals
probeLayers(bool warm, const std::vector<Workload> &roster,
            const std::vector<std::string> &fleetRows,
            const std::string &store_dir, SpanLog &spans, Report &rep)
{
    const vp::runtime::RuntimeConfig rt = fleetConfig({}, warm).rt;
    vp::fleet::BundleStore store(store_dir);
    ProbeTotals tot;
    for (std::size_t i = 0; i < roster.size(); ++i) {
        const Workload &w = roster[i];
        const std::string label = w.label();
        const std::uint64_t ns =
            vp::fleet::FleetController::namespaceOf(w, rt);

        vp::runtime::RuntimeStats st;
        {
            SpanLog::Scope s(spans, "runtime.run", label);
            vp::runtime::RuntimeController controller(w, rt);
            st = controller.run();
        }
        tot.installs += st.installs;
        tot.deferrals += st.promotionDeferrals;
        tot.planRebuilds += st.planRebuilds;
        tot.stallQuanta += st.installStallQuanta;
        rep.check(i < fleetRows.size() &&
                      vp::runtime::toText(st, label) == fleetRows[i],
                  label + ": standalone runtime differs from fleet tenant");

        vp::VpResult r;
        {
            SpanLog::Scope s(spans, "hsd.profile", label);
            vp::VacuumPacker(w, rt.vp).profile(r);
        }
        tot.stages.addProfile(r);
        tot.stages.bareRun(w, spans);

        const vp::runtime::PackageVerifier gate(w.program);
        if (warm) {
            probeReadPath(w, ns, gate, store, spans, tot, rep);
        } else {
            for (const vp::hsd::HotSpotRecord &rec : r.records) {
                for (unsigned tier : {0u, 1u})
                    probeWritePath(w, rec, tier, rt.vp, ns, gate, store,
                                   spans, tot, rep);
            }
        }
    }
    return tot;
}

/** Set the runtime and fleet per-layer metrics of a traced probe sweep. */
void
reportProbe(const ProbeTotals &tot, const SpanLog &spans, Report &rep)
{
    tot.stages.report(spans, 1, rep);
    rep.set("runtime.run_s", spans.selfSeconds("runtime.run"));
    rep.set("runtime.synth_t0_s", spans.selfSeconds("runtime.synth_t0"));
    rep.set("runtime.synth_t1_s", spans.selfSeconds("runtime.synth_t1"));
    rep.set("runtime.verify_s", spans.selfSeconds("runtime.verify"));
    rep.set("runtime.installs", tot.installs);
    rep.set("runtime.promotion_deferrals", tot.deferrals);
    rep.set("runtime.plan_rebuilds", tot.planRebuilds);
    rep.set("runtime.install_stall_quanta", tot.stallQuanta);
    rep.set("fleet.image_bytes", ratio(tot.imageBytes, tot.images));
    rep.set("fleet.serialize_s", spans.selfSeconds("fleet.serialize"));
    rep.set("fleet.deserialize_s", spans.selfSeconds("fleet.deserialize"));
    rep.set("fleet.store_put_s", spans.selfSeconds("fleet.store_put"));
    rep.set("fleet.recover_s", spans.selfSeconds("fleet.recover"));
    rep.set("fleet.load_s", spans.selfSeconds("fleet.load"));
    rep.set("fleet.rehydrate_verify_s",
            spans.selfSeconds("fleet.rehydrate_verify"));
    rep.note(format("probe sweep: %llu images, %.0f bytes each on average",
                    static_cast<unsigned long long>(tot.images),
                    ratio(tot.imageBytes, tot.images)));
}

/**
 * Make @p dir a fresh copy of @p snapshot (warm) or empty (cold), and
 * write it back to disk, so that the writeback of a 33 MB copy does not
 * run during the timed pass that follows.
 */
void
prepareStore(const fs::path &dir, bool warm, const fs::path &snapshot)
{
    fs::remove_all(dir);
    if (warm)
        fs::copy(snapshot, dir, fs::copy_options::recursive);
    else
        fs::create_directories(dir);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

} // namespace

void
runFleet(const Options &opt, bool warm, Report &rep, SpanLog *spans)
{
    const fs::path base = opt.scratch;
    const fs::path snapshot = base / "snapshot";
    std::vector<Workload> roster;
    std::vector<std::string> coldRows;

    // Set-up: the roster, plus (fleet_warm) the cold fleet run whose
    // bundles the store snapshot holds. Only the roster build and that
    // run's synthesis are timed: the run has no store, because on a
    // virtual disk the fsync'd flush varied by tens of percent between
    // processes. The first set-up then writes the snapshot, untimed, with
    // a second cold run that flushes; its cost per image is the traced
    // run's fleet.serialize_s and fleet.store_put_s on fleet_cold.
    SetupSamples setup(warm ? 7 : 15, [&](std::size_t i) {
        roster.clear();
        vp::fleet::FleetStats cold;
        const Clock::time_point t0 = Clock::now();
        {
            std::optional<SpanLog::Scope> s;
            if (spans)
                s.emplace(*spans, "workload.build");
            roster = vp::workload::makeAllWorkloads();
        }
        if (warm)
            cold = vp::fleet::FleetController(fleetConfig({}, false)).run();
        const double secs = secondsSince(t0);
        if (!warm)
            return secs;
        account(cold, rep);
        const std::vector<std::string> rows = tenantRows(cold);
        if (i == 0) {
            prepareStore(snapshot, false, {});
            vp::fleet::FleetStats flushed;
            fleetPass(snapshot.string(), false, flushed, nullptr);
            account(flushed, rep);
            coldRows = tenantRows(flushed);
        }
        checkRows(rows, coldRows, "set-up cold run", rep);
        return secs;
    });
    const StoreSize snapshotSize = storeSize(snapshot.string());

    // Passes, after one untimed warm-up pass that lets the allocator
    // settle. fleet_cold passes run without a store, for the same reason
    // as the set-up. Set-ups repeat between passes, so that a burst of
    // host interference skews few of them.
    const fs::path dir = base / "pass";
    const std::string passStore = warm ? dir.string() : std::string();
    const auto pass = [&](vp::fleet::FleetStats &st, SpanLog *log) {
        if (warm)
            prepareStore(dir, true, snapshot);
        const double secs = fleetPass(passStore, warm, st, log);
        account(st, rep);
        return secs;
    };
    // Memory of one fleet run: the high-water mark restarts after
    // set-up, and is read after the warm-up pass, because later passes
    // grow the allocator's heap by amounts that depend on thread
    // interleaving (one pass peaked at 168-170 MB in six processes,
    // twelve passes at 196-248 MB).
    if (!resetPeakRss())
        rep.note("cannot reset the peak RSS; peak_rss_mb includes set-up");
    {
        vp::fleet::FleetStats st;
        pass(st, nullptr);
    }
    const double rssMb = peakRssMb();

    // A traced run spends half its time on traced passes and the rest
    // probing layers.
    const double passBudget = spans ? opt.seconds / 2 : opt.seconds;
    std::vector<double> passSecs;
    vp::fleet::FleetStats first;
    std::vector<std::string> firstRows;
    StoreSize firstAfter;
    const Clock::time_point start = Clock::now();
    for (std::size_t n = 0; n < 2 || secondsSince(start) < passBudget; ++n) {
        vp::fleet::FleetStats st;
        passSecs.push_back(pass(st, spans));
        std::vector<std::string> rows = tenantRows(st);
        const StoreSize after = storeSize(dir.string());
        if (n == 0) {
            if (warm)
                checkRows(rows, coldRows, "warm pass vs cold snapshot", rep);
            first = std::move(st);
            firstRows = std::move(rows);
            firstAfter = after;
        } else {
            checkRows(rows, firstRows, format("pass %zu", n), rep);
            rep.check(after == firstAfter,
                      format("pass %zu: store contents drifted", n));
        }
        setup.more();
    }

    if (!warm) {
        // The store write path, untimed: a cold pass that flushes must
        // print the same rows, and its store must warm-start the same
        // fleet with every image loaded and accepted.
        prepareStore(dir, false, {});
        vp::fleet::FleetStats flushed;
        fleetPass(dir.string(), false, flushed, nullptr);
        account(flushed, rep);
        checkRows(tenantRows(flushed), firstRows, "flushing cold pass", rep);
        firstAfter = storeSize(dir.string());
        vp::fleet::FleetStats restarted;
        fleetPass(dir.string(), true, restarted, nullptr);
        account(restarted, rep);
        checkRows(tenantRows(restarted), firstRows,
                  "warm restart vs cold pass", rep);
        rep.check(restarted.storeLoaded == firstAfter.images,
                  "warm restart did not load every stored image");
    }
    fs::remove_all(dir);
    setup.finish();

    const double passP50 = median(passSecs);
    rep.note(format("%s: %zu passes, pass_s p50 %.4f (n=%zu); %zu tenants "
                    "on %u threads, %.1f tenant Minst/s",
                    warm ? "fleet_warm" : "fleet_cold", passSecs.size(),
                    passP50, passSecs.size(), first.tenants.size(),
                    fleetConfig({}, warm).threads,
                    tenantInsts(first) / passP50 / 1e6));
    rep.note(format("synthesis per pass: %llu jobs submitted, %llu executed, "
                    "%llu served from cache",
                    static_cast<unsigned long long>(first.jobsSubmitted),
                    static_cast<unsigned long long>(first.jobsExecuted),
                    static_cast<unsigned long long>(first.jobsFromCache)));
    rep.note(format("store: snapshot %llu images / %llu bytes; after a pass "
                    "that used one %llu images / %llu bytes; per pass %llu "
                    "loaded, %llu saved",
                    static_cast<unsigned long long>(snapshotSize.images),
                    static_cast<unsigned long long>(snapshotSize.bytes),
                    static_cast<unsigned long long>(firstAfter.images),
                    static_cast<unsigned long long>(firstAfter.bytes),
                    static_cast<unsigned long long>(first.storeLoaded),
                    static_cast<unsigned long long>(first.storeSaved)));

    if (spans) {
        const std::uint64_t submitted = first.jobsSubmitted;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (const vp::fleet::ShardStats &s : first.shards) {
            hits += s.hits;
            misses += s.misses;
        }
        rep.set("workload.build_s",
                median(spans->durations("workload.build")));
        rep.set("fleet.run_s", passP50);
        rep.set("fleet.jobs_executed", first.jobsExecuted);
        rep.set("fleet.served_frac", ratio(first.jobsFromCache, submitted));
        rep.set("fleet.shard_hits", hits);
        rep.set("fleet.shard_misses", misses);

        // The probe sweep runs twice: untraced, then traced. The
        // difference is what the probes' spans cost.
        const fs::path probeStore = base / "probe-store";
        SpanLog untracedLog(false);
        prepareStore(probeStore, warm, snapshot);
        Clock::time_point t0 = Clock::now();
        probeLayers(warm, roster, firstRows, probeStore.string(),
                    untracedLog, rep);
        const double untracedSecs = secondsSince(t0);
        prepareStore(probeStore, warm, snapshot);
        t0 = Clock::now();
        const ProbeTotals tot = probeLayers(warm, roster, firstRows,
                                            probeStore.string(), *spans, rep);
        const double tracedSecs = secondsSince(t0);
        reportProbe(tot, *spans, rep);
        rep.set("tracing.overhead_frac", tracedSecs / untracedSecs - 1.0);
        fs::remove_all(probeStore);
    } else {
        rep.set("setup_s", setup.median());
        rep.set("pass_s_p50", passP50);
        rep.set("peak_rss_mb", rssMb);
        setOnlineMetrics(first, rep);
    }
    fs::remove_all(snapshot);
}

} // namespace perfbench
