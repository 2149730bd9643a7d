/**
 * @file
 * perfbench: runs one end-to-end workload and prints its result as one
 * JSON line on stdout. Usage:
 *
 *   perfbench <transpile_haar|qv_fig7|trotter_xxz> [--seed N]
 *             [--seconds S] [--trace 0|1] [--smoke]
 *
 * With --trace 0 the line carries the end-to-end metrics, with
 * --trace 1 the per-layer ones. perfbench/run.py builds this binary,
 * runs it, and validates its output against BENCHMARK.json.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hh"

namespace perfbench {

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
JobLog::busySeconds() const
{
    double sum = 0.0;
    for (const double s : jobSeconds)
        sum += s;
    return sum;
}

void
JobLog::addFigures(std::size_t job, std::size_t prefix, double pulse_time,
                   double native_2q)
{
    if (job >= prefix)
        return;
    pulseTimeSum += pulse_time;
    native2qSum += native_2q;
    ++figureJobs;
}

namespace {

/**
 * Closed-loop throughput, robust to a rare pathological job: jobs per
 * second of the 5%-trimmed mean job time (the fastest and the slowest
 * 5% of jobs are set aside). A plain jobs/time ratio is decided by
 * whether a run happens to draw one of the Haar points on which
 * ashn::synthesize takes seconds; the traced run reports that tail as
 * ashn.synthesize_ms_max.
 */
double
trimmedThroughput(std::vector<double> job_seconds)
{
    std::sort(job_seconds.begin(), job_seconds.end());
    const std::size_t cut = job_seconds.size() / 20;
    double busy = 0.0;
    for (std::size_t i = cut; i + cut < job_seconds.size(); ++i)
        busy += job_seconds[i];
    return static_cast<double>(job_seconds.size() - 2 * cut) / busy;
}

} // namespace

std::vector<Metric>
endToEndMetrics(const JobLog &log)
{
    std::vector<double> ms;
    for (const double s : log.jobSeconds)
        ms.push_back(1e3 * s);
    const double jobs = static_cast<double>(log.jobSeconds.size());
    const double figures = static_cast<double>(log.figureJobs);
    return {
        {"setup_s", median(log.setupSeconds), "s"},
        {"jobs_per_s", trimmedThroughput(log.jobSeconds), "1/s"},
        {"job_ms_p50", percentile(ms, 0.5), "ms"},
        {"job_ms_p90", percentile(ms, 0.9), "ms"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"pass_ratio", (jobs - static_cast<double>(log.failed)) / jobs,
         "ratio"},
        {"pulse_time_g", log.pulseTimeSum / figures, "1/g"},
        {"native_2q_per_job", log.native2qSum / figures, "count"},
    };
}

// ------------------------------------------------------------- tracing

void
Tracer::open(Layer layer)
{
    stack_.push_back({layer, Clock::now(), 0.0});
}

void
Tracer::close()
{
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = secondsSince(f.start);
    Stat &s = stats_[static_cast<std::size_t>(f.layer)];
    s.selfSeconds += d - f.childSeconds;
    ++s.calls;
    if (f.layer == Layer::AshnSynthesize)
        s.durations.push_back(d);
    if (!stack_.empty()) {
        stack_.back().childSeconds += d;
        return;
    }
    total_ += d;
    if (f.layer == Layer::Job)
        jobTotal_ += d;
}

namespace {

/** Metric name of each layer's self time, indexed by Layer. */
constexpr std::array<const char *, kLayers> kLayerSeconds = {
    nullptr,  // Setup: reported inside unattributed_s
    nullptr,  // Job: reported inside unattributed_s
    "ashn.synthesize_s",
    "ashn.realize_s",
    "weyl.coordinates_s",
    "device.cost_s",
    "linalg.haar_s",
    "device.weyl_cache_lookup_s",
    "synth.compile_to_ashn_s",
    "transpile.decompose_s",
    "transpile.fuse_s",
    "transpile.peephole_s",
    "transpile.route_s",
    "transpile.lower_s",
    "sim.trajectory_sweeps_s",
    "circuit.noise_s",
    "sim.ideal_s",
    "qv.heavy_set_s",
    "qv.score_s",
    "sim.execute_s",
    "sim.compile_s",
    "sim.state_prep_s",
};

double
layerSelfSum(const Tracer &tracer)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < kLayers; ++i)
        sum += tracer.stat(static_cast<Layer>(i)).selfSeconds;
    return sum;
}

} // namespace

bool
traceSumsToTotal(const Tracer &tracer)
{
    return std::abs(layerSelfSum(tracer) - tracer.totalSeconds()) <=
           1e-9 * tracer.totalSeconds() + 1e-12;
}

std::vector<Metric>
layerMetrics(const Tracer &tracer, const TraceCounts &c)
{
    std::vector<Metric> out;
    for (std::size_t i = 0; i < kLayers; ++i)
        if (kLayerSeconds[i] != nullptr)
            out.push_back({kLayerSeconds[i],
                           tracer.stat(static_cast<Layer>(i)).selfSeconds,
                           "s"});
    const Tracer::Stat &synth = tracer.stat(Layer::AshnSynthesize);
    const double unattributed = tracer.stat(Layer::Setup).selfSeconds +
                                tracer.stat(Layer::Job).selfSeconds;
    const double lookups =
        static_cast<double>(c.cacheHits + c.cacheMisses);
    const double executeSeconds = tracer.stat(Layer::Execute).selfSeconds;
    const double achievedGbps =
        executeSeconds > 0.0 ? c.bytesMoved / executeSeconds / 1e9 : 0.0;
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    out.insert(
        out.end(),
        {
            {"ashn.synthesize_calls", count(synth.calls), "count"},
            {"ashn.synthesize_ms_p99",
             1e3 * percentile(synth.durations, 0.99), "ms"},
            {"ashn.synthesize_ms_max", 1e3 * percentile(synth.durations, 1.0),
             "ms"},
            {"weyl.coordinates_calls",
             count(tracer.stat(Layer::WeylCoordinates).calls), "count"},
            {"device.weyl_cache_hit_ratio",
             lookups > 0.0 ? count(c.cacheHits) / lookups : 0.0, "ratio"},
            {"device.weyl_cache_entries", count(c.cacheEntries), "count"},
            {"route.swaps", count(c.routeSwaps), "count"},
            {"sim.plan_ops", count(c.planOps), "count"},
            {"sim.register_passes", count(c.registerPasses), "count"},
            {"sim.bytes_moved_computed", c.bytesMoved, "B"},
            {"sim.achieved_gbps", achievedGbps, "GB/s"},
            {"sim.triad_gbps", c.triadGbps, "GB/s"},
            {"sim.pct_of_triad_bw",
             c.triadGbps > 0.0 ? 100.0 * achievedGbps / c.triadGbps : 0.0,
             "%"},
            {"sim.triad_footprint_mib", c.triadFootprintMib, "MiB"},
            {"sim.llc_mib", c.llcMib, "MiB"},
            {"unattributed_s", unattributed, "s"},
            {"traced_total_s", tracer.totalSeconds(), "s"},
            {"trace_overhead_pct",
             c.untracedJobSeconds > 0.0
                 ? 100.0 * (tracer.jobSeconds() - c.untracedJobSeconds) /
                       c.untracedJobSeconds
                 : 0.0,
             "%"},
        });
    return out;
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "<transpile_haar|qv_fig7|trotter_xxz> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        usage("missing workload");
    const std::string workload = argv[1];
    Options opts;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opts.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--seed") {
            opts.seed = parseUnsigned(value, "--seed");
        } else if (flag == "--seconds") {
            opts.seconds =
                static_cast<double>(parseUnsigned(value, "--seconds"));
            if (opts.seconds < 1.0)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned(value, "--trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            opts.trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }

    Outcome out;
    try {
        if (workload == "transpile_haar")
            out = runTranspileHaar(opts);
        else if (workload == "qv_fig7")
            out = runQvFig7(opts);
        else if (workload == "trotter_xxz")
            out = runTrotterXxz(opts);
        else
            usage(("unknown workload " + workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
