/**
 * @file
 * Shared pieces of the perfbench benchmark: run options, the
 * closed-loop job log, the span tracer used by the traced runs, and the
 * two metric sets every workload reports (end-to-end with tracing off,
 * per-layer with tracing on).
 *
 * Everything here is single-threaded by design: one client sends one
 * job at a time and waits for it (a closed loop), and the library is
 * driven with one thread, so the numbers measure the program rather
 * than the scheduler.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

namespace perfbench {

/** The seed a run uses when none is given (run.py's default too); the
 *  qv_fig7 pin is recorded for it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;  ///< job time to accumulate per pass.
    bool trace = false;     ///< per-layer run instead of end-to-end.
    bool smoke = false;     ///< tiny sizes, for the benchmark's own tests.
};

/** One named metric as printed. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main() for printing. */
struct Outcome
{
    /** No output was wrong and every run-level check passed. A job that
     *  throws produced no output: it counts in failed only. */
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Runs one job; a throw counts as a failed job and is reported on
 * stderr under @p workload. Returns whether the job completed.
 */
template <typename F>
bool
attempt(const char *workload, F &&job)
{
    try {
        job();
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: job failed: %s\n", workload, e.what());
        return false;
    }
}

/** Peak resident set size of this process (VmHWM), in MiB. */
double peakRssMib();

/** Linear-interpolated percentile, @p q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** Median of @p values (0 when empty). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * Closed-loop record of one untraced run: set-up repetitions, per-job
 * latency and outcome, and the deterministic per-job figures (pulse
 * time, native two-qubit gates) over the run's fixed job prefix.
 */
struct JobLog
{
    std::vector<double> setupSeconds;
    std::vector<double> jobSeconds;
    std::size_t failed = 0;  ///< jobs that threw or gave a wrong output.
    std::size_t wrong = 0;   ///< failed jobs whose output was wrong.
    double pulseTimeSum = 0.0;  ///< over the first figureJobs jobs.
    double native2qSum = 0.0;   ///< over the first figureJobs jobs.
    std::size_t figureJobs = 0;

    double busySeconds() const;
    /** Records a figure-of-merit sample while inside the prefix. */
    void addFigures(std::size_t job, std::size_t prefix, double pulse_time,
                    double native_2q);
};

/**
 * True while a closed loop should send another job: fewer than
 * @p min_jobs done, or less than @p seconds of job time accumulated.
 */
inline bool
keepGoing(const JobLog &log, double seconds, std::size_t min_jobs)
{
    return log.jobSeconds.size() < min_jobs || log.busySeconds() < seconds;
}

/** The end-to-end metric set, in BENCHMARK.json order. */
std::vector<Metric> endToEndMetrics(const JobLog &log);

// ------------------------------------------------------------- tracing

/** The layers a traced run attributes time to; main.cc names each. */
enum class Layer : std::size_t
{
    Setup,  ///< root: workload set-up; its self time is unattributed.
    Job,    ///< root: one job; its self time is unattributed.
    AshnSynthesize,
    AshnRealize,
    WeylCoordinates,
    DeviceCost,
    LinalgHaar,
    WeylCacheLookup,
    CompileToAshn,
    Decompose,
    Fuse,
    Peephole,
    Route,
    Lower,
    TrajectorySweeps,
    Noise,
    Ideal,
    HeavySet,
    Score,
    Execute,
    Compile,
    StatePrep,
    Count_,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count_);

/**
 * Span tracer for the traced pass. Spans nest strictly (one thread), so
 * a span's self time is its duration minus its children's durations,
 * and the self times of all spans sum to the roots' durations.
 */
class Tracer
{
  public:
    struct Stat
    {
        double selfSeconds = 0.0;
        std::size_t calls = 0;
        std::vector<double> durations;  ///< ashn.synthesize only.
    };

    void open(Layer layer);
    void close();

    const Stat &stat(Layer layer) const
    {
        return stats_[static_cast<std::size_t>(layer)];
    }
    /** Summed duration of all root spans: the traced total. */
    double totalSeconds() const { return total_; }
    /** Summed duration of the Job roots only. */
    double jobSeconds() const { return jobTotal_; }

  private:
    struct Frame
    {
        Layer layer;
        Clock::time_point start;
        double childSeconds;
    };
    std::vector<Frame> stack_;
    std::array<Stat, kLayers> stats_{};
    double total_ = 0.0;
    double jobTotal_ = 0.0;
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, Layer layer) : tracer_(tracer)
    {
        tracer_.open(layer);
    }
    ~Span() { tracer_.close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
};

/** Work counts a traced run reports next to the span times. */
struct TraceCounts
{
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t cacheEntries = 0;
    std::size_t routeSwaps = 0;
    std::size_t planOps = 0;
    std::size_t registerPasses = 0;  ///< full-register passes per step.
    double bytesMoved = 0.0;         ///< computed from array sizes.
    double triadGbps = 0.0;
    double triadFootprintMib = 0.0;
    double llcMib = 0.0;
    double untracedJobSeconds = 0.0;  ///< same jobs, tracing off.
};

/**
 * The per-layer metric set, in BENCHMARK.json order. Layers a workload
 * never enters read 0.
 */
std::vector<Metric> layerMetrics(const Tracer &tracer,
                                 const TraceCounts &counts);

/**
 * Checks the trace identity (layer self times plus unattributed time
 * equal the traced total, to rounding); false on a mismatch.
 */
bool traceSumsToTotal(const Tracer &tracer);

// ----------------------------------------------------------- workloads

Outcome runTranspileHaar(const Options &opts);
Outcome runQvFig7(const Options &opts);
Outcome runTrotterXxz(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
