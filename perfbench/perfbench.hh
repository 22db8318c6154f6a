/**
 * @file
 * The repository benchmark: four user-path workloads driven through the
 * simulator's public entry points, an end-to-end mode that prints host
 * time and accuracy, and a traced mode that times the calls into each
 * layer from the benchmark's own code (see perfbench/README.md).
 */

#ifndef RSR_PERFBENCH_HH
#define RSR_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"
#include "func/program.hh"
#include "harness/thread_pool.hh"
#include "serve/daemon.hh"
#include "serve/net_io.hh"
#include "serve/protocol.hh"
#include "util/random.hh"

namespace rsr::perfbench
{

/** Pool workers per workload: with the caller, four threads at most. */
constexpr unsigned kJobs = 3;

/** Steady-clock seconds since an arbitrary epoch. */
double nowSeconds();

/** An independent 64-bit seed derived from (@p seed, @p tag). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag);

double median(std::vector<double> values);
/** Nearest-rank percentile, @p p in [0, 1]. */
double percentile(std::vector<double> values, double p);

/** Process peak resident set size (VmHWM) in MiB. */
double peakRssMb();
/** Release freed heap pages and restart the VmHWM high-water mark. */
void resetPeakRss();

/** What one invocation prints as its final JSON line. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** One operation or check attempted; @p ok false counts it failed. */
    void attempt(bool ok);
    /** A failed check or operation, explained on stderr. */
    void fail(const std::string &what);

    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/**
 * In-memory span recorder for the traced run. A span has a name, start,
 * end, parent span and the id of the operation it belongs to; counters
 * and samples record the work done at the same boundaries. Thread-safe;
 * a null Tracer pointer turns every Scope into a no-op.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = none
        std::uint64_t op = 0;
        std::string name;
        double start = 0.0;
        double end = 0.0;
    };

    /** RAII span; nests under the thread's innermost open span unless
     *  an explicit parent (possibly on another thread) is given. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        const char *name_;
        std::uint64_t id_ = 0;
        std::uint64_t parent_ = 0;
        std::uint64_t op_ = 0;
        std::uint64_t outerSpan_ = 0;
        std::uint64_t outerOp_ = 0;
        double start_ = 0.0;
    };

    /** Start a new operation on this thread; returns its id. */
    std::uint64_t beginOp();

    /** Record an already-measured interval under @p parent. */
    void record(const char *name, double start, double end,
                std::uint64_t parent);

    void count(const std::string &name, double value);
    void peak(const std::string &name, double value);
    void sample(const std::string &name, double value);

    double counter(const std::string &name) const;
    double peakOf(const std::string &name) const;
    std::vector<double> samples(const std::string &name) const;
    /** Total duration and number of spans named @p name. */
    double total(const std::string &name) const;
    std::uint64_t spans(const std::string &name) const;

    /**
     * Share of "op" and "task" span time not covered by a direct child
     * span (the ledger's residual), over operations >= @p first_op.
     */
    double unattributedFrac(std::uint64_t first_op) const;

    /** Write every span as one JSON line. */
    void write(const std::string &path) const;

  private:
    std::uint64_t nextId(std::uint64_t op);
    std::uint64_t opOf(std::uint64_t span) const;
    void add(Span span);

    mutable std::mutex mu;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::uint64_t> opOfSpan_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> peaks_;
    std::map<std::string, std::vector<double>> samples_;
    std::uint64_t lastId_ = 0;
    std::uint64_t lastOp_ = 0;
};

/** This thread's innermost open span and current operation. */
struct TraceContext
{
    std::uint64_t span = 0;
    std::uint64_t op = 0;
};
TraceContext &traceContext();

// ---- sampled runs ------------------------------------------------------

/** One sampled simulation: profile, warm-up policy, configuration. */
struct RunSpec
{
    std::string profile;
    std::string policy;
    const func::Program *program = nullptr;
    core::SampledConfig config;
};

/** harness::runSampledParallel() of @p spec. */
core::SampledResult directRun(const RunSpec &spec, unsigned jobs);

/** Accuracy of the workload's RSR policy on fixed reference schedules. */
struct Accuracy
{
    double relErrPct = 0.0;
    double gapPct = 0.0;
};

/** Is @p replica the same simulation as @p direct? Explains on stderr. */
bool sameRun(const char *what, const core::SampledResult &replica,
             const core::SampledResult &direct);
/** The timing statistics only (what a store replay reproduces). */
bool sameTiming(const char *what, const core::SampledResult &replica,
                const core::SampledResult &direct);

/**
 * Traced replica of harness::runSampledParallel(): SkipPhase,
 * ReconstructPhase and CapturePhase on the caller, one replay task per
 * cluster on @p pool as capture produces it (serially on the calling
 * thread when @p pool is null).
 */
core::SampledResult tracedSampledRun(Tracer &tracer, const RunSpec &spec,
                                     harness::ThreadPool *pool);

/**
 * Traced replica of harness::replayStoreParallel(): longest cluster
 * first, each worker decoding and replaying its own cluster.
 */
core::SampledResult tracedStoreReplay(Tracer &tracer,
                                      const core::LivePointStore &store,
                                      const core::MachineConfig &machine,
                                      harness::ThreadPool &pool);

/** A kJobs-worker pool; thread start-up and join are traced spans. */
std::unique_ptr<harness::ThreadPool> startPool(Tracer &tracer);
void stopPool(Tracer &tracer, std::unique_ptr<harness::ThreadPool> &pool);

/**
 * Queue @p body on @p pool as a traced "task" span under @p parent,
 * recording the submit call and the wait from submit to task start.
 * @p body receives the worker's lane (ThreadPool::workerIndex() + 1).
 */
template <typename F>
void
submitTraced(Tracer &tracer, harness::ThreadPool &pool, std::uint64_t parent,
             std::uint64_t weight, F body)
{
    const double submitted = nowSeconds();
    Tracer::Scope span(&tracer, "harness.pool.submit");
    pool.submit(
        [&tracer, parent, submitted, body] {
            tracer.record("harness.pool.start_wait", submitted, nowSeconds(),
                          parent);
            Tracer::Scope task(&tracer, "task", parent);
            body(harness::ThreadPool::workerIndex() + 1);
        },
        weight);
}

/** Record a store's size and dedup figures. */
void countStore(Tracer &tracer, const core::LivePointStore &store);

// ---- serve ---------------------------------------------------------------

/**
 * Seeded closed-loop request stream over a small catalogue. Requests
 * come in blocks of 50, in a seeded order: 40 exact repeats of answered
 * requests (result cache hits), 8 timing-only `core.*` variants of one
 * of the 8 latest captures (warm replays) and 2 requests with a fresh
 * schedule seed (cold captures).
 *
 * The mix is a stand-in, not derived from measured or documented serve
 * traffic. Each run reports the tier shares the daemon counted, so a
 * change to the mix shows as a change to the benchmark.
 */
class RequestStream
{
  public:
    static constexpr unsigned blockSize = 50;
    static constexpr unsigned warmPerBlock = 8;
    static constexpr unsigned coldPerBlock = 2;
    /** Warm replays vary only the latest captures, which the default
     *  store cache still holds, so each stays a warm replay. */
    static constexpr unsigned warmRecent = 8;

    explicit RequestStream(std::uint64_t seed);

    /** The catalogue every stream starts from (answered at set-up). */
    static std::vector<serve::SimRequest> catalogue();

    serve::SimRequest next();

  private:
    std::uint64_t seed;
    Rng rng;
    std::vector<serve::SimRequest> answered;
    std::vector<serve::SimRequest> captures;
    std::vector<unsigned> warmCount;
    std::vector<char> block;
    std::size_t blockPos = 0;
    std::uint64_t coldCount = 0;
};

/**
 * An in-process daemon with 2 workers, its serve loop on one thread,
 * and one closed-loop client on the caller's thread.
 */
class ServeSession
{
  public:
    explicit ServeSession(std::uint64_t seed);
    ~ServeSession();
    ServeSession(const ServeSession &) = delete;
    ServeSession &operator=(const ServeSession &) = delete;

    /** Start the daemon and answer the catalogue (cold captures). */
    void start();
    /** Drain and join the daemon; keeps its final counters. */
    void stop();

    /** Send the stream's next request; false when it failed. */
    bool request(Tracer *tracer, Report &report);

    /** The `ipc` field of every reply so far, in order. */
    const std::vector<std::string> &replies() const { return replies_; }

    /** Every distinct answered request against its direct run. */
    void verify(Report &report);
    Accuracy accuracy(const std::vector<double> &true_ipc, Report &report);
    void countLayers(Tracer &tracer) const;
    /** The tier shares the daemon counted after set-up, as one line. */
    std::string tierMix() const;

    /** The direct-run equivalent of @p request. */
    static RunSpec directSpec(const serve::SimRequest &request);

  private:
    struct Answer
    {
        serve::SimRequest request;
        std::string ipc;
    };

    bool send(const serve::SimRequest &request, Tracer *tracer,
              Report &report);

    RequestStream stream;
    std::unique_ptr<serve::Server> server;
    std::thread loop;
    serve::Socket conn;
    std::uint64_t sent = 0;
    serve::ServeStats primed_;
    serve::ServeStats stats_;
    std::uint64_t lastId = 0;
    std::map<std::uint64_t, Answer> answers;
    std::vector<std::string> replies_;
};

// ---- workloads -------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Programs, true-IPC references and reference digests. Called
     *  several times to time it; the last call's products are kept. */
    virtual void setup() = 0;
    /** Seconds of the last setup() spent building programs. */
    double buildSeconds() const { return buildSeconds_; }

    /** Operations per round; loops stop on round boundaries. */
    virtual std::size_t roundSize() const = 0;
    /** Rounds the traced run measures, traced and untraced each. */
    virtual unsigned traceRounds() const { return 2; }

    /**
     * Run operation @p i untraced; false when it failed. An operation
     * made of user-visible units (the cells of a policy sweep) appends
     * each unit's latency to @p units; otherwise its wall time counts.
     */
    virtual bool op(std::size_t i, Report &report,
                    std::vector<double> &units) = 0;
    /** Run operation @p i through the traced replica; false when it
     *  failed or differs from the untraced result. */
    virtual bool tracedOp(std::size_t i, Tracer &tracer,
                          Report &report) = 0;
    /** Traced work outside the per-op loop, before and after it. */
    virtual void tracedPrologue(Tracer &, Report &) {}
    virtual void tracedEpilogue(Tracer &, Report &) {}

    /** After the timed window: identity checks not made per op. */
    virtual void check(Report &report) = 0;
    virtual Accuracy accuracy(Report &report) = 0;

    /** Layers the workload's own path crosses; the traced run probes
     *  the others with small fixed legs. */
    virtual bool crossesPipeline() const { return true; }
    virtual bool crossesStore() const { return false; }
    virtual bool crossesServe() const { return false; }
    /** Populations the functional-step probe covers. */
    virtual std::vector<RunSpec> populations() const = 0;

  protected:
    double buildSeconds_ = 0.0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** The traced run (--trace 1): per-layer metrics into @p report. */
void runTraced(Workload &workload, std::uint64_t seed,
               const std::string &spans_out, Report &report);

} // namespace rsr::perfbench

#endif // RSR_PERFBENCH_HH
