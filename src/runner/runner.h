/**
 * @file
 * Thread-pool-backed batch experiment runner with per-job fault
 * isolation.
 *
 * The paper's evaluation is a sweep — every workload x accelerator x
 * configuration point of Figures 10-15 — and each figure binary used to
 * hand-roll its own serial loop over AcceleratorModel::run().  The runner
 * replaces those loops: callers declare a list of Jobs (model + trace +
 * RunOptions), the runner executes them across a pool of worker threads,
 * and the results come back in job order, bit-identical to a serial run
 * (models compile and execute const and re-entrantly; see accelerator.h).
 *
 * Failure containment: a job that throws ufc::Error (malformed trace
 * file, invalid RunOptions, unexecutable workload, watchdog/deadline
 * trip, injected fault) is recorded in its JobOutcome slot — with a
 * bounded retry for transient faults — and the rest of the batch runs
 * to completion.  The successful jobs' results are bit-identical to
 * what a clean batch would have produced: jobs share nothing, so a
 * neighbour's failure cannot perturb them.
 */

#ifndef UFC_RUNNER_RUNNER_H
#define UFC_RUNNER_RUNNER_H

#include <atomic>
#include <compare>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/backoff.h"
#include "common/fault.h"
#include "sim/accelerator.h"
#include "trace/trace.h"

namespace ufc {
namespace runner {

/**
 * Batch-scoped cache of lowerings keyed on (trace content hash, model
 * lowering key): every model whose AcceleratorModel::loweringKey()
 * agrees — the fig13/fig14 DSE points, two instances of one config —
 * shares one compiler::LoweredProgram per trace, and each get() binds
 * it to the requesting model.  Lowering is the expensive half of
 * compile(); binding costs one MachinePerf evaluation per shape.
 *
 * Concurrency: the first requester of a key installs a shared future
 * and lowers outside the map lock; later requesters block on that
 * future.  A lowering error is cached too and rethrown to every
 * requester — lowering is deterministic, so retrying it cannot succeed.
 * Binding and model admission (SHARP/Strix reject foreign traces) run
 * per request.
 *
 * Models with an empty loweringKey() (models outside the library that
 * do not split compile()) bypass the cache: get() returns compile(tr).
 *
 * Result memo: the simulation is deterministic, so one (model instance,
 * trace, prefetch window, maxCycles) always gives the same RunResult.
 * The runner stores each successful run under that key
 * (storeResult) and serves an identical later request a copy
 * (findResult) instead of executing it again.  Runs that record a
 * timeline skip the memo.  The first store of a key wins, and
 * `maxEntries` bounds the memo FIFO like the lowerings.
 *
 * Lifetime: every model passed to get() or the memo must outlive the
 * cache, since memo keys hold model addresses.
 */
class ProgramCache
{
  public:
    /** `maxEntries` bounds the cache (0 = unbounded, the default).
     *  When an insert exceeds the bound the oldest entry is evicted
     *  (FIFO by insertion) — safe even while the evicted lowering is
     *  still in flight, since every waiter holds its own copy of the
     *  shared future and the lowering is shared_ptr-owned. */
    explicit ProgramCache(std::size_t maxEntries = 0)
        : maxEntries_(maxEntries)
    {}

    /** `tr` compiled for `model`, lowering on first use of the key.
     *  Thread-safe; throws whatever compile() would. */
    compiler::Program get(const sim::AcceleratorModel &model,
                          const trace::Trace &tr);

    /**
     * Announce that the key of (`loweringKey`, `traceHash`) will be
     * requested exactly `uses` times: its entry is dropped at the last
     * request, so a batch frees each shared lowering after its last job
     * instead of at batch end.  Unannounced keys stay until evicted.
     */
    void expectUses(const std::string &loweringKey, u64 traceHash,
                    u64 uses);

    /** Requests served from an already-installed entry. */
    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    /** Lowerings actually performed (== distinct keys requested,
     *  counting re-lowerings of evicted or released keys). */
    u64
    lowerings() const
    {
        return lowerings_.load(std::memory_order_relaxed);
    }
    /** Entries dropped by the maxEntries bound. */
    u64
    evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** The memoized result of running `program` on `model` under
     *  `opts`, if an identical run was stored; counts a hit or a miss.
     *  The copy keeps the stored run's label. */
    std::optional<sim::RunResult>
    findResult(const sim::AcceleratorModel &model,
               const compiler::Program &program,
               const sim::RunOptions &opts);
    /** Memoize a successful run of `program` on `model` under `opts`. */
    void storeResult(const sim::AcceleratorModel &model,
                     const compiler::Program &program,
                     const sim::RunOptions &opts,
                     const sim::RunResult &result);

    /** Result-memo lookups that hit / missed. */
    u64
    resultHits() const
    {
        return resultHits_.load(std::memory_order_relaxed);
    }
    u64
    resultMisses() const
    {
        return resultMisses_.load(std::memory_order_relaxed);
    }

  private:
    struct Key
    {
        u64 traceHash;
        std::string lowering;

        bool
        operator==(const Key &o) const
        {
            return traceHash == o.traceHash && lowering == o.lowering;
        }
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return static_cast<std::size_t>(
                k.traceHash ^ std::hash<std::string>{}(k.lowering));
        }
    };

    using Lowering = std::shared_future<
        std::shared_ptr<const compiler::LoweredProgram>>;
    struct Entry
    {
        Lowering lowering;
        u64 usesLeft = 0; ///< 0 = unannounced (kept until evicted)
    };

    /** The lowering for `key`, running `lower` on a miss. */
    std::shared_ptr<const compiler::LoweredProgram>
    lookup(const Key &key, const std::string &workload,
           const compiler::LowerFn &lower);

    /// Everything a finished RunResult depends on besides the Program's
    /// machine, which the model instance fixes.
    struct ResultKey
    {
        std::uintptr_t model; ///< the model instance's address
        u64 traceHash;
        int prefetchWindow;
        u64 maxCycles;

        auto operator<=>(const ResultKey &o) const = default;
    };
    static ResultKey resultKey(const sim::AcceleratorModel &model,
                               const compiler::Program &program,
                               const sim::RunOptions &opts);

    const std::size_t maxEntries_;
    std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
    /// Announced use counts of keys not requested yet.
    std::unordered_map<Key, u64, KeyHash> announced_;
    std::deque<Key> order_; ///< insertion order, for FIFO eviction
    std::atomic<u64> hits_{0};
    std::atomic<u64> lowerings_{0};
    std::atomic<u64> evictions_{0};

    std::map<ResultKey, sim::RunResult> results_;
    std::deque<ResultKey> resultOrder_; ///< insertion order, FIFO bound
    std::atomic<u64> resultHits_{0};
    std::atomic<u64> resultMisses_{0};
};

/**
 * One experiment: a trace simulated on a model under given options.
 * Model and trace are shared so a sweep can cross N models with M traces
 * without copying either.
 *
 * The trace may be given eagerly (`trace`) or as a file path
 * (`traceFile`) that is loaded *inside* the job's fault isolation, so a
 * corrupt or truncated file fails only its own job instead of the batch
 * assembly.  Exactly one of the two must be set.
 */
struct Job
{
    /// Unique key for result lookup; copied into RunOptions::label (and
    /// from there into RunResult::label) when options.label is empty.
    std::string label;
    std::shared_ptr<const sim::AcceleratorModel> model;
    std::shared_ptr<const trace::Trace> trace;
    sim::RunOptions options;
    /// Lazy alternative to `trace`: path to a serialized ufctrace file,
    /// deserialized per attempt inside the job's isolation boundary.
    std::string traceFile;
};

/** Runner knobs. */
struct RunnerConfig
{
    /// Worker threads; <= 0 means std::thread::hardware_concurrency().
    int threads = 0;
    /// Emit one machine-readable status line to stderr as each job
    /// finishes ("[jobs_done/jobs_total] <label> status=... ...
    /// cache=<JobOutcome::memo>").  Lines are serialized under a mutex
    /// so concurrent completions cannot interleave characters.  Progress
    /// output never affects results (stderr only, completion order).
    bool progress = false;
    /// Extra attempts after a failed one (not applied to timeouts — a
    /// hung job would hang again).  0 = fail on the first error.
    int maxRetries = 0;
    /// Delay schedule between retry attempts: capped exponential with
    /// deterministic seeded jitter keyed on the job label (see
    /// common/backoff.h).  Replaces the immediate re-run: a correlated
    /// transient fault gets time to clear instead of burning the retry
    /// budget instantly.  Set baseMs <= 0 to restore immediate retry.
    /// Sleeping never affects results — only host wall-clock.
    BackoffPolicy retryBackoff;
    /// Optional cooperative cancellation flag (not owned): once it reads
    /// true, jobs not yet started are marked JobStatus::Skipped instead
    /// of running, and runAll() returns as soon as in-flight jobs
    /// finish.  sweep_all points this at its SIGINT/SIGTERM flag so an
    /// interrupted sweep still flushes a partial report.
    const std::atomic<bool> *cancelFlag = nullptr;
    /// Per-attempt cooperative deadline in host seconds, enforced via
    /// the cycle engine's poll points; <= 0 disables.  A tripped
    /// deadline marks the job timed_out without disturbing the batch.
    double jobTimeoutSeconds = 0.0;
    /// Optional deterministic fault source (tests): consulted at the
    /// top of every job attempt; an injected fault follows the normal
    /// failure/retry path.  Not owned.
    const FaultInjector *faults = nullptr;
    /// Bound on the batch-scoped ProgramCache's lowerings and memoized
    /// results, each (0 = unbounded).  Bounded caches evict FIFO; an
    /// evicted lowering is lowered again on its next use.  Results are identical either way — lowering is
    /// deterministic — only host time and peak memory change.
    std::size_t programCacheMaxEntries = 0;
};

/** Terminal state of one job within a batch. */
enum class JobStatus
{
    Ok,        ///< first attempt succeeded
    RetriedOk, ///< a retry succeeded after >= 1 failed attempts
    Failed,    ///< all attempts failed (last error captured)
    TimedOut,  ///< deadline/watchdog tripped (never retried)
    Skipped,   ///< batch cancelled before this job started
};

/** Stable lower-case tag for reports: "ok", "retried_ok", "failed",
 *  "timed_out", "skipped". */
const char *jobStatusName(JobStatus status);

/** Per-job diagnostic record filled by ExperimentRunner::runAll(). */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    /// Attempts consumed (1 = no retry).
    int attempts = 1;
    /// ufc::Error::kind() of the captured error ("TraceError",
    /// "ConfigError", "SimError"); empty for a clean Ok.  RetriedOk
    /// keeps the kind/message of the last *failed* attempt as the
    /// retry diagnostic.
    std::string errorKind;
    /// Captured what() of the error; empty for a clean Ok.
    std::string message;
    /// Formatted tail of the metrics flight recorder captured when the
    /// job settled as Failed/TimedOut (empty on success, or when metrics
    /// are off).  The events are process-wide — neighbouring jobs'
    /// entries appear too, which is exactly the post-mortem context a
    /// failure in a 100-job sweep needs.
    std::vector<std::string> recentEvents;
    /// Static cost-bound audit (RunOptions::boundsCheck).  Host-side
    /// only — never serialized into RunResult, so reports stay
    /// bit-identical with the gate on or off.  When boundsChecked is
    /// true the bounds below were computed before execution; a
    /// violation fails the job (SimError) with the fields still filled.
    bool boundsChecked = false;
    double cyclesLower = 0.0; ///< guaranteed min total cycles
    double cyclesUpper = 0.0; ///< guaranteed max total cycles
    double hbmLower = 0.0;    ///< guaranteed min HBM bytes
    double hbmUpper = 0.0;    ///< guaranteed max HBM bytes
    /// What the ProgramCache result memo did for the last attempt:
    /// "hit", "miss", or "off" (no cache, or a run the memo skips).
    /// Host-side only, like the bounds above.
    const char *memo = "off";

    /// Did the job produce a valid result?
    bool
    ok() const
    {
        return status == JobStatus::Ok || status == JobStatus::RetriedOk;
    }
};

/**
 * A completed batch: one result slot and one outcome per job, in job
 * order.  Failed/timed-out slots hold a placeholder RunResult carrying
 * only the job's label; consult outcomes[i].ok() before reading a slot.
 */
struct BatchResult
{
    std::vector<sim::RunResult> results;
    std::vector<JobOutcome> outcomes;

    std::size_t failureCount() const;
    bool allOk() const { return failureCount() == 0; }

    /// True when the batch was cancelled before every job ran (some
    /// outcome is JobStatus::Skipped).
    bool interrupted() const;

    /// Results of the successful jobs only (job order preserved).
    std::vector<sim::RunResult> okResults() const;

    /// Throw the first failure as a typed ufc::Error (TimedOut as
    /// TimeoutError); no-op when allOk().
    void throwFirstFailure() const;
};

/**
 * Executes a batch of jobs concurrently.  Results are returned in job
 * order regardless of scheduling, so `run(jobs)` with any thread count
 * produces the same vector (only hostSeconds, a host-side measurement,
 * varies).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunnerConfig &cfg = RunnerConfig{});

    /**
     * Run every job with per-job fault isolation; blocks until all
     * complete.  Never throws for job-level failures — each job's
     * fate lands in its JobOutcome, and the sibling jobs' results are
     * bit-identical to a batch without the failing jobs.
     */
    BatchResult runAll(const std::vector<Job> &jobs) const;

    /** Run every job; blocks until all complete.  Convenience wrapper
     *  over runAll() that throws the first failure's typed ufc::Error
     *  (after the whole batch has finished) — for callers that treat
     *  any failure as fatal. */
    std::vector<sim::RunResult> run(const std::vector<Job> &jobs) const;

    /**
     * Execute ONE job on the calling thread with the full isolation
     * machinery (typed-error capture, bounded retries with backoff,
     * deadline mapping, flight-recorder post-mortem on failure).  Every
     * Bytecode job takes one path: validate the options, compile
     * (through `cache` when given), the dataflow and cost-bound
     * pre-flights, the result-memo lookup (with `cache`), execute.
     * TraceIr jobs run the reference interpreter through run().
     * runAll() calls this per job; the ufc_serve daemon calls it per
     * accepted request, passing its persistent ProgramCache so
     * lowerings and results stay warm across requests.  `cache` may be
     * null (private compile, no memo).  Fills RunResult::hostSeconds.
     * Never throws for job-level failures.
     */
    void runJob(const Job &job, std::size_t index,
                sim::RunResult &result, JobOutcome &outcome,
                ProgramCache *cache) const;

    /** Threads the pool would use for a batch of `jobs` jobs. */
    int effectiveThreads(std::size_t jobs) const;

    const RunnerConfig &config() const { return cfg_; }

  private:
    RunnerConfig cfg_;
};

/**
 * Label-indexed view over a batch's results.  Lookup keys are the Job
 * labels (== RunResult::label).
 */
class ResultSet
{
  public:
    ResultSet() = default;
    explicit ResultSet(std::vector<sim::RunResult> results);

    /** Result with the given label; throws ufc::ConfigError if absent. */
    const sim::RunResult &at(const std::string &label) const;
    bool contains(const std::string &label) const;

    const std::vector<sim::RunResult> &all() const { return results_; }
    std::size_t size() const { return results_.size(); }

  private:
    std::vector<sim::RunResult> results_;
    std::unordered_map<std::string, std::size_t> byLabel_;
};

/** Canonical label format shared by the sweep builders and the benches:
 *  "<sweep>/<group>/<workload>/<machine>". */
std::string jobLabel(const std::string &sweep, const std::string &group,
                     const std::string &workload,
                     const std::string &machine);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_RUNNER_H
