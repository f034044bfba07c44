/**
 * @file
 * Experiment runner implementation, built on the shared fork-join pool
 * in common/parallel.h.  Each worker claims the next unstarted job and
 * writes its result into the job's slot, so completion order never
 * affects output order.  A fresh pool is built per batch with the
 * configured thread count; kernel-level parallelFor calls issued from
 * inside a job run inline on the job's worker (see parallel.h), so the
 * runner's thread budget is the true process concurrency.
 *
 * Fault isolation: runJob() wraps one job attempt in a catch-all, maps
 * the error to a JobOutcome (typed kind + message), and applies the
 * bounded retry policy.  Exceptions never cross the pool boundary
 * (parallelFor would terminate), and a failed job's slot holds a
 * labelled placeholder so reports stay aligned with the job list.
 */

#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/cost_bounds.h"
#include "analysis/domains.h"
#include "common/error.h"
#include "compiler/bytecode.h"
#include "common/parallel.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"
#include "trace/serialize.h"

namespace ufc {
namespace runner {

namespace {

/// Serializes --progress stderr lines: stdio does not guarantee that
/// concurrent fprintf calls cannot interleave characters, so completion
/// lines from different workers go through one lock.
std::mutex gProgressMutex;

/// How many flight-recorder events a failed job attaches to its outcome.
constexpr std::size_t kFailureEventTail = 16;

/// Registry instruments for the batch job lifecycle, resolved once.
struct RunnerMetrics
{
    metrics::Counter &jobs = metrics::counter(
        "ufc_runner_jobs_total", "Jobs executed by the experiment runner");
    metrics::Counter &jobsOk = metrics::counter(
        "ufc_runner_jobs_ok_total", "Jobs that succeeded first try");
    metrics::Counter &jobsRetried = metrics::counter(
        "ufc_runner_jobs_retried_total",
        "Jobs that succeeded after at least one retry");
    metrics::Counter &jobsFailed = metrics::counter(
        "ufc_runner_jobs_failed_total", "Jobs whose every attempt failed");
    metrics::Counter &jobsTimeout = metrics::counter(
        "ufc_runner_jobs_timeout_total",
        "Jobs cancelled by the deadline/watchdog");
    metrics::Counter &retries = metrics::counter(
        "ufc_runner_retries_total", "Extra attempts after a failed one");
    metrics::Histogram &jobUs = metrics::histogram(
        "ufc_runner_job_duration_us",
        "Per-job wall clock in microseconds, retries included");
};

RunnerMetrics &
runnerMetrics()
{
    static RunnerMetrics *m = new RunnerMetrics(); // never freed
    return *m;
}

/// Registry instruments for the batch-scoped ProgramCache.
struct ProgramCacheMetrics
{
    metrics::Counter &hits = metrics::counter(
        "ufc_program_cache_hits_total",
        "Program-cache requests served from an installed entry");
    metrics::Counter &misses = metrics::counter(
        "ufc_program_cache_misses_total",
        "Program-cache requests that triggered a lowering");
    metrics::Counter &evictions = metrics::counter(
        "ufc_program_cache_evictions_total",
        "Program-cache entries dropped by the maxEntries bound");
    metrics::Gauge &entries = metrics::gauge(
        "ufc_program_cache_entries",
        "Entries in the most recently touched program cache");
    // The result memo keeps the series names of the per-phase cache it
    // replaced, so dashboards and clients read on unchanged.
    metrics::Counter &resultHits = metrics::counter(
        "ufc_phase_cache_hits_total",
        "Result-memo lookups served a stored whole-run result");
    metrics::Counter &resultMisses = metrics::counter(
        "ufc_phase_cache_misses_total",
        "Result-memo lookups that found no stored result");
};

ProgramCacheMetrics &
programCacheMetrics()
{
    static ProgramCacheMetrics *m = new ProgramCacheMetrics();
    return *m;
}

} // namespace

compiler::Program
ProgramCache::get(const sim::AcceleratorModel &model, const trace::Trace &tr)
{
    std::string lowering = model.loweringKey();
    if (lowering.empty())
        return model.compile(tr);
    const Key key{trace::contentHash(tr), std::move(lowering)};
    return model.compileShared(tr, [&](const compiler::LowerFn &lower) {
        return lookup(key, tr.name, lower);
    });
}

void
ProgramCache::expectUses(const std::string &loweringKey, u64 traceHash,
                         u64 uses)
{
    std::lock_guard<std::mutex> lock(mu_);
    announced_[Key{traceHash, loweringKey}] = uses;
}

std::shared_ptr<const compiler::LoweredProgram>
ProgramCache::lookup(const Key &key, const std::string &workload,
                     const compiler::LowerFn &lower)
{
    std::promise<std::shared_ptr<const compiler::LoweredProgram>> promise;
    Lowering lowering;
    bool owner = false;
    u64 evicted = 0;
    std::size_t entryCount = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            Entry entry;
            entry.lowering = promise.get_future().share();
            const auto planned = announced_.find(key);
            if (planned != announced_.end()) {
                entry.usesLeft = planned->second;
                announced_.erase(planned);
            }
            it = entries_.emplace(key, std::move(entry)).first;
            order_.push_back(key);
            owner = true;
        }
        lowering = it->second.lowering;
        // The last announced request releases the entry: the lowering
        // then lives exactly as long as the Programs bound to it.
        if (it->second.usesLeft > 0 && --it->second.usesLeft == 0) {
            entries_.erase(it);
            order_.erase(std::find(order_.begin(), order_.end(), key));
        }
        // FIFO eviction: drop the oldest entry while over the bound.
        // Evicting an in-flight lowering is safe — waiters hold their
        // own shared_future copies — and the key can be re-inserted
        // (and re-lowered) later; lowering is deterministic, so only
        // host time changes.
        while (maxEntries_ > 0 && entries_.size() > maxEntries_) {
            entries_.erase(order_.front());
            order_.pop_front();
            evictions_.fetch_add(1, std::memory_order_relaxed);
            ++evicted;
        }
        entryCount = entries_.size();
    }

    if (metrics::enabled()) {
        ProgramCacheMetrics &m = programCacheMetrics();
        (owner ? m.misses : m.hits).inc();
        if (evicted > 0)
            m.evictions.inc(evicted);
        m.entries.set(static_cast<i64>(entryCount));
        metrics::flightRecorder().record(
            owner ? metrics::EventKind::CacheMiss
                  : metrics::EventKind::CacheHit,
            "program_cache", "workload=" + workload);
        if (evicted > 0)
            metrics::flightRecorder().record(
                metrics::EventKind::CacheEvict, "program_cache",
                "evicted=" + std::to_string(evicted));
    }

    // First requester lowers outside the lock (so unrelated keys are not
    // serialized behind a slow lowering) and publishes the result — or
    // the typed error — to everyone waiting on the shared future.
    if (owner) {
        lowerings_.fetch_add(1, std::memory_order_relaxed);
        try {
            promise.set_value(lower());
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return lowering.get();
}

ProgramCache::ResultKey
ProgramCache::resultKey(const sim::AcceleratorModel &model,
                        const compiler::Program &program,
                        const sim::RunOptions &opts)
{
    return ResultKey{reinterpret_cast<std::uintptr_t>(&model),
                     program.traceHash, opts.prefetchWindow,
                     opts.maxCycles};
}

std::optional<sim::RunResult>
ProgramCache::findResult(const sim::AcceleratorModel &model,
                         const compiler::Program &program,
                         const sim::RunOptions &opts)
{
    std::optional<sim::RunResult> found;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = results_.find(resultKey(model, program, opts));
        if (it != results_.end())
            found = it->second;
    }
    (found ? resultHits_ : resultMisses_)
        .fetch_add(1, std::memory_order_relaxed);
    if (metrics::enabled()) {
        ProgramCacheMetrics &m = programCacheMetrics();
        (found ? m.resultHits : m.resultMisses).inc();
    }
    return found;
}

void
ProgramCache::storeResult(const sim::AcceleratorModel &model,
                          const compiler::Program &program,
                          const sim::RunOptions &opts,
                          const sim::RunResult &result)
{
    const ResultKey key = resultKey(model, program, opts);
    std::lock_guard<std::mutex> lock(mu_);
    // First store wins: a racing run of the same key computed the same
    // result.
    if (!results_.emplace(key, result).second)
        return;
    resultOrder_.push_back(key);
    while (maxEntries_ > 0 && results_.size() > maxEntries_) {
        results_.erase(resultOrder_.front());
        resultOrder_.pop_front();
    }
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::RetriedOk: return "retried_ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Skipped: return "skipped";
    }
    return "unknown";
}

std::size_t
BatchResult::failureCount() const
{
    std::size_t n = 0;
    for (const auto &oc : outcomes)
        if (!oc.ok())
            ++n;
    return n;
}

bool
BatchResult::interrupted() const
{
    for (const auto &oc : outcomes)
        if (oc.status == JobStatus::Skipped)
            return true;
    return false;
}

std::vector<sim::RunResult>
BatchResult::okResults() const
{
    std::vector<sim::RunResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        if (outcomes[i].ok())
            out.push_back(results[i]);
    return out;
}

void
BatchResult::throwFirstFailure() const
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto &oc = outcomes[i];
        if (oc.ok())
            continue;
        const std::string msg = "job '" + results[i].label +
                                "' " + jobStatusName(oc.status) +
                                " after " + std::to_string(oc.attempts) +
                                " attempt(s): " + oc.message;
        if (oc.status == JobStatus::TimedOut)
            throw TimeoutError(msg);
        if (oc.status == JobStatus::Skipped)
            throw SimError(msg);
        if (oc.errorKind == "TraceError")
            throw TraceError(msg);
        if (oc.errorKind == "ConfigError")
            throw ConfigError(msg);
        throw SimError(msg);
    }
}

ExperimentRunner::ExperimentRunner(const RunnerConfig &cfg) : cfg_(cfg) {}

int
ExperimentRunner::effectiveThreads(std::size_t jobs) const
{
    int t = cfg_.threads;
    if (t <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        t = hw > 0 ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::size_t>(t) > jobs)
        t = static_cast<int>(jobs);
    return t < 1 ? 1 : t;
}

namespace {

/**
 * The bytecode steps of one job attempt: validate the options (before
 * paying for a compile), compile (through `cache` when given), run the
 * dataflow and cost-bound pre-flights on the Program, then answer from
 * the result memo or execute.
 */
void
runProgram(const sim::AcceleratorModel &model, const trace::Trace &tr,
           const sim::RunOptions &opts, ProgramCache *cache,
           sim::RunResult &result, JobOutcome &outcome)
{
    sim::validateRunOptions(opts);
    const compiler::Program program =
        cache ? cache->get(model, tr) : model.compile(tr);
    if (opts.dataflowLint) {
        // Program-level rules on the compiled bytecode (the trace-level
        // dataflow passes already ran in the pre-flight).
        analysis::DiagnosticReport rep;
        compiler::verifyProgram(program, rep);
        analysis::runProgramDataflow(program, rep);
        if (const analysis::Diagnostic *first = rep.firstError()) {
            throw TraceError("dataflow lint failed for program '" +
                             program.workload + "' (" +
                             std::to_string(rep.errorCount()) +
                             " error(s)): " + first->format());
        }
    }
    analysis::CostBounds bounds;
    if (opts.boundsCheck)
        bounds = analysis::analyzeCostBounds(program);
    // An identical earlier run's result, relabelled for this job;
    // timeline runs must record their slices, so they always execute.
    const bool memo = cache != nullptr && !opts.timeline;
    std::optional<sim::RunResult> memoized;
    if (memo)
        memoized = cache->findResult(model, program, opts);
    outcome.memo = !memo ? "off" : memoized ? "hit" : "miss";
    if (memoized) {
        result = std::move(*memoized);
        result.label = opts.label;
    } else {
        result = model.execute(program, opts);
    }
    if (opts.boundsCheck) {
        outcome.boundsChecked = true;
        outcome.cyclesLower = bounds.cyclesLower;
        outcome.cyclesUpper = bounds.cyclesUpper;
        outcome.hbmLower = bounds.hbmLower;
        outcome.hbmUpper = bounds.hbmUpper;
        const double cycles = result.stats.totalCycles;
        const double hbm = result.stats.hbmBytes;
        UFC_EXPECT(cycles >= bounds.cyclesLower &&
                       cycles <= bounds.cyclesUpper,
                   SimError,
                   "static cycle bound violated for '"
                       << opts.label << "': dynamic " << cycles
                       << " outside [" << bounds.cyclesLower << ", "
                       << bounds.cyclesUpper << "]");
        UFC_EXPECT(hbm >= bounds.hbmLower && hbm <= bounds.hbmUpper,
                   SimError,
                   "static HBM bound violated for '"
                       << opts.label << "': dynamic " << hbm
                       << " outside [" << bounds.hbmLower << ", "
                       << bounds.hbmUpper << "]");
    }
    if (memo && !memoized)
        cache->storeResult(model, program, opts, result);
}

} // namespace

void
ExperimentRunner::runJob(const Job &job, std::size_t index,
                         sim::RunResult &result, JobOutcome &outcome,
                         ProgramCache *cache) const
{
    const int maxAttempts = 1 + (cfg_.maxRetries > 0 ? cfg_.maxRetries
                                                     : 0);
    const std::string label =
        !job.label.empty() ? job.label
                           : "job#" + std::to_string(index);

    if (metrics::enabled())
        metrics::flightRecorder().record(metrics::EventKind::JobStart,
                                         label);

    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        outcome.attempts = attempt;
        if (attempt > 1 && metrics::enabled()) {
            runnerMetrics().retries.inc();
            metrics::flightRecorder().record(metrics::EventKind::JobRetry,
                                             label,
                                             "attempt=" +
                                                 std::to_string(attempt));
        }
        try {
            UFC_EXPECT(job.model != nullptr, ConfigError,
                       "runner job '" << label << "' has no model");
            UFC_EXPECT((job.trace != nullptr) != !job.traceFile.empty(),
                       ConfigError,
                       "runner job '" << label
                           << "' must set exactly one of trace and "
                              "traceFile");
            if (cfg_.faults)
                cfg_.faults->maybeFailJob(label, attempt);

            // Deserialization happens inside the isolation boundary so
            // a corrupt file fails this job, not the batch.
            std::shared_ptr<const trace::Trace> tr = job.trace;
            if (!tr)
                tr = std::make_shared<const trace::Trace>(
                    trace::loadTrace(job.traceFile));

            // Opt-in static-analysis pre-flight: a semantically corrupt
            // trace fails fast as a typed TraceError (carrying the
            // first diagnostic) instead of mis-simulating.  Trace-level
            // passes only — instruction-level verification depends on
            // the model's lowering options, and ufc_lint covers it
            // offline.
            if (job.options.lintTraces || job.options.dataflowLint) {
                static const analysis::Analyzer linter;
                const analysis::DiagnosticReport rep =
                    job.options.dataflowLint ? linter.analyzeDataflow(*tr)
                                             : linter.analyze(*tr);
                if (const analysis::Diagnostic *first =
                        rep.firstError()) {
                    throw TraceError(
                        "lint failed for trace '" + tr->name + "' (" +
                        std::to_string(rep.errorCount()) +
                        " error(s)): " + first->format());
                }
            }

            sim::RunOptions opts = job.options;
            if (opts.label.empty())
                opts.label = label;
            if (cfg_.jobTimeoutSeconds > 0.0)
                opts.hostDeadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            cfg_.jobTimeoutSeconds));

            const auto t0 = std::chrono::steady_clock::now();
            if (opts.execMode == sim::ExecMode::TraceIr) {
                // The reference interpreter: no Program to share, gate
                // or memoize.
                result = job.model->run(*tr, opts);
            } else {
                runProgram(*job.model, *tr, opts, cache, result, outcome);
            }
            result.hostSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
            // On a retry success, keep the previous failure's
            // kind/message as the captured diagnostic.
            outcome.status = attempt == 1 ? JobStatus::Ok
                                          : JobStatus::RetriedOk;
            if (metrics::enabled()) {
                RunnerMetrics &m = runnerMetrics();
                (attempt == 1 ? m.jobsOk : m.jobsRetried).inc();
                metrics::flightRecorder().record(
                    metrics::EventKind::JobOk, label,
                    attempt == 1 ? std::string()
                                 : "attempt=" + std::to_string(attempt));
            }
            return;
        } catch (const TimeoutError &e) {
            // Deadline/watchdog trips are terminal: retrying a hung job
            // would hang again.
            outcome.status = JobStatus::TimedOut;
            outcome.errorKind = e.kind();
            outcome.message = e.what();
            break;
        } catch (const Error &e) {
            outcome.status = JobStatus::Failed;
            outcome.errorKind = e.kind();
            outcome.message = e.what();
        } catch (const std::exception &e) {
            outcome.status = JobStatus::Failed;
            outcome.errorKind = "std::exception";
            outcome.message = e.what();
        }
        // Capped exponential backoff with deterministic jitter before
        // the next attempt (common/backoff.h) — a correlated transient
        // fault gets time to clear.  Sleeping only affects host
        // wall-clock, never simulated results.
        if (attempt < maxAttempts)
            backoffSleep(cfg_.retryBackoff, label, attempt);
    }
    // All attempts failed (or timed out): leave a labelled placeholder
    // so result slots stay aligned with the job list.
    result = sim::RunResult{};
    result.label = label;
    if (job.model)
        result.machine = job.model->name();
    if (job.trace)
        result.workload = job.trace->name;
    if (metrics::enabled()) {
        RunnerMetrics &m = runnerMetrics();
        const bool timedOut = outcome.status == JobStatus::TimedOut;
        (timedOut ? m.jobsTimeout : m.jobsFailed).inc();
        metrics::flightRecorder().record(
            timedOut ? metrics::EventKind::JobTimeout
                     : metrics::EventKind::JobFailed,
            label, outcome.errorKind);
        // Attach the post-mortem: the recorder's recent tail, including
        // this job's own terminal event.
        outcome.recentEvents =
            metrics::flightRecorder().formatTail(kFailureEventTail);
    }
}

BatchResult
ExperimentRunner::runAll(const std::vector<Job> &jobs) const
{
    BatchResult batch;
    batch.results.resize(jobs.size());
    batch.outcomes.resize(jobs.size());

    std::atomic<std::size_t> jobsDone{0};
    // Batch-scoped: the jobs' shared_ptrs keep every model alive for at
    // least as long as the cache (see ProgramCache lifetime contract).
    ProgramCache cache(cfg_.programCacheMaxEntries);
    // Register the cache series even when no job ends up sharing a
    // program (a scrape should see the counters at zero, not miss the
    // series entirely).
    if (metrics::enabled())
        (void)programCacheMetrics();

    // A lowering is only worth retaining when a sibling job will bind
    // it.  The job list is known up front, so count the jobs per
    // lowering key (the ProgramCache key): singleton jobs compile
    // privately and free their Program at job end — the allocator then
    // recycles those already-faulted pages for the next job's compile
    // instead of every job paying first-touch cost on fresh ones — and
    // a shared lowering is released after its last job, so the batch
    // peak RSS stays bounded by the lowerings still in use.
    using LoweringId = std::pair<std::string, u64>; // key, trace hash
    std::vector<LoweringId> lowering(jobs.size());
    std::unordered_map<const trace::Trace *, u64> traceHashes;
    std::map<LoweringId, u64> jobsPerLowering;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        if (!job.model || !job.trace ||
            job.options.execMode != sim::ExecMode::Bytecode)
            continue;
        lowering[i].first = job.model->loweringKey();
        if (lowering[i].first.empty())
            continue;
        auto [it, fresh] = traceHashes.try_emplace(job.trace.get(), 0);
        if (fresh)
            it->second = trace::contentHash(*job.trace);
        lowering[i].second = it->second;
        ++jobsPerLowering[lowering[i]];
    }
    std::vector<char> sharedProgram(jobs.size(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        sharedProgram[i] = !lowering[i].first.empty() &&
                           jobsPerLowering[lowering[i]] > 1;
    for (const auto &[id, n] : jobsPerLowering)
        if (n > 1)
            cache.expectUses(id.first, id.second, n);

    ThreadPool pool(effectiveThreads(jobs.size()));
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        // Cooperative cancellation (SIGINT/SIGTERM in sweep_all): jobs
        // not yet started are marked Skipped so the partial report
        // still accounts for every job, and in-flight siblings finish
        // normally — their results stay bit-identical to an
        // uninterrupted run.
        if (cfg_.cancelFlag &&
            cfg_.cancelFlag->load(std::memory_order_relaxed)) {
            auto &oc = batch.outcomes[i];
            oc.status = JobStatus::Skipped;
            oc.attempts = 0;
            oc.errorKind = "Interrupted";
            oc.message = "batch cancelled before this job started";
            auto &r = batch.results[i];
            r = sim::RunResult{};
            r.label = !jobs[i].label.empty()
                          ? jobs[i].label
                          : "job#" + std::to_string(i);
            return;
        }
        // Per-job wall clock (retries included) for the latency
        // histogram and the --progress line; skipped entirely when
        // neither consumer is active.
        const bool timeJob = cfg_.progress || metrics::enabled();
        const auto t0 = timeJob ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
        runJob(jobs[i], i, batch.results[i], batch.outcomes[i],
               sharedProgram[i] ? &cache : nullptr);
        double wallMs = 0.0;
        if (timeJob) {
            wallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
            if (metrics::enabled()) {
                RunnerMetrics &m = runnerMetrics();
                m.jobs.inc();
                m.jobUs.record(static_cast<u64>(wallMs * 1000.0));
            }
        }
        if (cfg_.progress) {
            const std::size_t done =
                jobsDone.fetch_add(1, std::memory_order_relaxed) + 1;
            const auto &r = batch.results[i];
            const auto &oc = batch.outcomes[i];
            // One line per completed job, serialized so concurrent
            // completions cannot interleave characters.
            std::lock_guard<std::mutex> lock(gProgressMutex);
            if (oc.ok()) {
                std::fprintf(stderr,
                             "[%zu/%zu] %s status=%s machine=%s "
                             "workload=%s wall_ms=%.1f cache=%s\n",
                             done, jobs.size(), r.label.c_str(),
                             jobStatusName(oc.status),
                             r.machine.c_str(), r.workload.c_str(),
                             wallMs, oc.memo);
            } else {
                std::fprintf(stderr,
                             "[%zu/%zu] %s status=%s attempts=%d "
                             "wall_ms=%.1f error=%s: %s\n",
                             done, jobs.size(), r.label.c_str(),
                             jobStatusName(oc.status), oc.attempts,
                             wallMs, oc.errorKind.c_str(),
                             oc.message.c_str());
            }
        }
    });
    return batch;
}

std::vector<sim::RunResult>
ExperimentRunner::run(const std::vector<Job> &jobs) const
{
    BatchResult batch = runAll(jobs);
    batch.throwFirstFailure();
    return std::move(batch.results);
}

ResultSet::ResultSet(std::vector<sim::RunResult> results)
    : results_(std::move(results))
{
    for (std::size_t i = 0; i < results_.size(); ++i) {
        if (results_[i].label.empty())
            continue;
        const bool fresh =
            byLabel_.emplace(results_[i].label, i).second;
        UFC_EXPECT(fresh, ConfigError,
                   "duplicate run label: " << results_[i].label);
    }
}

const sim::RunResult &
ResultSet::at(const std::string &label) const
{
    const auto it = byLabel_.find(label);
    UFC_EXPECT(it != byLabel_.end(), ConfigError,
               "no run labelled: " << label);
    return results_[it->second];
}

bool
ResultSet::contains(const std::string &label) const
{
    return byLabel_.find(label) != byLabel_.end();
}

std::string
jobLabel(const std::string &sweep, const std::string &group,
         const std::string &workload, const std::string &machine)
{
    return sweep + "/" + group + "/" + workload + "/" + machine;
}

} // namespace runner
} // namespace ufc
