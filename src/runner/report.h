/**
 * @file
 * Structured report emission for batches of runs: a JSON document
 * (metadata + one object per run, built on sim::RunResult::toJson())
 * and a flat CSV (RunResult::csvHeader() + one toCsvRow() per run).
 *
 * Two envelopes:
 *   "ufc.report/v1" — plain result vectors (no failure information).
 *   "ufc.report/v2" — BatchResult overloads: v1 plus a top-level
 *       "failures" array ({label, status, error_kind, message,
 *       attempts} per non-ok job), "failure_count", and per-run rows
 *       for successful jobs only.  The CSV variant appends
 *       status/attempts/error_kind/error columns to every row; failed
 *       rows keep their label with the metric columns zeroed.
 */

#ifndef UFC_RUNNER_REPORT_H
#define UFC_RUNNER_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "sim/stats.h"

namespace ufc {
namespace runner {

/** Schema identifier of the plain (results-only) report envelope. */
inline constexpr const char *kReportSchema = "ufc.report/v1";
/** Schema identifier of the batch (results + failures) envelope. */
inline constexpr const char *kBatchReportSchema = "ufc.report/v2";

/** Optional report metadata recorded in the JSON envelope. */
struct ReportMeta
{
    std::string generator = "ufc-runner"; ///< producing tool
    int threads = 0;          ///< pool size used (0 = unknown)
    double wallSeconds = 0.0; ///< end-to-end batch wall-clock
    /// The producing batch was cancelled (SIGINT/SIGTERM) before every
    /// job ran.  When true the envelope carries "interrupted":true and
    /// the skipped jobs appear in the failures block with status
    /// "skipped"; when false the envelope is byte-identical to one
    /// written before this field existed.
    bool interrupted = false;
    /// Host fingerprint as one JSON object (the bench binaries fill
    /// it); written as "host" only when set.
    std::string hostJson;
};

/** Write the JSON report document. */
void writeJsonReport(const std::vector<sim::RunResult> &results,
                     std::ostream &os, const ReportMeta &meta = {});
/** Write the CSV report (header + one row per run). */
void writeCsvReport(const std::vector<sim::RunResult> &results,
                    std::ostream &os);

/** Batch-aware JSON report: successful runs plus the structured
 *  "failures" block (schema "ufc.report/v2"). */
void writeJsonReport(const BatchResult &batch, std::ostream &os,
                     const ReportMeta &meta = {});
/** Batch-aware CSV report: every job gets a row; the appended
 *  status/attempts/error_kind/error columns carry the outcome. */
void writeCsvReport(const BatchResult &batch, std::ostream &os);

/** File wrappers; throw ufc::ConfigError when the path cannot be
 *  opened. */
void saveJsonReport(const std::vector<sim::RunResult> &results,
                    const std::string &path, const ReportMeta &meta = {});
void saveCsvReport(const std::vector<sim::RunResult> &results,
                   const std::string &path);
void saveJsonReport(const BatchResult &batch, const std::string &path,
                    const ReportMeta &meta = {});
void saveCsvReport(const BatchResult &batch, const std::string &path);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_REPORT_H
