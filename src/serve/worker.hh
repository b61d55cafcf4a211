/**
 * @file
 * Cell execution for cbws-served: the forked worker's shard loop, the
 * daemon's shard merge, and the serial in-process reference path.
 *
 * Determinism contract: a job's cells are distributed round-robin
 * across shards (cell_index % num_shards), every shard appends its
 * finished cells to its own crash-safe checkpoint, and the daemon
 * merges the shards back into row-major order and serialises through
 * the exact toJson() path a serial runMatrix run uses. Each cell is a
 * pure function of (workload, scheme, insts, seed, config), so the
 * merged report is byte-identical to the serial reference no matter
 * how many workers ran, how they were scheduled, or how many times
 * they were SIGKILLed and respawned mid-shard.
 */

#ifndef CBWS_SERVE_WORKER_HH
#define CBWS_SERVE_WORKER_HH

#include <string>
#include <vector>

#include "serve/jobqueue.hh"
#include "serve/protocol.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"

namespace cbws
{
namespace serve
{

/** Resolve spec.workloads against the registry. The spec was
 *  validated at submission, so failure here means the registry
 *  changed under us — reported, not fatal. */
Result<std::vector<WorkloadPtr>> resolveWorkloads(const JobSpec &spec);

/** jobs/<key>/shard-<i>.ckpt */
std::string shardCheckpointPath(const std::string &job_dir,
                                unsigned shard);

/** Checkpoint header every shard of @p spec shares (same experiment
 *  fingerprint; shards differ only in which cells they own). */
Checkpoint::Header shardHeader(const JobSpec &spec);

/**
 * The forked worker's body: run every cell of @p spec whose index
 * satisfies index % num_shards == shard, resuming from (and appending
 * to) the shard checkpoint under @p job_dir. One progress line — a
 * JSON object {"cell","workload","scheme","ipc","mpki","insts",
 * "restored"} — is written to @p progress_fd per finished cell.
 *
 * Also callable in-process by tests. Returns the worker's exit code:
 * 0 = shard complete, 130 = graceful SIGTERM drain (checkpoint
 * sealed, remaining cells left for a respawn), 1 = setup error.
 */
int runWorkerShard(const JobSpec &spec, const std::string &job_dir,
                   unsigned shard, unsigned num_shards,
                   int progress_fd);

/**
 * Merge the shard checkpoints of @p spec under @p job_dir into the
 * row-major cell vector a serial run would produce. Corrupt when any
 * cell is missing (a shard has not finished).
 */
Result<std::vector<SimResult>> mergeShards(const JobSpec &spec,
                                           const std::string &job_dir,
                                           unsigned num_shards);

/** Flatten a runMatrix result row-major (the serial reference). */
std::vector<SimResult> flattenMatrix(const ExperimentMatrix &matrix);

/** Run @p spec serially in-process — the byte-identity reference the
 *  chaos acceptance check diffs the daemon against. */
Result<std::vector<SimResult>> runJobSerial(const JobSpec &spec);

/** The canonical report bytes for a job's cells: the same
 *  toJson(vector) array both the daemon and the reference emit. */
std::string resultJson(const std::vector<SimResult> &cells);

} // namespace serve
} // namespace cbws

#endif // CBWS_SERVE_WORKER_HH
