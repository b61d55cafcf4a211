/**
 * @file
 * Wire protocol of cbws-served: newline-delimited JSON over a
 * unix-domain (or TCP) stream socket. Clients send request objects,
 * the daemon answers with event objects; both directions are one
 * JSON document per line, so the framing is trivial and every
 * message is independently parseable.
 *
 * Requests ({"op": ...}):
 *   submit    {"op":"submit","job":{...JobSpec...}}
 *   status    {"op":"status"}
 *   subscribe {"op":"subscribe","job":"<key>"}
 *   result    {"op":"result","job":"<key>"}
 *   ping      {"op":"ping"}
 *   shutdown  {"op":"shutdown"}
 *
 * Events ({"event": ...}): hello, ack, error, pong, status, worker,
 * cell, stats, sealed, failed, bye — built by the functions below and
 * documented field-by-field in docs/SERVING.md (schema versioned like
 * every other format, see ServeProtocolVersion).
 *
 * Requests come off a socket, i.e. from an untrusted peer: they are
 * parsed under deliberately tight JsonLimits (protocolJsonLimits) and
 * a JobSpec is validated fail-fast against the workload and
 * prefetcher registries before anything is queued.
 */

#ifndef CBWS_SERVE_PROTOCOL_HH
#define CBWS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/jsonparse.hh"
#include "base/result.hh"
#include "sim/config.hh"

namespace cbws
{
namespace serve
{

/** Version stamped into the hello event and every job spool file. */
constexpr unsigned ServeProtocolVersion = 1;

/** Maximum accepted request-line length, enforced at the framing
 *  layer before the parser ever sees the bytes. */
constexpr std::size_t MaxRequestBytes = 256 * 1024;

/** Tight parser bounds for socket input (see base/jsonparse.hh). */
JsonLimits protocolJsonLimits();

/**
 * One experiment-matrix job: the cross product of workloads x schemes
 * at a fixed instruction budget/seed/system config — exactly the cell
 * space of runMatrix, which is what the workers execute.
 */
struct JobSpec
{
    std::vector<std::string> workloads;
    std::vector<std::string> schemes; ///< canonicalised registry names
    std::uint64_t insts = 120000;
    std::uint64_t seed = 42;
    unsigned cores = 1;
    std::string dramBackend = "fixed";
    std::vector<std::string> pfOpts;

    std::size_t
    cellCount() const
    {
        return workloads.size() * schemes.size();
    }
};

/**
 * Parse and validate a job object: every workload must exist, every
 * scheme must be registered (names are canonicalised in place), and
 * pf_opts must pass PrefetcherRegistry::validateOptions — the same
 * fail-fast gate runMatrix applies, moved to submission time so a bad
 * job is rejected before it ever reaches the queue.
 */
Result<JobSpec> parseJobSpec(const JsonValue &v);

/** Canonical JSON object for @p spec (spool files, ack echos). */
std::string jobSpecJson(const JobSpec &spec);

/** The SystemConfig a spec's cells simulate under (scheme unset —
 *  it is per-cell). Mirrors the cbws-sim flag mapping. */
SystemConfig configFor(const JobSpec &spec);

/**
 * Content fingerprint identifying a job's result: the checkpoint
 * fingerprint of its cell space and config, further mixed with the
 * instruction budget and seed. Two submissions with equal keys are
 * the same experiment — the dedup invariant.
 */
std::uint64_t jobFingerprint(const JobSpec &spec);

/** jobFingerprint as the 16-hex-digit job key used on the wire. */
std::string jobKey(const JobSpec &spec);

/**
 * True iff @p key has the exact canonical jobKey() shape (16
 * lowercase hex digits). Job keys arrive from untrusted peers and are
 * spliced into filesystem paths (jobs/<key>/result.json), so anything
 * else — traversal sequences, embedded NULs, empty strings — must be
 * rejected before it reaches the queue.
 */
bool validJobKey(const std::string &key);

/** A parsed client request. */
struct Request
{
    enum class Op
    {
        Submit,
        Status,
        Subscribe,
        Result,
        Ping,
        Shutdown,
    };

    Op op = Op::Ping;
    JobSpec spec;    ///< Submit only
    std::string job; ///< Subscribe/Result: target job key
};

/** Parse one request line (framing already stripped). */
Result<Request> parseRequest(const std::string &line);

/** Serialise a request (the client side of the wire). */
std::string requestLine(const Request &request);

// Event builders. Each returns one complete JSON line (no '\n').

std::string helloEvent(unsigned protocol_version = ServeProtocolVersion);
std::string errorEvent(const std::string &message);
std::string pongEvent();
std::string byeEvent();

/** Submission accepted (or deduped against a sealed result). */
std::string ackEvent(const std::string &job_key, std::size_t cells,
                     bool deduped, std::size_t queue_position);

/** One worker lifecycle transition (spawned/exited/killed/...). */
std::string workerEvent(const std::string &job_key, unsigned shard,
                        const std::string &state, int pid,
                        unsigned respawns);

/** One finished cell, streamed as it lands. */
std::string cellEvent(const std::string &job_key,
                      const std::string &workload,
                      const std::string &scheme, double ipc,
                      double mpki, std::size_t done,
                      std::size_t total);

/**
 * Periodic scheduling-stats snapshot delta: cells/instructions are
 * cumulative for the job, the *_delta fields cover the interval since
 * the previous stats event — subscribers can integrate either.
 */
std::string statsEvent(const std::string &job_key, std::size_t done,
                       std::size_t total, std::uint64_t cells_delta,
                       std::uint64_t insts, std::uint64_t insts_delta,
                       std::uint64_t elapsed_ms, unsigned workers,
                       unsigned respawns);

/**
 * Job sealed: @p result_json is the raw report array (exactly the
 * bytes a serial in-process run would print), embedded verbatim.
 */
std::string sealedEvent(const std::string &job_key, bool deduped,
                        std::size_t cells, std::uint64_t wall_ms,
                        std::uint64_t insts, unsigned respawns,
                        const std::string &result_json);

/** Job failed permanently (respawn budget exhausted, merge error). */
std::string failedEvent(const std::string &job_key,
                        const std::string &reason);

/**
 * Pull the spliced result array back out of a sealed event line,
 * byte-exact (re-serialising through a parse would reformat doubles
 * and break the identity the whole design guarantees).
 */
Result<std::string> extractSealedResult(const std::string &event_line);

} // namespace serve
} // namespace cbws

#endif // CBWS_SERVE_PROTOCOL_HH
