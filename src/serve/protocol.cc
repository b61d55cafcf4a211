#include "serve/protocol.hh"

#include <algorithm>
#include <cstdio>

#include "base/json.hh"
#include "prefetch/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace serve
{

namespace
{

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Result<std::vector<std::string>>
stringArray(const JsonValue &v, const std::string &key,
            std::size_t max_entries)
{
    const JsonValue *member = v.find(key);
    if (!member || !member->isArray())
        return Error(Errc::InvalidArgument,
                     "job." + key + " must be an array of strings");
    if (member->array.empty())
        return Error(Errc::InvalidArgument,
                     "job." + key + " must not be empty");
    if (member->array.size() > max_entries)
        return Error(Errc::InvalidArgument,
                     "job." + key + " exceeds " +
                         std::to_string(max_entries) + " entries");
    std::vector<std::string> out;
    out.reserve(member->array.size());
    for (const JsonValue &element : member->array) {
        if (!element.isString())
            return Error(Errc::InvalidArgument,
                         "job." + key +
                             " must contain only strings");
        out.push_back(element.str);
    }
    return out;
}

void
writeStringArray(JsonWriter &w, const std::string &key,
                 const std::vector<std::string> &values)
{
    w.key(key);
    w.beginArray();
    for (const auto &value : values)
        w.value(value);
    w.endArray();
}

} // anonymous namespace

JsonLimits
protocolJsonLimits()
{
    JsonLimits limits;
    limits.maxDepth = 16;
    limits.maxStringBytes = 4096;
    limits.maxNumberChars = 32;
    limits.maxDocumentBytes = MaxRequestBytes;
    return limits;
}

Result<JobSpec>
parseJobSpec(const JsonValue &v)
{
    if (!v.isObject())
        return Error(Errc::InvalidArgument, "job must be an object");

    JobSpec spec;
    {
        Result<std::vector<std::string>> workloads =
            stringArray(v, "workloads", 1024);
        if (!workloads.ok())
            return workloads.error();
        spec.workloads = std::move(workloads).value();
    }
    {
        Result<std::vector<std::string>> schemes =
            stringArray(v, "schemes", 256);
        if (!schemes.ok())
            return schemes.error();
        spec.schemes = std::move(schemes).value();
    }
    if (const JsonValue *pf_opts = v.find("pf_opts")) {
        if (!pf_opts->isArray())
            return Error(Errc::InvalidArgument,
                         "job.pf_opts must be an array of strings");
        for (const JsonValue &opt : pf_opts->array) {
            if (!opt.isString())
                return Error(Errc::InvalidArgument,
                             "job.pf_opts must contain only strings");
            spec.pfOpts.push_back(opt.str);
        }
    }
    spec.insts = v.uintOr("insts", spec.insts);
    spec.seed = v.uintOr("seed", spec.seed);
    spec.cores = static_cast<unsigned>(v.uintOr("cores", 1));
    spec.dramBackend = v.strOr("dram", spec.dramBackend);

    if (spec.insts == 0)
        return Error(Errc::InvalidArgument,
                     "job.insts must be positive");
    if (spec.cores == 0 || spec.cores > 255)
        return Error(Errc::InvalidArgument,
                     "job.cores must be in 1..255");

    // Fail fast at the submission boundary, exactly like runMatrix
    // does at its entry: unknown names never reach the queue.
    for (const auto &name : spec.workloads) {
        Result<WorkloadPtr> found = findWorkloadChecked(name);
        if (!found.ok())
            return found.error();
    }
    for (auto &name : spec.schemes) {
        if (!prefetcherRegistry().contains(name))
            return Error(Errc::InvalidArgument,
                         "unknown scheme '" + name + "'");
        name = prefetcherRegistry().canonicalName(name);
    }
    {
        Result<void> valid = prefetcherRegistry().validateOptions(
            spec.schemes, spec.pfOpts);
        if (!valid.ok())
            return Error(Errc::InvalidArgument,
                         valid.error().message);
    }
    return spec;
}

std::string
jobSpecJson(const JobSpec &spec)
{
    JsonWriter w;
    w.beginObject();
    writeStringArray(w, "workloads", spec.workloads);
    writeStringArray(w, "schemes", spec.schemes);
    w.field("insts", spec.insts);
    w.field("seed", spec.seed);
    w.field("cores", static_cast<std::uint64_t>(spec.cores));
    w.field("dram", spec.dramBackend);
    if (!spec.pfOpts.empty())
        writeStringArray(w, "pf_opts", spec.pfOpts);
    w.endObject();
    return w.str();
}

SystemConfig
configFor(const JobSpec &spec)
{
    SystemConfig config;
    config.mem.numCores = spec.cores;
    config.mem.dramBackend = spec.dramBackend;
    config.pfOpts = spec.pfOpts;
    return config;
}

std::uint64_t
jobFingerprint(const JobSpec &spec)
{
    // The cell-space fingerprint ignores budget and seed (the
    // checkpoint header carries them separately); the job key must
    // distinguish them, so fold them in on top.
    std::uint64_t hash = checkpointFingerprint(
        spec.workloads, spec.schemes,
        checkpointConfigTag(configFor(spec)));
    constexpr std::uint64_t prime = 0x100000001b3ull;
    hash = (hash ^ spec.insts) * prime;
    hash = (hash ^ spec.seed) * prime;
    return hash;
}

std::string
jobKey(const JobSpec &spec)
{
    return hex16(jobFingerprint(spec));
}

bool
validJobKey(const std::string &key)
{
    if (key.size() != 16)
        return false;
    for (const char c : key)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

Result<Request>
parseRequest(const std::string &line)
{
    Result<JsonValue> parsed = parseJson(line, protocolJsonLimits());
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &v = parsed.value();
    if (!v.isObject())
        return Error(Errc::InvalidArgument,
                     "request must be a JSON object");

    Request request;
    const std::string op = v.strOr("op", "");
    if (op == "submit") {
        request.op = Request::Op::Submit;
        const JsonValue *job = v.find("job");
        if (!job)
            return Error(Errc::InvalidArgument,
                         "submit needs a job object");
        Result<JobSpec> spec = parseJobSpec(*job);
        if (!spec.ok())
            return spec.error();
        request.spec = std::move(spec).value();
    } else if (op == "status") {
        request.op = Request::Op::Status;
    } else if (op == "subscribe") {
        request.op = Request::Op::Subscribe;
        request.job = v.strOr("job", "");
        if (!validJobKey(request.job))
            return Error(Errc::InvalidArgument,
                         "subscribe needs a 16-hex-digit job key");
    } else if (op == "result") {
        request.op = Request::Op::Result;
        request.job = v.strOr("job", "");
        if (!validJobKey(request.job))
            return Error(Errc::InvalidArgument,
                         "result needs a 16-hex-digit job key");
    } else if (op == "ping") {
        request.op = Request::Op::Ping;
    } else if (op == "shutdown") {
        request.op = Request::Op::Shutdown;
    } else {
        return Error(Errc::InvalidArgument,
                     op.empty() ? "request missing op"
                                : "unknown op '" + op + "'");
    }
    return request;
}

std::string
requestLine(const Request &request)
{
    JsonWriter w;
    w.beginObject();
    switch (request.op) {
      case Request::Op::Submit:
        w.field("op", "submit");
        break;
      case Request::Op::Status:
        w.field("op", "status");
        break;
      case Request::Op::Subscribe:
        w.field("op", "subscribe");
        break;
      case Request::Op::Result:
        w.field("op", "result");
        break;
      case Request::Op::Ping:
        w.field("op", "ping");
        break;
      case Request::Op::Shutdown:
        w.field("op", "shutdown");
        break;
    }
    if (request.op == Request::Op::Subscribe ||
        request.op == Request::Op::Result)
        w.field("job", request.job);
    w.endObject();
    std::string out = w.str();
    if (request.op == Request::Op::Submit) {
        // Splice the canonical job object in as the "job" member.
        out.insert(out.size() - 1,
                   ",\"job\":" + jobSpecJson(request.spec));
    }
    return out;
}

std::string
helloEvent(unsigned protocol_version)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "hello");
    w.field("server", "cbws-served");
    w.field("protocol_version",
            static_cast<std::uint64_t>(protocol_version));
    w.endObject();
    return w.str();
}

std::string
errorEvent(const std::string &message)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "error");
    w.field("message", message);
    w.endObject();
    return w.str();
}

std::string
pongEvent()
{
    return "{\"event\":\"pong\"}";
}

std::string
byeEvent()
{
    return "{\"event\":\"bye\"}";
}

std::string
ackEvent(const std::string &job_key, std::size_t cells, bool deduped,
         std::size_t queue_position)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "ack");
    w.field("job", job_key);
    w.field("cells", static_cast<std::uint64_t>(cells));
    w.field("deduped", deduped);
    w.field("queue_position",
            static_cast<std::uint64_t>(queue_position));
    w.endObject();
    return w.str();
}

std::string
workerEvent(const std::string &job_key, unsigned shard,
            const std::string &state, int pid, unsigned respawns)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "worker");
    w.field("job", job_key);
    w.field("shard", static_cast<std::uint64_t>(shard));
    w.field("state", state);
    w.field("pid", static_cast<std::uint64_t>(
                       pid > 0 ? static_cast<unsigned>(pid) : 0u));
    w.field("respawns", static_cast<std::uint64_t>(respawns));
    w.endObject();
    return w.str();
}

std::string
cellEvent(const std::string &job_key, const std::string &workload,
          const std::string &scheme, double ipc, double mpki,
          std::size_t done, std::size_t total)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "cell");
    w.field("job", job_key);
    w.field("workload", workload);
    w.field("scheme", scheme);
    w.field("ipc", ipc);
    w.field("mpki", mpki);
    w.field("done", static_cast<std::uint64_t>(done));
    w.field("total", static_cast<std::uint64_t>(total));
    w.endObject();
    return w.str();
}

std::string
statsEvent(const std::string &job_key, std::size_t done,
           std::size_t total, std::uint64_t cells_delta,
           std::uint64_t insts, std::uint64_t insts_delta,
           std::uint64_t elapsed_ms, unsigned workers,
           unsigned respawns)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "stats");
    w.field("job", job_key);
    w.field("done", static_cast<std::uint64_t>(done));
    w.field("total", static_cast<std::uint64_t>(total));
    w.field("cells_delta", cells_delta);
    w.field("insts", insts);
    w.field("insts_delta", insts_delta);
    w.field("elapsed_ms", elapsed_ms);
    w.field("workers", static_cast<std::uint64_t>(workers));
    w.field("respawns", static_cast<std::uint64_t>(respawns));
    w.endObject();
    return w.str();
}

std::string
sealedEvent(const std::string &job_key, bool deduped,
            std::size_t cells, std::uint64_t wall_ms,
            std::uint64_t insts, unsigned respawns,
            const std::string &result_json)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "sealed");
    w.field("job", job_key);
    w.field("deduped", deduped);
    w.field("cells", static_cast<std::uint64_t>(cells));
    w.field("wall_ms", wall_ms);
    w.field("insts", insts);
    w.field("respawns", static_cast<std::uint64_t>(respawns));
    w.endObject();
    std::string out = w.str();
    // The result is a pre-serialised JSON array (single line by
    // construction); splice it in verbatim so the client receives
    // byte-exact report text.
    out.insert(out.size() - 1, ",\"result\":" + result_json);
    return out;
}

Result<std::string>
extractSealedResult(const std::string &event_line)
{
    // sealedEvent splices `,"result":<array>` as the final member, so
    // the bytes run from after the marker to the closing brace.
    static const std::string marker = ",\"result\":";
    const std::size_t pos = event_line.find(marker);
    if (pos == std::string::npos || event_line.empty() ||
        event_line.back() != '}')
        return Error(Errc::Corrupt,
                     "sealed event carries no result member");
    const std::size_t begin = pos + marker.size();
    return event_line.substr(begin,
                             event_line.size() - 1 - begin);
}

std::string
failedEvent(const std::string &job_key, const std::string &reason)
{
    JsonWriter w;
    w.beginObject();
    w.field("event", "failed");
    w.field("job", job_key);
    w.field("reason", reason);
    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace cbws
