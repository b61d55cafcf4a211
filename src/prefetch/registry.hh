/**
 * @file
 * String-keyed prefetcher registry.
 *
 * Pythia-style customisable framework: every scheme is one row of
 * the fixed table in prefetch/registry.cc — the name the paper's
 * figures use ("CBWS+SMS", "GHB-PC/DC", ...), a description, its
 * ParamSchema and a factory — and consumers instantiate by name:
 *
 *     auto pf = prefetcherRegistry().create("cbws+sms", params);
 *
 * Lookup is case-insensitive, so CLI surfaces accept "cbws+sms" for
 * "CBWS+SMS". Factories receive a ParamSet — a type-erased bag of
 * the per-scheme parameter structs — and fall back to each struct's
 * Table II defaults when a slot is absent. Simulations select a
 * scheme only by name plus `key=value` options (SystemConfig::scheme
 * and ::pfOpts); makePrefetcher applies the options through the
 * scheme's ParamSchema onto an empty ParamSet.
 *
 * Adding a scheme is one row in prefetch/registry.cc plus its file
 * in src/prefetch/CMakeLists.txt. The table is built once, on first
 * use, and never changes afterwards.
 */

#ifndef CBWS_PREFETCH_REGISTRY_HH
#define CBWS_PREFETCH_REGISTRY_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** The immutable table of every prefetch scheme, keyed by name. */
class PrefetcherRegistry
{
  public:
    using Factory =
        std::unique_ptr<Prefetcher> (*)(const ParamSet &params);

    /** Build the name map from the scheme table (registry.cc);
     *  a duplicate name is a panic. */
    PrefetcherRegistry();

    /** Instantiate the scheme registered under @p name
     *  (case-insensitive). NotFound lists the registered names. */
    Result<std::unique_ptr<Prefetcher>>
    create(const std::string &name,
           const ParamSet &params = ParamSet()) const
    {
        const Entry *entry = find(name);
        if (!entry)
            return notFound(name);
        return entry->factory(params);
    }

    bool
    contains(const std::string &name) const
    {
        return find(name) != nullptr;
    }

    /** Canonical names, sorted case-insensitively (stable output for
     *  `--scheme help` regardless of table order). */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &entry : entries_)
            out.push_back(entry.second.name);
        return out; // map order == sorted canonical order
    }

    /** Canonical display form of @p name ("cbws+sms" -> "CBWS+SMS");
     *  empty when unknown. */
    std::string
    canonicalName(const std::string &name) const
    {
        const Entry *entry = find(name);
        return entry ? entry->name : std::string();
    }

    /** Registered description of @p name (empty when unknown). */
    std::string
    describe(const std::string &name) const
    {
        const Entry *entry = find(name);
        return entry ? entry->description : std::string();
    }

    /** The scheme's parameter schema — accepted keys + Table II
     *  defaults in declaration order (empty when unknown or when the
     *  scheme has no tunables). */
    const ParamSchema &
    paramSchema(const std::string &name) const
    {
        static const ParamSchema none;
        const Entry *entry = find(name);
        return entry ? entry->schema : none;
    }

    /**
     * Apply `key=value` option strings onto @p params through
     * @p name's schema. With @p ignore_unknown, keys the scheme does
     * not accept are skipped (multi-scheme runs pre-validate each key
     * against the whole selection with validateOptions()); otherwise
     * an unknown key is an InvalidArgument error listing the accepted
     * keys. Malformed values always fail.
     */
    Result<void>
    applyOptions(const std::string &name, ParamSet &params,
                 const std::vector<std::string> &opts,
                 bool ignore_unknown = false) const
    {
        const ParamSchema &schema = paramSchema(name);
        for (const auto &opt : opts) {
            std::string key, value;
            Result<void> split = splitOption(opt, key, value);
            if (!split.ok())
                return split;
            if (!schema.accepts(key)) {
                if (ignore_unknown)
                    continue;
                return Error(
                    Errc::InvalidArgument,
                    "scheme '" + name + "' does not accept "
                    "parameter '" + key + "'" +
                        (schema.empty()
                             ? " (it has no tunable parameters)"
                             : " (accepted: " + schema.keyList() +
                                   ")"));
            }
            Result<void> applied = schema.apply(params, key, value);
            if (!applied.ok())
                return Error(applied.error().code,
                             "scheme '" + name +
                                 "': " + applied.error().message);
        }
        return Result<void>();
    }

    /**
     * Validate `--pf-opt` strings against a run's scheme selection:
     * every scheme must be registered, every option must be
     * `key=value`, every key must be accepted by at least one
     * selected scheme, and the value must parse for every scheme
     * that accepts it. This is the fail-fast gate CLI surfaces and
     * runMatrix call before any simulation starts.
     */
    Result<void>
    validateOptions(const std::vector<std::string> &schemes,
                    const std::vector<std::string> &opts) const
    {
        for (const auto &scheme : schemes)
            if (!contains(scheme))
                return notFound(scheme);
        for (const auto &opt : opts) {
            std::string key, value;
            Result<void> split = splitOption(opt, key, value);
            if (!split.ok())
                return split;
            unsigned acceptors = 0;
            for (const auto &scheme : schemes) {
                const ParamSchema &schema = paramSchema(scheme);
                if (!schema.accepts(key))
                    continue;
                ++acceptors;
                ParamSet scratch;
                Result<void> applied =
                    schema.apply(scratch, key, value);
                if (!applied.ok())
                    return Error(applied.error().code,
                                 "scheme '" + scheme +
                                     "': " + applied.error().message);
            }
            if (acceptors == 0) {
                std::string accepted;
                for (const auto &scheme : schemes) {
                    const std::string keys =
                        paramSchema(scheme).keyList();
                    if (keys.empty())
                        continue;
                    accepted += (accepted.empty() ? "" : "; ") +
                                scheme + ": " + keys;
                }
                return Error(
                    Errc::InvalidArgument,
                    "no selected scheme accepts parameter '" + key +
                        "'" +
                        (accepted.empty()
                             ? ""
                             : " (accepted keys — " + accepted +
                                   ")"));
            }
        }
        return Result<void>();
    }

    /** The case-folded lookup key of a scheme name ("CBWS+SMS" ->
     *  "cbws+sms"); names are equal when their keys are. */
    static std::string
    canon(const std::string &name)
    {
        std::string out;
        out.reserve(name.size());
        for (char c : name)
            out.push_back(c >= 'A' && c <= 'Z'
                              ? static_cast<char>(c - 'A' + 'a')
                              : c);
        return out;
    }

  private:
    struct Entry
    {
        std::string name; ///< canonical display form
        std::string description;
        ParamSchema schema;
        Factory factory;
    };

    const Entry *
    find(const std::string &name) const
    {
        const auto it = entries_.find(canon(name));
        return it == entries_.end() ? nullptr : &it->second;
    }

    /** NotFound naming @p name and every registered scheme. */
    Error
    notFound(const std::string &name) const
    {
        std::string known;
        for (const auto &n : names())
            known += (known.empty() ? "" : ", ") + n;
        return Error(Errc::NotFound, "no prefetcher registered as '" +
                                         name + "' (registered: " +
                                         known + ")");
    }

    /** Split "key=value" (both non-empty) or fail InvalidArgument. */
    static Result<void>
    splitOption(const std::string &opt, std::string &key,
                std::string &value)
    {
        const auto eq = opt.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == opt.size())
            return Error(Errc::InvalidArgument,
                         "--pf-opt '" + opt +
                             "' is not of the form key=value");
        key = opt.substr(0, eq);
        value = opt.substr(eq + 1);
        return Result<void>();
    }

    std::map<std::string, Entry> entries_; ///< canon(name) -> entry
};

/** The process-wide scheme table (built on first use). */
const PrefetcherRegistry &prefetcherRegistry();

} // namespace cbws

#endif // CBWS_PREFETCH_REGISTRY_HH
