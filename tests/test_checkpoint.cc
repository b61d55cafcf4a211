/**
 * @file
 * Crash-safe checkpoint/resume: cell lines must round-trip
 * bit-exactly, torn or corrupted lines must be dropped (never
 * trusted, never fatal), mismatched experiments and schema versions
 * must be rejected at open(), and a matrix resumed from a partial
 * checkpoint must be bit-identical to an uninterrupted run at any
 * job count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/** FNV-1a, mirrored from the format so tests can forge sealed
 *  lines (wrong schema version under a *valid* checksum). */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
seal(const std::string &object_text)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(object_text)));
    std::string out = object_text;
    out.insert(out.size() - 1,
               std::string(",\"crc\":\"") + hex + "\"");
    return out;
}

/**
 * Set every listed counter of @p s to @p base plus the counter's byte
 * offset: distinct within the struct and tied to the member rather
 * than to its list row, so a dropped or reordered row changes the
 * encoded line.
 */
template <typename S>
void
fillCounters(S &s, std::uint64_t base)
{
    const auto *origin = reinterpret_cast<const char *>(&s);
    for (const auto member : S::counters()) {
        const auto *field = reinterpret_cast<const char *>(&(s.*member));
        s.*member = base + static_cast<std::uint64_t>(field - origin);
    }
}

/** A SimResult with every serialised field holding a distinct,
 *  recognisable value; @p cores > 1 adds per-core slices. */
SimResult
makeResult(std::uint64_t salt = 0, unsigned cores = 1)
{
    SimResult r;
    r.workload = "unit-workload";
    r.prefetcher = "CBWS+SMS";
    r.prefetcherStorageBits = 12345 + salt;
    fillCounters(r.core, 1000000 + salt);
    fillCounters(r.mem, 2000000 + salt);
    std::uint64_t v = 31 + salt;
    for (auto &c : r.mem.classCounts)
        c = v++;
    for (auto &c : r.mem.latenessHist)
        c = v++;
    for (unsigned s = 0; s < NumPfSources; ++s)
        fillCounters(r.mem.pfLife[s], 3000000 + 1000 * s + salt);
    r.dramBackend = "ddr";
    fillCounters(r.mem.dram, 4000000 + salt);
    if (cores == 1)
        return r;
    r.cores = cores;
    for (unsigned c = 0; c < cores; ++c) {
        CoreSliceResult &slice = r.perCore.emplace_back();
        slice.workload = "unit-workload-" + std::to_string(c);
        fillCounters(slice.core, 5000000 + 1000 * c + salt);
        fillCounters(slice.mem, 6000000 + 1000 * c + salt);
        r.mem.perCore.push_back(slice.mem);
    }
    return r;
}

TEST(CheckpointCell, LineRoundTripsBitExactly)
{
    for (unsigned cores : {1u, 4u}) {
        const SimResult original = makeResult(0, cores);
        const std::string line = checkpointCellLine(original);

        Result<SimResult> parsed = parseCheckpointCell(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error().str();
        EXPECT_TRUE(test::cellsIdentical(original, parsed.value()));

        // The strongest form: re-serialising the parsed cell
        // reproduces the identical line, checksum and all.
        EXPECT_EQ(checkpointCellLine(parsed.value()), line);
    }
}

/** checkpointCellLine(makeResult()), byte for byte. */
const char *const PinnedOneCoreLine =
    R"({"schema_version":4,"type":"cell","workload":"unit-workload","pr)"
    R"(efetcher":"CBWS+SMS","storage_bits":12345,"core":[1000000,100000)"
    R"(8,1000016,1000024,1000032,1000040,1000048,1000056],"mem":[200000)"
    R"(0,2000008,2000016,2000024,2000032,2000040,2000096,2000104,200011)"
    R"(2,2000120,2000128,2000136,2000144,2000152,2000160,2000168],"clas)"
    R"(s_counts":[31,32,33,34,35,36],"lateness_hist":[37,38,39,40,41,42)"
    R"(,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60],"pf_life)"
    R"(":[[3000000,3000008,3000016,3000024,3000032,3000040,3000048,3000)"
    R"(056,3000064],[3001000,3001008,3001016,3001024,3001032,3001040,30)"
    R"(01048,3001056,3001064],[3002000,3002008,3002016,3002024,3002032,)"
    R"(3002040,3002048,3002056,3002064],[3003000,3003008,3003016,300302)"
    R"(4,3003032,3003040,3003048,3003056,3003064],[3004000,3004008,3004)"
    R"(016,3004024,3004032,3004040,3004048,3004056,3004064],[3005000,30)"
    R"(05008,3005016,3005024,3005032,3005040,3005048,3005056,3005064],[)"
    R"(3006000,3006008,3006016,3006024,3006032,3006040,3006048,3006056,)"
    R"(3006064],[3007000,3007008,3007016,3007024,3007032,3007040,300704)"
    R"(8,3007056,3007064],[3008000,3008008,3008016,3008024,3008032,3008)"
    R"(040,3008048,3008056,3008064]],"dram_backend":"ddr","dram":[40000)"
    R"(00,4000008,4000016,4000024,4000032,4000040,4000048,4000056,40000)"
    R"(64,4000072,4000080,4000088,4000096,4000104,4000112],"crc":"2f540)"
    R"(24616f2cb8f"})";

/** checkpointCellLine(makeResult(0, 4)), byte for byte. */
const char *const PinnedFourCoreLine =
    R"({"schema_version":4,"type":"cell","workload":"unit-workload","pr)"
    R"(efetcher":"CBWS+SMS","storage_bits":12345,"core":[1000000,100000)"
    R"(8,1000016,1000024,1000032,1000040,1000048,1000056],"mem":[200000)"
    R"(0,2000008,2000016,2000024,2000032,2000040,2000096,2000104,200011)"
    R"(2,2000120,2000128,2000136,2000144,2000152,2000160,2000168],"core)"
    R"(s":4,"per_core":[{"workload":"unit-workload-0","core":[5000000,5)"
    R"(000008,5000016,5000024,5000032,5000040,5000048,5000056],"mem":[6)"
    R"(000000,6000008,6000016,6000024,6000032,6000040,6000048,6000056,6)"
    R"(000064,6000072,6000080]},{"workload":"unit-workload-1","core":[5)"
    R"(001000,5001008,5001016,5001024,5001032,5001040,5001048,5001056],)"
    R"("mem":[6001000,6001008,6001016,6001024,6001032,6001040,6001048,6)"
    R"(001056,6001064,6001072,6001080]},{"workload":"unit-workload-2",")"
    R"(core":[5002000,5002008,5002016,5002024,5002032,5002040,5002048,5)"
    R"(002056],"mem":[6002000,6002008,6002016,6002024,6002032,6002040,6)"
    R"(002048,6002056,6002064,6002072,6002080]},{"workload":"unit-workl)"
    R"(oad-3","core":[5003000,5003008,5003016,5003024,5003032,5003040,5)"
    R"(003048,5003056],"mem":[6003000,6003008,6003016,6003024,6003032,6)"
    R"(003040,6003048,6003056,6003064,6003072,6003080]}],"class_counts")"
    R"(:[31,32,33,34,35,36],"lateness_hist":[37,38,39,40,41,42,43,44,45)"
    R"(,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60],"pf_life":[[30000)"
    R"(00,3000008,3000016,3000024,3000032,3000040,3000048,3000056,30000)"
    R"(64],[3001000,3001008,3001016,3001024,3001032,3001040,3001048,300)"
    R"(1056,3001064],[3002000,3002008,3002016,3002024,3002032,3002040,3)"
    R"(002048,3002056,3002064],[3003000,3003008,3003016,3003024,3003032)"
    R"(,3003040,3003048,3003056,3003064],[3004000,3004008,3004016,30040)"
    R"(24,3004032,3004040,3004048,3004056,3004064],[3005000,3005008,300)"
    R"(5016,3005024,3005032,3005040,3005048,3005056,3005064],[3006000,3)"
    R"(006008,3006016,3006024,3006032,3006040,3006048,3006056,3006064],)"
    R"([3007000,3007008,3007016,3007024,3007032,3007040,3007048,3007056)"
    R"(,3007064],[3008000,3008008,3008016,3008024,3008032,3008040,30080)"
    R"(48,3008056,3008064]],"dram_backend":"ddr","dram":[4000000,400000)"
    R"(8,4000016,4000024,4000032,4000040,4000048,4000056,4000064,400007)"
    R"(2,4000080,4000088,4000096,4000104,4000112],"crc":"9f774e99942e15)"
    R"(de"})";

/**
 * The cell lines of makeResult() and a 4-core makeResult(0, 4),
 * byte for byte. A checkpoint written by an older build of the same
 * CheckpointSchemaVersion must resume, so these bytes may change only
 * together with a version bump.
 */
TEST(CheckpointCell, LineMatchesPinnedEncoding)
{
    const struct
    {
        SimResult cell;
        std::string line;
    } pinned[] = {
        {makeResult(), PinnedOneCoreLine},
        {makeResult(0, 4), PinnedFourCoreLine},
    };
    for (const auto &p : pinned) {
        EXPECT_EQ(checkpointCellLine(p.cell), p.line);
        Result<SimResult> parsed = parseCheckpointCell(p.line);
        ASSERT_TRUE(parsed.ok()) << parsed.error().str();
        EXPECT_TRUE(test::cellsIdentical(p.cell, parsed.value()));
        EXPECT_EQ(checkpointCellLine(parsed.value()), p.line);
    }
}

/** A real cell at a small budget: 4-core rate mode by default. */
SimResult
simulatedCell(unsigned cores = 4, const std::string &dram = "fixed")
{
    auto w = findWorkload("stencil-default");
    EXPECT_NE(w, nullptr);
    WorkloadParams params;
    params.maxInstructions = 4000;
    Trace trace;
    w->generate(trace, params);
    SystemConfig config;
    config.mem.numCores = cores;
    config.mem.dramBackend = dram;
    return runMatrixCell(trace, "stencil-default", config, "CBWS+SMS",
                         params.maxInstructions);
}

TEST(SimResultEquality, DetectsOneCounterInEveryGroup)
{
    const SimResult cell = simulatedCell();
    ASSERT_EQ(cell.perCore.size(), 4u);
    EXPECT_TRUE(cell == cell);

    struct Mutation
    {
        const char *what;
        const char *group; ///< what cellsIdentical must report
        std::function<void(SimResult &)> apply;
    };
    const std::vector<Mutation> mutations = {
        {"perCore[2].core", "perCore",
         [](SimResult &r) { ++r.perCore[2].core.robFullStalls; }},
        {"perCore[3].mem", "perCore",
         [](SimResult &r) { ++r.perCore[3].mem.l1dMisses; }},
        {"dramBackend", "identity",
         [](SimResult &r) { r.dramBackend = "ddr"; }},
        {"cores", "identity", [](SimResult &r) { ++r.cores; }},
        {"prefetcherStorageBits", "identity",
         [](SimResult &r) { ++r.prefetcherStorageBits; }},
    };
    for (const auto &m : mutations) {
        SimResult changed = cell;
        m.apply(changed);
        EXPECT_FALSE(changed == cell) << m.what;
        const ::testing::AssertionResult same =
            test::cellsIdentical(cell, changed);
        EXPECT_FALSE(same) << m.what;
        EXPECT_NE(std::string(same.message()).find(m.group),
                  std::string::npos)
            << m.what << ": " << same.message();
    }
}

TEST(SimResultEquality, HoldsAcrossAFourCoreCheckpointRoundTrip)
{
    const SimResult cell = simulatedCell();
    ASSERT_EQ(cell.cores, 4u);
    Result<SimResult> parsed =
        parseCheckpointCell(checkpointCellLine(cell));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_TRUE(parsed.value() == cell);
    EXPECT_TRUE(test::cellsIdentical(cell, parsed.value()));
}

TEST(SimResultEquality, HoldsAcrossADdrCheckpointRoundTrip)
{
    const SimResult cell = simulatedCell(1, "ddr");
    ASSERT_EQ(cell.dramBackend, "ddr");
    ASSERT_GT(cell.mem.dram.rowHits, 0u);
    Result<SimResult> parsed =
        parseCheckpointCell(checkpointCellLine(cell));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_TRUE(parsed.value() == cell);
}

TEST(CheckpointCell, TamperedLineFailsItsChecksum)
{
    std::string line = checkpointCellLine(makeResult());
    // Flip one digit somewhere in the payload.
    const std::size_t at = line.find("12345");
    ASSERT_NE(at, std::string::npos);
    line[at] = '9';

    Result<SimResult> parsed = parseCheckpointCell(line);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), Errc::Corrupt);
}

TEST(CheckpointCell, TruncatedLineIsCorruptNotACrash)
{
    const std::string line = checkpointCellLine(makeResult());
    for (std::size_t keep : {std::size_t(0), std::size_t(1),
                             line.size() / 2, line.size() - 1}) {
        Result<SimResult> parsed =
            parseCheckpointCell(line.substr(0, keep));
        EXPECT_FALSE(parsed.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(parsed.code(), Errc::Corrupt);
    }
}

TEST(CheckpointCell, WrongSchemaVersionIsRejectedAsSuch)
{
    // Forge a line whose checksum is valid but whose schema_version
    // is from the future: the diagnostic must say "version", not
    // "corrupt".
    const std::string line = checkpointCellLine(makeResult());
    const std::string marker = ",\"crc\":\"";
    std::string object = line.substr(0, line.rfind(marker)) + "}";
    const std::string old =
        "\"schema_version\":" +
        std::to_string(CheckpointSchemaVersion);
    const std::size_t at = object.find(old);
    ASSERT_NE(at, std::string::npos);
    object.replace(at, old.size(), "\"schema_version\":99");

    Result<SimResult> parsed = parseCheckpointCell(seal(object));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), Errc::VersionMismatch);
}

TEST(CheckpointFingerprint, SensitiveToNamesAndOrder)
{
    const std::uint64_t base =
        checkpointFingerprint({"a", "b"}, {"x", "y"});
    EXPECT_NE(base, checkpointFingerprint({"a"}, {"x", "y"}));
    EXPECT_NE(base, checkpointFingerprint({"b", "a"}, {"x", "y"}));
    EXPECT_NE(base, checkpointFingerprint({"a", "b"}, {"x"}));
    // The separator must keep {"ab"} and {"a","b"} apart.
    EXPECT_NE(checkpointFingerprint({"ab"}, {}),
              checkpointFingerprint({"a", "b"}, {}));
    EXPECT_EQ(base, checkpointFingerprint({"a", "b"}, {"x", "y"}));
}

/** Temp directory per test. */
class CheckpointFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/cbws-checkpoint-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        path_ = dir_ + "/matrix.ckpt";
    }

    void
    TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup failed: " << cmd;
        FaultInjector::instance().reset();
    }

    static Checkpoint::Header
    header(std::uint64_t insts = 8000, std::uint64_t seed = 42)
    {
        Checkpoint::Header h;
        h.insts = insts;
        h.seed = seed;
        h.fingerprint = checkpointFingerprint({"unit-workload"},
                                              {"CBWS+SMS", "CBWS"});
        return h;
    }

    std::vector<std::string>
    readLines() const
    {
        std::ifstream in(path_);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    void
    writeLines(const std::vector<std::string> &lines,
               const std::string &unterminated_tail = "") const
    {
        std::ofstream out(path_, std::ios::trunc);
        for (const auto &line : lines)
            out << line << "\n";
        out << unterminated_tail;
    }

    std::string dir_;
    std::string path_;
};

TEST_F(CheckpointFileTest, FreshFileThenReopenRestoresCells)
{
    const SimResult a = makeResult(0);
    SimResult b = makeResult(1000);
    b.prefetcher = "CBWS";
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header()));
        EXPECT_EQ(ckpt.resumedCells(), 0u);
        ASSERT_TRUE(ckpt.append(a));
        ASSERT_TRUE(ckpt.append(b));
        // Duplicate appends are ignored, not double-written.
        ASSERT_TRUE(ckpt.append(a));
    }
    EXPECT_EQ(readLines().size(), 4u)
        << "header + provenance + 2 cells";

    Checkpoint resumed;
    ASSERT_TRUE(resumed.open(path_, header()));
    EXPECT_EQ(resumed.resumedCells(), 2u);
    const SimResult *ra = resumed.find("unit-workload", "CBWS+SMS");
    const SimResult *rb = resumed.find("unit-workload", "CBWS");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(test::cellsIdentical(a, *ra));
    EXPECT_TRUE(test::cellsIdentical(b, *rb));
    EXPECT_EQ(resumed.find("unit-workload", "Stride"), nullptr);
}

TEST_F(CheckpointFileTest, TornTailLineIsDroppedOnResume)
{
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header()));
        ASSERT_TRUE(ckpt.append(makeResult()));
    }
    // Simulate a SIGKILL mid-append: a second cell line cut off
    // without its trailing bytes or newline.
    auto lines = readLines();
    ASSERT_EQ(lines.size(), 3u) << "header + provenance + 1 cell";
    const std::string torn = lines[2].substr(0, lines[2].size() / 2);
    writeLines(lines, torn);

    Checkpoint resumed;
    ASSERT_TRUE(resumed.open(path_, header()));
    EXPECT_EQ(resumed.resumedCells(), 1u)
        << "the intact cell survives, the torn one is dropped";
}

TEST_F(CheckpointFileTest, DifferentExperimentIsRejected)
{
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header(8000, 42)));
    }
    struct Case
    {
        const char *what;
        Checkpoint::Header h;
    };
    Checkpoint::Header other_fp = header(8000, 42);
    other_fp.fingerprint ^= 1;
    const Case cases[] = {
        {"different budget", header(9000, 42)},
        {"different seed", header(8000, 43)},
        {"different cell space", other_fp},
    };
    for (const auto &c : cases) {
        Checkpoint ckpt;
        Result<void> r = ckpt.open(path_, c.h);
        ASSERT_FALSE(r.ok()) << c.what;
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << c.what;
        EXPECT_NE(r.error().message.find("different experiment"),
                  std::string::npos)
            << c.what;
    }
}

TEST_F(CheckpointFileTest, FutureSchemaVersionIsRejectedAsSuch)
{
    writeLines({seal("{\"schema_version\":99,\"type\":\"header\","
                     "\"format\":\"cbws-checkpoint\",\"insts\":8000,"
                     "\"seed\":42,\"fingerprint\":"
                     "\"0000000000000000\"}")});
    Checkpoint ckpt;
    Result<void> r = ckpt.open(path_, header());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::VersionMismatch);
}

TEST_F(CheckpointFileTest, GarbageFileIsCorruptNotFatal)
{
    writeLines({"this is not a checkpoint"});
    Checkpoint ckpt;
    Result<void> r = ckpt.open(path_, header());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::Corrupt);
}

TEST_F(CheckpointFileTest, AppendFaultDegradesToUncheckpointedCell)
{
    Checkpoint ckpt;
    ASSERT_TRUE(ckpt.open(path_, header()));
    // Fire on every attempt: the 3-try retry loop must exhaust and
    // report the injected failure instead of aborting the run.
    FaultInjector::instance().arm(FaultSite::CheckpointAppend, 1.0);
    Result<void> r = ckpt.append(makeResult());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::FaultInjected);
    EXPECT_GE(FaultInjector::instance().hits(
                  FaultSite::CheckpointAppend),
              3u)
        << "append must have retried";

    // Disarm: the next append (of the same cell) succeeds — the
    // failure was transient, the checkpoint object still works.
    FaultInjector::instance().reset();
    ASSERT_TRUE(ckpt.append(makeResult()));
    EXPECT_EQ(readLines().size(), 3u)
        << "header + provenance + the recovered cell";
}

/** Matrix-level resume determinism. */
class CheckpointResumeTest : public CheckpointFileTest
{
  protected:
    void
    SetUp() override
    {
        CheckpointFileTest::SetUp();
        for (const char *name : {"fft-simlarge", "stencil-default"}) {
            auto w = findWorkload(name);
            ASSERT_NE(w, nullptr) << name;
            workloads_.push_back(std::move(w));
        }
        schemes_ = {"No-Prefetch", "Stride", "CBWS"};
    }

    ExperimentMatrix
    run(unsigned jobs, const std::string &checkpoint = "")
    {
        MatrixOptions options;
        options.jobs = jobs;
        options.checkpointPath = checkpoint;
        SystemConfig config;
        return runMatrix(workloads_, schemes_, config, insts_, 42,
                         options);
    }

    std::vector<WorkloadPtr> workloads_;
    std::vector<std::string> schemes_;
    static constexpr std::uint64_t insts_ = 8000;
};

TEST_F(CheckpointResumeTest, PartialCheckpointResumesBitIdentically)
{
    // Reference: an uninterrupted, uncheckpointed run.
    const ExperimentMatrix reference = run(1);

    // A full checkpointed run leaves header + provenance + 6 cell
    // lines; cutting it back to 3 cells mimics a SIGKILL halfway through the
    // matrix (the driver-level smoke test kills a real process; the
    // unit test recreates the identical on-disk state).
    const ExperimentMatrix full = run(1, path_);
    EXPECT_TRUE(test::matricesIdentical(reference, full))
        << "checkpointing must not perturb results";
    auto lines = readLines();
    ASSERT_EQ(lines.size(), 2u + 6u);
    lines.resize(2 + 3);

    for (unsigned jobs : {1u, 8u}) {
        writeLines(lines);
        const ExperimentMatrix resumed = run(jobs, path_);
        EXPECT_TRUE(test::matricesIdentical(reference, resumed))
            << "jobs=" << jobs;
        EXPECT_EQ(readLines().size(), 2u + 6u)
            << "resume must complete the file (jobs=" << jobs << ")";
    }
}

TEST_F(CheckpointResumeTest, CompletedCheckpointSkipsAllSimulation)
{
    const ExperimentMatrix first = run(1, path_);
    const auto lines = readLines();

    // Resuming a finished matrix restores every cell and appends
    // nothing new.
    const ExperimentMatrix again = run(4, path_);
    EXPECT_TRUE(test::matricesIdentical(first, again));
    EXPECT_EQ(readLines(), lines) << "no rewrites on a no-op resume";
}

TEST_F(CheckpointResumeTest, PoolFaultFallsBackToSerialAndMatches)
{
    const ExperimentMatrix reference = run(1);

    // One injected job failure in the parallel phase: runMatrix
    // must catch it, finish the missing cells serially, and still
    // produce the reference matrix.
    FaultInjector::instance().armAt(FaultSite::PoolJob, {2});
    const ExperimentMatrix faulted = run(4);
    FaultInjector::instance().reset();
    EXPECT_TRUE(test::matricesIdentical(reference, faulted));
}

} // anonymous namespace
} // namespace cbws
