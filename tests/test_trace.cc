/**
 * @file
 * Unit tests for the trace substrate: record constructors, the trace
 * container, the SoA pre-decode and the binary on-disk format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/decoded.hh"
#include "trace/trace.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

TEST(TraceRecord, Factories)
{
    const TraceRecord a = TraceRecord::alu(0x400, 3, 1, 2);
    EXPECT_EQ(a.cls, InstClass::IntAlu);
    EXPECT_EQ(a.pc, 0x400u);
    EXPECT_EQ(a.dest, 3);
    EXPECT_EQ(a.src1, 1);
    EXPECT_EQ(a.src2, 2);

    const TraceRecord l = TraceRecord::load(0x404, 0x10040, 5, 1, 4);
    EXPECT_EQ(l.cls, InstClass::Load);
    EXPECT_EQ(l.effAddr, 0x10040u);
    EXPECT_EQ(l.size, 4);
    EXPECT_EQ(l.line(), lineOf(0x10040));
    EXPECT_TRUE(isMemory(l.cls));

    const TraceRecord s = TraceRecord::store(0x408, 0x10080, 5, 2);
    EXPECT_EQ(s.cls, InstClass::Store);
    EXPECT_EQ(s.src1, 5);
    EXPECT_EQ(s.src2, 2);
    EXPECT_TRUE(isMemory(s.cls));

    const TraceRecord b = TraceRecord::branch(0x40c, true, 0x400, 6);
    EXPECT_EQ(b.cls, InstClass::Branch);
    EXPECT_TRUE(b.taken);
    EXPECT_EQ(b.effAddr, 0x400u);
    EXPECT_FALSE(isMemory(b.cls));

    const TraceRecord bb = TraceRecord::blockBegin(0x410, 7);
    EXPECT_EQ(bb.cls, InstClass::BlockBegin);
    EXPECT_EQ(bb.blockId, 7);
    EXPECT_TRUE(isBlockMarker(bb.cls));
    EXPECT_TRUE(isBlockMarker(InstClass::BlockEnd));
    EXPECT_FALSE(isBlockMarker(InstClass::Load));
}

TEST(TraceRecord, IsCompact)
{
    // Multi-million-record traces rely on the record staying small.
    EXPECT_LE(sizeof(TraceRecord), 32u);
}

TEST(Trace, AppendAndIterate)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    t.append(TraceRecord::alu(0x400, 1));
    t.append(TraceRecord::load(0x404, 0x1000, 2, 1));
    t.append(TraceRecord::blockBegin(0x408, 0));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t[1].cls, InstClass::Load);
    std::size_t n = 0;
    for (const auto &rec : t) {
        (void)rec;
        ++n;
    }
    EXPECT_EQ(n, 3u);
}

TEST(Trace, CountClass)
{
    Trace t;
    for (int i = 0; i < 5; ++i)
        t.append(TraceRecord::load(0x400, 0x1000 + i * 64, 1));
    for (int i = 0; i < 3; ++i)
        t.append(TraceRecord::alu(0x404, 1));
    EXPECT_EQ(t.countClass(InstClass::Load), 5u);
    EXPECT_EQ(t.countClass(InstClass::IntAlu), 3u);
    EXPECT_EQ(t.countClass(InstClass::Store), 0u);
}

TEST(TraceFile, RoundTrip)
{
    Trace t;
    for (int i = 0; i < 100; ++i) {
        t.append(TraceRecord::load(0x400 + i * 4, 0x10000 + i * 64,
                                   static_cast<RegIndex>(i % 32), 1));
        t.append(TraceRecord::branch(0x800 + i * 4, i % 2 == 0,
                                     0x400, 2));
    }
    const std::string path = testing::TempDir() + "cbws_trace_rt.bin";
    ASSERT_TRUE(t.saveTo(path));

    Trace loaded;
    ASSERT_TRUE(loaded.loadFrom(path));
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, t[i].pc);
        EXPECT_EQ(loaded[i].effAddr, t[i].effAddr);
        EXPECT_EQ(loaded[i].cls, t[i].cls);
        EXPECT_EQ(loaded[i].taken, t[i].taken);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceRoundTrip)
{
    Trace t;
    const std::string path = testing::TempDir() + "cbws_trace_mt.bin";
    ASSERT_TRUE(t.saveTo(path));
    Trace loaded;
    loaded.append(TraceRecord::alu(1, 1)); // should be cleared
    ASSERT_TRUE(loaded.loadFrom(path));
    EXPECT_TRUE(loaded.empty());
    std::remove(path.c_str());
}

TEST(TraceFile, CompressedRoundTrip)
{
    Trace t;
    Addr addr = 0x1000000;
    for (int i = 0; i < 500; ++i) {
        t.append(TraceRecord::blockBegin(0x400000, 5));
        t.append(TraceRecord::load(0x400004, addr, 3, 1, 4));
        addr += 72;
        t.append(TraceRecord::store(0x400008, addr + 9999, 3, 1));
        t.append(TraceRecord::branch(0x40000c, i % 3 != 0,
                                     0x400000, 2));
        t.append(TraceRecord::blockEnd(0x400010, 5));
    }
    const std::string path =
        testing::TempDir() + "cbws_trace_c.bin";
    ASSERT_TRUE(t.saveCompressed(path));

    Trace loaded;
    ASSERT_TRUE(loaded.loadFrom(path));
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, t[i].pc) << i;
        EXPECT_EQ(loaded[i].effAddr, t[i].effAddr) << i;
        EXPECT_EQ(loaded[i].cls, t[i].cls) << i;
        EXPECT_EQ(loaded[i].taken, t[i].taken) << i;
        EXPECT_EQ(loaded[i].src1, t[i].src1) << i;
        EXPECT_EQ(loaded[i].dest, t[i].dest) << i;
        EXPECT_EQ(loaded[i].size, t[i].size) << i;
        EXPECT_EQ(loaded[i].blockId, t[i].blockId) << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, CompressedIsSmaller)
{
    Trace t;
    for (int i = 0; i < 2000; ++i)
        t.append(TraceRecord::load(0x400000 + (i % 4) * 4,
                                   0x1000000 + i * 64ull, 3, 1));
    const std::string raw = testing::TempDir() + "cbws_raw.bin";
    const std::string comp = testing::TempDir() + "cbws_comp.bin";
    ASSERT_TRUE(t.saveTo(raw));
    ASSERT_TRUE(t.saveCompressed(comp));
    auto size_of = [](const std::string &p) {
        std::FILE *f = std::fopen(p.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        const long n = std::ftell(f);
        std::fclose(f);
        return n;
    };
    EXPECT_LT(size_of(comp) * 2, size_of(raw));
    std::remove(raw.c_str());
    std::remove(comp.c_str());
}

TEST(TraceFile, MissingFileFails)
{
    Trace t;
    EXPECT_FALSE(t.loadFrom("/nonexistent/dir/file.bin"));
}

TEST(TraceFile, CorruptMagicRejected)
{
    const std::string path = testing::TempDir() + "cbws_trace_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("JUNKJUNKJUNKJUNK", 1, 16, f);
    std::fclose(f);
    Trace t;
    EXPECT_FALSE(t.loadFrom(path));
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());
}

/** Save @p rec as a one-record trace (CBT2 when @p compressed, else
 *  CBT1) and load it back; the loader must reject it as Corrupt. */
void
expectCorruptRecordRejected(const TraceRecord &rec, bool compressed)
{
    const std::string path = testing::TempDir() + "cbws_trace_rec.bin";
    Trace bad;
    bad.append(rec);
    ASSERT_TRUE(compressed ? bad.saveCompressed(path)
                           : bad.saveTo(path));
    Trace t;
    const Result<void> r = t.loadFrom(path);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());
}

/** Write @p header raw plus a little padding; loading it must fail
 *  Corrupt (not throw on an impossible record count). */
void
expectCorruptHeaderRejected(const std::string &header)
{
    const std::string path = testing::TempDir() + "cbws_trace_hdr.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(header.data(), 1, header.size(), f);
    std::fwrite("\0\0\0\0\0\0\0\0", 1, 8, f);
    std::fclose(f);
    Trace t;
    const Result<void> r = t.loadFrom(path);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());
}

TEST(TraceFile, Cbt2OutOfRangeRegisterRejected)
{
    expectCorruptRecordRejected(TraceRecord::alu(0x400, 200), true);
}

TEST(TraceFile, Cbt1OutOfRangeRegisterRejected)
{
    expectCorruptRecordRejected(TraceRecord::alu(0x400, 200), false);
}

TEST(TraceFile, UnknownInstClassRejected)
{
    TraceRecord rec = TraceRecord::alu(0x400, 3);
    rec.cls = static_cast<InstClass>(
        static_cast<std::uint8_t>(InstClass::Nop) + 1);
    expectCorruptRecordRejected(rec, true);
    expectCorruptRecordRejected(rec, false);
}

TEST(TraceFile, Cbt2ImpossibleRecordCountRejected)
{
    // 2^62 as a varint: eight 0x80 continuation bytes, then 0x40.
    expectCorruptHeaderRejected(
        std::string("CBT2") + std::string(8, '\x80') + "\x40");
}

TEST(TraceFile, Cbt1ImpossibleRecordCountRejected)
{
    std::string header("CBT1");
    const std::uint32_t rec_size = sizeof(TraceRecord);
    const std::uint64_t count = std::uint64_t(1) << 61;
    header.append(reinterpret_cast<const char *>(&rec_size),
                  sizeof(rec_size));
    header.append(reinterpret_cast<const char *>(&count),
                  sizeof(count));
    expectCorruptHeaderRejected(header);
}

/** Trace index of the last record before @p i writing @p reg, found
 *  by scanning backward; NoProd for InvalidReg or no writer. */
std::uint32_t
naiveProducer(const std::vector<TraceRecord> &recs, std::size_t i,
              RegIndex reg)
{
    if (reg == InvalidReg)
        return DecodedTrace::NoProd;
    for (std::size_t j = i; j-- > 0;)
        if (recs[j].dest == reg)
            return static_cast<std::uint32_t>(j);
    return DecodedTrace::NoProd;
}

/** Whether record @p i sits inside an annotated block: a BLOCK_END
 *  always does; anything else does when the nearest marker at or
 *  before it is a BLOCK_BEGIN. */
bool
naiveInBlock(const std::vector<TraceRecord> &recs, std::size_t i)
{
    if (recs[i].cls == InstClass::BlockEnd)
        return true;
    for (std::size_t j = i + 1; j-- > 0;) {
        if (recs[j].cls == InstClass::BlockBegin)
            return true;
        if (recs[j].cls == InstClass::BlockEnd)
            return false;
    }
    return false;
}

/** Compare every column of DecodedTrace::build against the naive
 *  per-record derivation above. */
::testing::AssertionResult
decodeMatchesNaive(const std::vector<TraceRecord> &recs)
{
    const DecodedTrace d = DecodedTrace::build(recs);
    if (d.size() != recs.size())
        return ::testing::AssertionFailure() << "size " << d.size();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const TraceRecord &r = recs[i];
        const std::uint8_t flags =
            naiveInBlock(recs, i) ? DecodedTrace::InBlock : 0;
        if (d.pcLine[i] != lineOf(r.pc) ||
            d.effLine[i] != lineOf(r.effAddr) ||
            d.src1Prod[i] != naiveProducer(recs, i, r.src1) ||
            d.src2Prod[i] != naiveProducer(recs, i, r.src2) ||
            d.flags[i] != flags) {
            return ::testing::AssertionFailure()
                   << "record " << i << " (cls "
                   << static_cast<int>(r.cls) << ") decodes wrong";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(DecodedTrace, MatchesNaiveDerivationOnEdgeCases)
{
    std::vector<TraceRecord> recs = {
        // A BLOCK_END with no BLOCK_BEGIN before it.
        TraceRecord::alu(0x400, 1),
        TraceRecord::blockEnd(0x404, 9),
        // dest == src: reads its *older* producer (record 0).
        TraceRecord::alu(0x408, 1, 1, InvalidReg),
        TraceRecord::blockBegin(0x40c, 3),
        TraceRecord::load(0x410, 0x10040, 2, 1),
        TraceRecord::store(0x414, 0x10080, 2, 1),
        // InvalidReg sources on both operands.
        TraceRecord::alu(0x418, 3),
        TraceRecord::branch(0x41c, true, 0x40c, 3),
        TraceRecord::blockEnd(0x420, 3),
        TraceRecord::alu(0x1000, 2, 2, 2),
    };
    ASSERT_TRUE(decodeMatchesNaive(recs));

    const DecodedTrace d = DecodedTrace::build(recs);
    EXPECT_EQ(d.src1Prod[2], 0u);
    EXPECT_EQ(d.src1Prod[6], DecodedTrace::NoProd);
    EXPECT_EQ(d.src2Prod[6], DecodedTrace::NoProd);
    EXPECT_EQ(d.src1Prod[9], 4u);
    EXPECT_EQ(d.src2Prod[9], 4u);
    EXPECT_EQ(d.flags[1], DecodedTrace::InBlock);
    EXPECT_EQ(d.flags[2], 0u);
    EXPECT_EQ(d.flags[5], DecodedTrace::InBlock);
    EXPECT_EQ(d.flags[9], 0u);
}

TEST(DecodedTrace, MatchesNaiveDerivationOnEveryWorkload)
{
    WorkloadParams params;
    params.maxInstructions = 3000;
    params.seed = 42;
    for (const auto &w : allWorkloads()) {
        Trace t;
        w->generate(t, params);
        EXPECT_TRUE(decodeMatchesNaive(t.records())) << w->name();
    }
}

} // anonymous namespace
} // namespace cbws
