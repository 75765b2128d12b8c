/**
 * @file
 * Tests for the streaming TraceReader: chunked decode equivalence with
 * the whole-trace reader, header/trailer accessors, and the
 * recoverable-error contract on truncated and corrupted inputs
 * (property/fuzz round-trip coverage for the trace format).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "testing/random_trace.h"
#include "trace/trace_io.h"

namespace edb::trace {
namespace {

using testgen::randomTrace;

std::string
encode(const Trace &t)
{
    std::stringstream ss;
    writeTrace(t, ss);
    return ss.str();
}

/** Stream a trace through a reader in `chunk`-sized bites. */
Trace
streamWithChunks(const std::string &bytes, std::size_t chunk,
                 std::size_t buffer_bytes = TraceReader::defaultBufferBytes)
{
    std::stringstream ss(bytes);
    TraceReader reader(ss, buffer_bytes);
    Trace t;
    t.program = reader.program();
    t.registry = reader.registry();
    t.writeSites = reader.writeSites();
    std::vector<Event> buf(chunk);
    while (std::size_t n = reader.read(buf.data(), chunk))
        t.events.insert(t.events.end(), buf.begin(),
                        buf.begin() + (std::ptrdiff_t)n);
    EXPECT_TRUE(reader.done());
    t.totalWrites = reader.totalWrites();
    t.estimatedInstructions = reader.estimatedInstructions();
    return t;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.totalWrites, b.totalWrites);
    EXPECT_EQ(a.estimatedInstructions, b.estimatedInstructions);
    EXPECT_EQ(a.writeSites, b.writeSites);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
    ASSERT_EQ(a.registry.objectCount(), b.registry.objectCount());
    ASSERT_EQ(a.registry.functionCount(), b.registry.functionCount());
}

class TraceReaderRoundTrip
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceReaderRoundTrip, ChunkedStreamingMatchesReadTrace)
{
    Trace original = randomTrace(GetParam());
    std::string bytes = encode(original);

    std::stringstream ss(bytes);
    Trace whole = readTrace(ss);
    expectTracesEqual(whole, original);

    // Chunk sizes from degenerate to larger-than-trace, and a refill
    // buffer smaller than most varint runs to stress the block
    // boundary handling.
    for (std::size_t chunk : {std::size_t(1), std::size_t(3),
                              std::size_t(1000),
                              original.events.size() + 10}) {
        Trace streamed = streamWithChunks(bytes, chunk);
        expectTracesEqual(streamed, original);
    }
    Trace tiny_buffer = streamWithChunks(bytes, 64, /*buffer_bytes=*/1);
    expectTracesEqual(tiny_buffer, original);
}

TEST_P(TraceReaderRoundTrip, EveryTruncationIsACleanParseError)
{
    Trace original = randomTrace(GetParam() + 5000, 60);
    std::string bytes = encode(original);

    // Every proper prefix must throw TraceError — never hang, crash,
    // or return a silently wrong trace.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::stringstream ss(bytes.substr(0, len));
        EXPECT_THROW((void)readTrace(ss), TraceError)
            << "prefix length " << len << " of " << bytes.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReaderRoundTrip,
                         ::testing::Values(1, 2, 3));

TEST(TraceReaderHeader, ExposesTablesBeforeEvents)
{
    Trace original = randomTrace(77);
    std::string bytes = encode(original);
    std::stringstream ss(bytes);
    TraceReader reader(ss);

    EXPECT_EQ(reader.program(), original.program);
    EXPECT_EQ(reader.eventCount(), original.events.size());
    EXPECT_EQ(reader.writeSites(), original.writeSites);
    EXPECT_EQ(reader.registry().objectCount(),
              original.registry.objectCount());
    EXPECT_EQ(reader.registry().functionCount(),
              original.registry.functionCount());
    EXPECT_EQ(reader.eventsRead(), 0u);
    EXPECT_FALSE(reader.done());
}

TEST(TraceReaderHeader, EmptyTraceIsDoneAfterHeader)
{
    Tracer tracer("empty");
    Trace original = tracer.finish();
    std::string bytes = encode(original);
    std::stringstream ss(bytes);
    TraceReader reader(ss);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(reader.totalWrites(), 0u);
    Event e;
    EXPECT_EQ(reader.read(&e, 1), 0u);
}

TEST(TraceReaderTrailer, WriteCountMismatchIsAParseError)
{
    // Tamper with the totalWrites trailer: the reader cross-checks it
    // against the writes actually decoded.
    Trace original = randomTrace(123, 100);
    original.totalWrites += 1;
    std::string bytes = encode(original);
    std::stringstream ss(bytes);
    EXPECT_THROW((void)readTrace(ss), TraceError);
}

/**
 * Byte-flip fuzzing: a corrupted trace must either load (the flip
 * landed somewhere semantically inert) or raise TraceError — never
 * hang, abort, or reach undefined behaviour. Running in-process (no
 * fork) means ASan/UBSan/TSan builds check the failure path too.
 */
class TraceReaderFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceReaderFuzz, CorruptedBytesLoadOrThrow)
{
    Trace original = randomTrace(500 + (std::uint64_t)GetParam(), 200);
    std::string bytes = encode(original);

    Rng rng((std::uint64_t)GetParam() * 2654435761u + 17);
    for (int round = 0; round < 20; ++round) {
        std::string mutated = bytes;
        int flips = 1 + (int)rng.below(3);
        for (int i = 0; i < flips; ++i) {
            std::size_t at = rng.below(mutated.size());
            mutated[at] = (char)(mutated[at] ^ (1 << rng.below(8)));
        }
        std::stringstream in(mutated);
        try {
            (void)readTrace(in);
        } catch (const TraceError &) {
            // A clean, recoverable rejection.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Flips, TraceReaderFuzz,
                         ::testing::Range(0, 8));

} // namespace
} // namespace edb::trace
