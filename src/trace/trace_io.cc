/**
 * @file
 * Implementation of the binary trace formats: the streaming
 * TraceReader decoder (v1 flat and v2 blocked), the writers for both
 * generations and the whole-trace convenience wrappers built on them.
 * The v2 block codec itself lives in v2_detail.h, shared with the
 * mmap reader in trace_v2.cc.
 */

#include "trace/trace_io.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/obs.h"
#include "trace/v2_detail.h"

namespace edb::trace {

namespace {

#if EDB_OBS_ENABLED
obs::Counter obsReadBytes{"trace.read.bytes"};
obs::Counter obsReadRefills{"trace.read.refills"};
/** Refills that hit end-of-buffer mid-decode (a chunk stall: the
 *  decoder blocked on stream I/O inside an event). */
obs::Counter obsReadStalls{"trace.read.stalls"};
obs::Counter obsReadEvents{"trace.read.events"};
#endif

constexpr char magicV1[8] = {'E', 'D', 'B', 'T', 'R', 'C', '0', '2'};
constexpr char magicV2[8] = {'E', 'D', 'B', 'T', 'R', 'C', '0', '3'};
constexpr char footerMagic[4] = {'E', 'D', 'B', 'X'};
/** v2 fixed footer: u64 LE index offset + footerMagic. */
constexpr std::size_t footerBytes = 12;

/** Sanity caps: a corrupt varint must not drive a giant allocation
 *  before the stream runs dry. */
constexpr std::uint64_t maxTableEntries = 1u << 28;
constexpr std::uint64_t maxStringBytes = 1u << 20;
constexpr std::uint64_t maxEvents = 1ull << 33;

[[noreturn]] void
parseError(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void
parseError(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    throw TraceError(buf);
}

/**
 * Output wrapper counting every byte written, so the v2 writer knows
 * the index offset for the footer without relying on tellp() (which
 * pipes and some string streams do not support).
 */
struct CountedOut
{
    std::ostream &os;
    std::uint64_t n = 0;

    void
    byte(char c)
    {
        os.put(c);
        ++n;
    }

    void
    bytes(const char *p, std::size_t len)
    {
        os.write(p, (std::streamsize)len);
        n += len;
    }

    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            byte((char)((v & 0x7f) | 0x80));
            v >>= 7;
        }
        byte((char)v);
    }

    void
    str(const std::string &s)
    {
        varint(s.size());
        bytes(s.data(), s.size());
    }
};

/** Zig-zag encode a signed delta into an unsigned varint payload. */
std::uint64_t
zigzag(std::int64_t v)
{
    return ((std::uint64_t)v << 1) ^ (std::uint64_t)(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return (std::int64_t)(v >> 1) ^ -(std::int64_t)(v & 1);
}

/** The string/object tables, identical in both container formats. */
void
writeHeaderTables(CountedOut &out, const Trace &trace)
{
    out.str(trace.program);

    // Function table.
    out.varint(trace.registry.functionCount());
    for (const auto &name : trace.registry.functions())
        out.str(name);

    // Write-site table.
    out.varint(trace.writeSites.size());
    for (const auto &site : trace.writeSites)
        out.str(site);

    // Object table.
    out.varint(trace.registry.objectCount());
    for (const auto &obj : trace.registry.objects()) {
        out.varint((std::uint64_t)obj.kind);
        out.str(obj.name);
        out.varint(obj.owner == invalidFunction
                       ? 0
                       : (std::uint64_t)obj.owner + 1);
        out.varint(obj.size);
        out.varint(obj.allocContext.size());
        for (FunctionId f : obj.allocContext)
            out.varint(f);
    }
}

void
writeTraceV1(const Trace &trace, std::ostream &os)
{
    CountedOut out{os};
    out.bytes(magicV1, sizeof(magicV1));
    writeHeaderTables(out, trace);

    // Event stream, delta-encoded.
    out.varint(trace.events.size());
    Addr prev_begin = 0;
    for (const Event &e : trace.events) {
        out.varint((std::uint64_t)e.kind);
        out.varint(zigzag((std::int64_t)(e.begin - prev_begin)));
        out.varint(e.size);
        out.varint(e.aux);
        prev_begin = e.begin;
    }

    out.varint(trace.totalWrites);
    out.varint(trace.estimatedInstructions);
    if (!os)
        throw TraceError("I/O error while writing trace");
}

void
writeTraceV2(const Trace &trace, std::ostream &os,
             std::size_t block_events)
{
    CountedOut out{os};
    out.bytes(magicV2, sizeof(magicV2));
    writeHeaderTables(out, trace);
    out.varint(trace.events.size());
    out.varint(block_events);

    // (record bytes, events, writes) per block, for the index.
    std::vector<std::array<std::uint64_t, 3>> index;
    std::vector<std::uint64_t> colv[detail::colCount];
    std::string cols[detail::colCount];
    std::string rec;
    util::SmallVec<PageRun, maxSummaryRuns> runs;

    for (std::size_t pos = 0; pos < trace.events.size();
         pos += block_events) {
        const std::size_t n =
            std::min(block_events, trace.events.size() - pos);
        const Event *ev = trace.events.data() + pos;

        std::uint64_t writes = 0;
        for (std::size_t i = 0; i < n; ++i)
            writes += ev[i].kind == EventKind::Write;
        const Addr base = ev[0].begin;
        detail::summarizeWrites(ev, n, runs);

        // Split the block into the two column groups (v2_detail.h):
        // control events carry their in-block positions so the
        // decoder can re-interleave, and each group runs its own
        // begin predictor and aux delta chain.
        for (auto &c : colv)
            c.clear();
        detail::AddrPredictor ctl_pred(base);
        detail::AddrPredictor wr_pred(base);
        std::uint64_t prev_ctl_aux = 0;
        std::uint64_t prev_wr_aux = 0;
        std::uint64_t prev_pos = 0;
        bool first_ctl = true;
        for (std::size_t i = 0; i < n; ++i) {
            const Event &e = ev[i];
            if (e.kind == EventKind::Write) {
                colv[detail::colWrBegin].push_back(zigzag(
                    (std::int64_t)(e.begin -
                                   wr_pred.predict(e.aux))));
                wr_pred.update(e.aux, e.begin);
                colv[detail::colWrSize].push_back(e.size);
                colv[detail::colWrAux].push_back(zigzag(
                    (std::int64_t)(e.aux - prev_wr_aux)));
                prev_wr_aux = e.aux;
            } else {
                colv[detail::colCtlPos].push_back(
                    first_ctl ? i : i - prev_pos);
                first_ctl = false;
                prev_pos = i;
                colv[detail::colCtlKind].push_back(
                    (std::uint64_t)e.kind);
                colv[detail::colCtlBegin].push_back(zigzag(
                    (std::int64_t)(e.begin -
                                   ctl_pred.predict(e.aux))));
                ctl_pred.update(e.aux, e.begin);
                colv[detail::colCtlSize].push_back(e.size);
                colv[detail::colCtlAux].push_back(zigzag(
                    (std::int64_t)(e.aux - prev_ctl_aux)));
                prev_ctl_aux = e.aux;
            }
        }
        for (int c = 0; c < detail::colCount; ++c) {
            cols[c].clear();
            detail::rleEncodeColumn(colv[c].data(), colv[c].size(),
                                    cols[c]);
        }

        rec.clear();
        detail::bufVarint(rec, n);
        detail::bufVarint(rec, writes);
        detail::bufVarint(rec, base);
        detail::bufVarint(rec, runs.size());
        Addr prev_end = 0;
        for (const PageRun &r : runs) {
            detail::bufVarint(rec, r.firstPage - prev_end);
            detail::bufVarint(rec, r.pages);
            prev_end = r.firstPage + r.pages;
        }
        for (int c = 0; c < detail::colCount; ++c)
            detail::bufVarint(rec, cols[c].size());
        for (int c = 0; c < detail::colCount; ++c)
            rec += cols[c];

        out.bytes(rec.data(), rec.size());
        index.push_back({rec.size(), n, writes});
    }

    const std::uint64_t index_off = out.n;
    out.varint(index.size());
    for (const auto &e : index) {
        out.varint(e[0]);
        out.varint(e[1]);
        out.varint(e[2]);
    }
    out.varint(trace.totalWrites);
    out.varint(trace.estimatedInstructions);

    char foot[footerBytes];
    for (int i = 0; i < 8; ++i)
        foot[i] = (char)((index_off >> (8 * i)) & 0xff);
    std::memcpy(foot + 8, footerMagic, sizeof(footerMagic));
    out.bytes(foot, sizeof(foot));
    if (!os)
        throw TraceError("I/O error while writing trace");
}

} // namespace

/** v2 block-header source pulling varints through the refill buffer;
 *  failures report the reader's absolute offset and current block. */
struct StreamBlockSrc
{
    TraceReader &r;

    std::uint64_t varint() { return r.getVarint(); }

    [[noreturn]] void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        va_list args;
        va_start(args, fmt);
        detail::vfailTraceAt(r.bytesConsumed(), r.cur_block_, fmt,
                             args);
    }
};

void
TraceReader::fail(const char *fmt, ...) const
{
    va_list args;
    va_start(args, fmt);
    detail::vfailTraceAt(bytesConsumed(), cur_block_, fmt, args);
}

TraceReader::TraceReader(std::istream &is, std::size_t buffer_bytes)
    : is_(&is), buf_(std::max<std::size_t>(buffer_bytes, 64))
{
    parseHeader();
}

TraceReader::TraceReader(const std::string &path,
                         std::size_t buffer_bytes)
    : file_(path, std::ios::binary), is_(&file_),
      buf_(std::max<std::size_t>(buffer_bytes, 64))
{
    if (!file_)
        parseError("cannot open '%s' for reading", path.c_str());
    parseHeader();
}

void
TraceReader::refill()
{
    base_off_ += buf_len_;
    is_->read(buf_.data(), (std::streamsize)buf_.size());
    buf_len_ = (std::size_t)is_->gcount();
    buf_pos_ = 0;
#if EDB_OBS_ENABLED
    if (buf_len_ > 0) {
        obsReadBytes.add(buf_len_);
        obsReadRefills.inc();
    } else {
        // The decoder asked for bytes the stream no longer has: a
        // chunk stall (truncation or a reader outpacing its producer).
        obsReadStalls.inc();
    }
#endif
}

int
TraceReader::getByte()
{
    if (buf_pos_ == buf_len_) {
        refill();
        if (buf_len_ == 0)
            return -1;
    }
    return (unsigned char)buf_[buf_pos_++];
}

void
TraceReader::getBytes(char *out, std::size_t n)
{
    while (n > 0) {
        if (buf_pos_ == buf_len_) {
            refill();
            if (buf_len_ == 0)
                fail("trace file truncated");
        }
        std::size_t take = std::min(n, buf_len_ - buf_pos_);
        std::copy_n(buf_.data() + buf_pos_, take, out);
        buf_pos_ += take;
        out += take;
        n -= take;
    }
}

std::uint64_t
TraceReader::getVarint()
{
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
        int c = getByte();
        if (c < 0)
            fail("trace file truncated inside a varint");
        v |= (std::uint64_t)(c & 0x7f) << shift;
        if (!(c & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            fail("trace file varint overflows 64 bits");
    }
}

std::string
TraceReader::getString()
{
    auto n = getVarint();
    if (n > maxStringBytes)
        fail("trace file string length %llu implausible",
             (unsigned long long)n);
    std::string s((std::size_t)n, '\0');
    getBytes(s.data(), (std::size_t)n);
    return s;
}

void
TraceReader::parseHeader()
{
    char got[sizeof(magicV1)];
    getBytes(got, sizeof(got));
    if (std::equal(std::begin(got), std::end(got),
                   std::begin(magicV1))) {
        format_ = TraceFormat::V1Flat;
    } else if (std::equal(std::begin(got), std::end(got),
                          std::begin(magicV2))) {
        format_ = TraceFormat::V2Blocked;
    } else {
        fail("not an EDB trace file (bad magic)");
    }

    program_ = getString();

    auto nfuncs = getVarint();
    if (nfuncs > maxTableEntries)
        fail("trace file function count %llu implausible",
             (unsigned long long)nfuncs);
    for (std::uint64_t i = 0; i < nfuncs; ++i) {
        FunctionId id = registry_.internFunction(getString());
        if (id != i)
            fail("duplicate function name in trace file");
    }

    auto nsites = getVarint();
    if (nsites > maxTableEntries)
        fail("trace file write-site count %llu implausible",
             (unsigned long long)nsites);
    write_sites_.reserve((std::size_t)std::min<std::uint64_t>(
        nsites, maxStringBytes));
    for (std::uint64_t i = 0; i < nsites; ++i)
        write_sites_.push_back(getString());

    auto nobjs = getVarint();
    if (nobjs > maxTableEntries)
        fail("trace file object count %llu implausible",
             (unsigned long long)nobjs);
    for (std::uint64_t i = 0; i < nobjs; ++i) {
        auto kind_raw = getVarint();
        if (kind_raw > (std::uint64_t)ObjectKind::Heap)
            fail("trace file object kind invalid");
        auto kind = (ObjectKind)kind_raw;
        std::string name = getString();
        auto owner_raw = getVarint();
        FunctionId owner = owner_raw == 0
                               ? invalidFunction
                               : (FunctionId)(owner_raw - 1);
        Addr size = getVarint();
        auto nctx = getVarint();
        if (nctx > maxTableEntries)
            fail("trace file context length %llu implausible",
                 (unsigned long long)nctx);
        std::vector<FunctionId> ctx;
        ctx.reserve((std::size_t)nctx);
        for (std::uint64_t j = 0; j < nctx; ++j)
            ctx.push_back((FunctionId)getVarint());

        if (owner != invalidFunction && owner >= nfuncs)
            fail("trace file object owner out of range");
        for (FunctionId fid : ctx) {
            if (fid >= nfuncs)
                fail("trace file alloc context out of range");
        }

        ObjectId id;
        if (kind == ObjectKind::Heap) {
            id = registry_.addHeapObject(name, std::move(ctx), size);
        } else {
            // A duplicate record would either collide in the interner
            // (wrong id) or trip its same-size invariant; reject both
            // as corruption before interning.
            if (registry_.findVariable(kind, owner, name) !=
                invalidObject) {
                fail("duplicate object record in trace file");
            }
            id = registry_.internVariable(kind, owner, name, size);
        }
        if (id != i)
            fail("object table corrupt in trace file");
    }

    event_count_ = getVarint();
    if (event_count_ > maxEvents)
        fail("trace file event count %llu implausible",
             (unsigned long long)event_count_);
    if (format_ == TraceFormat::V2Blocked) {
        block_events_hint_ = getVarint();
        if (block_events_hint_ == 0 ||
            block_events_hint_ > maxBlockEvents) {
            fail("trace file block size hint %llu implausible",
                 (unsigned long long)block_events_hint_);
        }
        if (event_count_ == 0)
            parseIndexAndFooter();
    } else if (event_count_ == 0) {
        parseTrailer();
    }
}

std::size_t
TraceReader::read(Event *out, std::size_t max)
{
    std::size_t produced = 0;
    if (format_ == TraceFormat::V2Blocked) {
        while (produced < max && events_read_ < event_count_) {
            if (block_pos_ == block_buf_.size())
                decodeNextBlock();
            const std::size_t take = std::min(
                max - produced, block_buf_.size() - block_pos_);
            std::copy_n(block_buf_.data() + block_pos_, take,
                        out + produced);
            block_pos_ += take;
            produced += take;
            events_read_ += take;
        }
        if (events_read_ == event_count_ && !done_)
            parseIndexAndFooter();
        EDB_OBS_ONLY(obsReadEvents.add(produced);)
        return produced;
    }

    while (produced < max && events_read_ < event_count_) {
        Event e;
        auto kind_raw = getVarint();
        if (kind_raw > (std::uint64_t)EventKind::Write)
            fail("trace file event kind invalid");
        e.kind = (EventKind)kind_raw;
        e.begin = prev_begin_ + (Addr)unzigzag(getVarint());
        auto size = getVarint();
        if (size > std::numeric_limits<std::uint32_t>::max())
            fail("trace file event size %llu implausible",
                 (unsigned long long)size);
        e.size = (std::uint32_t)size;
        auto aux = getVarint();
        if (aux > std::numeric_limits<std::uint32_t>::max())
            fail("trace file event aux %llu implausible",
                 (unsigned long long)aux);
        e.aux = (std::uint32_t)aux;
        prev_begin_ = e.begin;
        if (e.kind == EventKind::Write) {
            ++writes_seen_;
        } else if (e.aux >= registry_.objectCount()) {
            fail("trace file event object id out of range");
        }
        out[produced++] = e;
        ++events_read_;
    }
    if (events_read_ == event_count_ && !done_)
        parseTrailer();
    EDB_OBS_ONLY(obsReadEvents.add(produced);)
    return produced;
}

void
TraceReader::decodeNextBlock()
{
    const std::uint64_t start = bytesConsumed();
    cur_block_ = (std::int64_t)blocks_seen_.size();

    StreamBlockSrc src{*this};
    detail::BlockHeader h =
        detail::parseBlockHeader(src, event_count_ - events_read_);

    const std::uint64_t payload = h.payloadBytes();
    block_scratch_.resize((std::size_t)payload);
    const std::uint64_t payload_off = bytesConsumed();
    getBytes((char *)block_scratch_.data(), (std::size_t)payload);

    block_buf_.resize((std::size_t)h.events);
    detail::decodeBlockBatchBody(h, block_scratch_.data(), payload_off,
                                 cur_block_, registry_.objectCount(),
                                 batch_);
    detail::scatterBatch(batch_, block_buf_.data());
    block_pos_ = 0;
    writes_seen_ += h.writes;
    blocks_seen_.push_back(
        {bytesConsumed() - start, h.events, h.writes});
#if EDB_OBS_ENABLED
    detail::obs_v2::blocksDecoded.inc();
    detail::obs_v2::bytesEncoded.add(bytesConsumed() - start);
    detail::obs_v2::bytesRaw.add(h.events * sizeof(Event));
#endif
    cur_block_ = -1;
}

void
TraceReader::parseIndexAndFooter()
{
    const std::uint64_t index_off = bytesConsumed();
    const std::uint64_t nblocks = getVarint();
    if (nblocks != blocks_seen_.size()) {
        fail("trace file block index count (%llu) disagrees with the "
             "stream (%llu)",
             (unsigned long long)nblocks,
             (unsigned long long)blocks_seen_.size());
    }
    for (std::size_t i = 0; i < blocks_seen_.size(); ++i) {
        const std::uint64_t bytes = getVarint();
        const std::uint64_t events = getVarint();
        const std::uint64_t writes = getVarint();
        if (bytes != blocks_seen_[i].bytes ||
            events != blocks_seen_[i].events ||
            writes != blocks_seen_[i].writes) {
            fail("trace file block index entry %llu disagrees with "
                 "its block record",
                 (unsigned long long)i);
        }
    }
    parseTrailer();

    char foot[footerBytes];
    getBytes(foot, sizeof(foot));
    std::uint64_t off = 0;
    for (int i = 0; i < 8; ++i)
        off |= (std::uint64_t)(unsigned char)foot[i] << (8 * i);
    if (off != index_off) {
        fail("trace file footer index offset (%llu) disagrees with "
             "the stream (%llu)",
             (unsigned long long)off, (unsigned long long)index_off);
    }
    if (std::memcmp(foot + 8, footerMagic, sizeof(footerMagic)) != 0)
        fail("trace file footer magic invalid");
}

void
TraceReader::parseTrailer()
{
    total_writes_ = getVarint();
    estimated_instructions_ = getVarint();
    if (total_writes_ != writes_seen_) {
        fail("trace file write-count trailer (%llu) disagrees "
             "with the event stream (%llu)",
             (unsigned long long)total_writes_,
             (unsigned long long)writes_seen_);
    }
    done_ = true;
}

std::uint64_t
TraceReader::totalWrites() const
{
    EDB_ASSERT(done_, "trailer read before the event stream ended");
    return total_writes_;
}

std::uint64_t
TraceReader::estimatedInstructions() const
{
    EDB_ASSERT(done_, "trailer read before the event stream ended");
    return estimated_instructions_;
}

void
writeTrace(const Trace &trace, std::ostream &os,
           const WriteOptions &options)
{
    if (options.format == TraceFormat::V1Flat) {
        writeTraceV1(trace, os);
        return;
    }
    const std::size_t block_events = std::clamp<std::size_t>(
        options.blockEvents, 1, maxBlockEvents);
    writeTraceV2(trace, os, block_events);
}

Trace
readTrace(std::istream &is)
{
    TraceReader reader(is);

    Trace trace;
    trace.program = reader.program();
    trace.registry = reader.registry();
    trace.writeSites = reader.writeSites();

    // Reserve conservatively: a corrupt count must fail on stream
    // exhaustion, not on allocation.
    trace.events.reserve((std::size_t)std::min<std::uint64_t>(
        reader.eventCount(), 1u << 20));
    Event chunk[4096];
    while (std::size_t n = reader.read(chunk, std::size(chunk)))
        trace.events.insert(trace.events.end(), chunk, chunk + n);

    trace.totalWrites = reader.totalWrites();
    trace.estimatedInstructions = reader.estimatedInstructions();
    return trace;
}

void
saveTrace(const Trace &trace, const std::string &path,
          const WriteOptions &options)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        parseError("cannot open '%s' for writing", path.c_str());
    writeTrace(trace, os, options);
}

Trace
loadTrace(const std::string &path)
{
    EDB_OBS_SPAN("trace.load");
    std::ifstream is(path, std::ios::binary);
    if (!is)
        parseError("cannot open '%s' for reading", path.c_str());
    return readTrace(is);
}

TraceFormat
probeTraceFormat(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        parseError("cannot open '%s' for reading", path.c_str());
    char got[sizeof(magicV1)];
    is.read(got, sizeof(got));
    if ((std::size_t)is.gcount() == sizeof(got)) {
        if (std::equal(std::begin(got), std::end(got),
                       std::begin(magicV1)))
            return TraceFormat::V1Flat;
        if (std::equal(std::begin(got), std::end(got),
                       std::begin(magicV2)))
            return TraceFormat::V2Blocked;
    }
    parseError("not an EDB trace file (bad magic)");
}

} // namespace edb::trace
