/**
 * @file
 * Frame splitter and payload codec for the edb-served protocol.
 */

#include "served/protocol.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "util/logging.h"

namespace edb::served {

const char *
opName(std::uint8_t op)
{
    switch ((Op)op) {
      case Op::Hello: return "HELLO";
      case Op::OpenTrace: return "OPEN_TRACE";
      case Op::Install: return "INSTALL";
      case Op::Remove: return "REMOVE";
      case Op::Enable: return "ENABLE";
      case Op::Disable: return "DISABLE";
      case Op::Resume: return "RESUME";
      case Op::Run: return "RUN";
      case Op::Query: return "QUERY";
      case Op::Subscribe: return "SUBSCRIBE";
      case Op::Stats: return "STATS";
      case Op::Bye: return "BYE";
      case Op::Metrics: return "METRICS";
      case Op::Ok: return "OK";
      case Op::Err: return "ERR";
      case Op::Event: return "EVT";
    }
    return "?";
}

const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::None: return "none";
      case ErrCode::BadFrame: return "bad-frame";
      case ErrCode::FrameTooLarge: return "frame-too-large";
      case ErrCode::UnknownOpcode: return "unknown-opcode";
      case ErrCode::MalformedPayload: return "malformed-payload";
      case ErrCode::BadVersion: return "bad-version";
      case ErrCode::NotHello: return "not-hello";
      case ErrCode::AlreadyHello: return "already-hello";
      case ErrCode::QuotaExceeded: return "quota-exceeded";
      case ErrCode::UnknownTrace: return "unknown-trace";
      case ErrCode::UnknownMonitor: return "unknown-monitor";
      case ErrCode::TraceLoadFailed: return "trace-load-failed";
      case ErrCode::BadSession: return "bad-session";
      case ErrCode::BadQuery: return "bad-query";
      case ErrCode::ShuttingDown: return "shutting-down";
      case ErrCode::Internal: return "internal";
    }
    return "?";
}

namespace {

[[noreturn]] void
throwAt(ErrCode code, std::uint64_t offset, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void
throwAt(ErrCode code, std::uint64_t offset, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    char msg[320];
    std::snprintf(msg, sizeof msg, "%s at byte %llu", buf,
                  (unsigned long long)offset);
    throw ProtocolError(code, offset, msg);
}

} // namespace

void
FrameDecoder::feed(const void *data, std::size_t n)
{
    const std::uint8_t *p = (const std::uint8_t *)data;
    // Bytes of an oversized body are discarded as they arrive; they
    // still advance consumed_ so later offsets stay stream-absolute.
    while (n > 0 && discard_left_ > 0) {
        std::size_t take =
            (std::size_t)std::min<std::uint64_t>(discard_left_, n);
        discard_left_ -= take;
        consumed_ += take;
        p += take;
        n -= take;
    }
    buf_.insert(buf_.end(), p, p + n);
}

bool
FrameDecoder::next(Frame &out)
{
    if (buf_.size() < frameHeaderBytes)
        return false;
    std::uint32_t len = (std::uint32_t)buf_[0] |
                        ((std::uint32_t)buf_[1] << 8) |
                        ((std::uint32_t)buf_[2] << 16) |
                        ((std::uint32_t)buf_[3] << 24);
    const std::uint8_t opcode = buf_[4];
    if (len > max_body_) {
        // Consume the header, arm the one-shot throw, and discard the
        // body so the stream realigns at the next frame.
        const std::uint64_t at = consumed_;
        buf_.erase(buf_.begin(), buf_.begin() + frameHeaderBytes);
        std::uint64_t left = len;
        // Part of the body may already be buffered.
        std::size_t buffered =
            (std::size_t)std::min<std::uint64_t>(left, buf_.size());
        buf_.erase(buf_.begin(), buf_.begin() + buffered);
        left -= buffered;
        consumed_ += frameHeaderBytes + buffered;
        discard_left_ = left;
        throwAt(ErrCode::FrameTooLarge, at,
                "frame body of %llu bytes exceeds the %zu-byte cap",
                (unsigned long long)len, max_body_);
    }
    if (buf_.size() < frameHeaderBytes + len)
        return false;
    out.opcode = opcode;
    out.offset = consumed_;
    out.body.assign(buf_.begin() + frameHeaderBytes,
                    buf_.begin() + frameHeaderBytes + len);
    buf_.erase(buf_.begin(), buf_.begin() + frameHeaderBytes + len);
    consumed_ += frameHeaderBytes + len;
    return true;
}

void
encodeFrame(std::vector<std::uint8_t> &out, Op op,
            const std::vector<std::uint8_t> &body)
{
    const std::uint32_t len = (std::uint32_t)body.size();
    for (int i = 0; i < 4; ++i)
        out.push_back((std::uint8_t)(len >> (8 * i)));
    out.push_back((std::uint8_t)op);
    out.insert(out.end(), body.begin(), body.end());
}

namespace {

/** Store `v` little-endian at `p`; returns the byte after it. */
template <typename T>
std::uint8_t *
storeLe(std::uint8_t *p, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        *p++ = (std::uint8_t)(v >> (8 * i));
    return p;
}

} // namespace

void
encodeEventFrame(std::vector<std::uint8_t> &out,
                 std::span<const EventOut> events)
{
    EDB_ASSERT(!events.empty(), "EVT frame with no events");
    const std::size_t n = events.size();
    const std::size_t body = evtHeaderBytes + n * evtRowBytes;
    const std::size_t at = out.size();
    out.resize(at + frameHeaderBytes + body);
    std::uint8_t *p = out.data() + at;
    p = storeLe(p, (std::uint32_t)body);
    *p++ = (std::uint8_t)Op::Event;
    p = storeLe(p, events[0].seq);
    p = storeLe(p, (std::uint32_t)n);
    for (std::size_t i = 0; i < n; ++i) {
        const EventOut &e = events[i];
        EDB_ASSERT(e.seq == events[0].seq + i,
                   "EVT run breaks at seq %llu",
                   (unsigned long long)e.seq);
        p = storeLe(p, e.monitorId);
        p = storeLe(p, e.written.begin);
        p = storeLe(p, e.written.end);
        p = storeLe(p, e.pc);
    }
}

void
decodeEventFrame(const Frame &frame, std::vector<EventOut> &out)
{
    PayloadReader rd(frame.body, frame.offset + frameHeaderBytes);
    const std::uint64_t first = rd.getU64();
    const std::uint64_t at = rd.offset();
    const std::uint32_t n = rd.getU32();
    if (n == 0 || rd.remaining() != (std::size_t)n * evtRowBytes) {
        throwAt(ErrCode::MalformedPayload, at,
                "EVT count %u disagrees with %zu row bytes", n,
                rd.remaining());
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        EventOut e;
        e.seq = first + i;
        e.monitorId = rd.getU32();
        e.written = rd.getRange();
        e.pc = rd.getU64();
        out.push_back(e);
    }
}

void
PayloadWriter::putString(const std::string &s)
{
    EDB_ASSERT(s.size() <= maxStringBytes,
               "protocol string of %zu bytes exceeds cap", s.size());
    putU32((std::uint32_t)s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void
PayloadWriter::putBlob(const std::string &s)
{
    putU32((std::uint32_t)s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void
PayloadReader::need(std::size_t n, const char *what) const
{
    if (size_ - pos_ < n) {
        throwAt(ErrCode::MalformedPayload, base_ + size_,
                "payload truncated: %s needs %zu more byte(s)", what,
                n - (size_ - pos_));
    }
}

std::uint8_t
PayloadReader::getU8()
{
    need(1, "u8");
    return data_[pos_++];
}

std::uint16_t
PayloadReader::getU16()
{
    need(2, "u16");
    std::uint16_t v = (std::uint16_t)(data_[pos_] |
                                      (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

std::uint32_t
PayloadReader::getU32()
{
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (std::uint32_t)data_[pos_ + i] << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
PayloadReader::getU64()
{
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (std::uint64_t)data_[pos_ + i] << (8 * i);
    pos_ += 8;
    return v;
}

std::string
PayloadReader::getString()
{
    return getBlob(maxStringBytes);
}

std::string
PayloadReader::getBlob(std::size_t cap)
{
    const std::uint64_t len_at = offset();
    std::uint32_t len = getU32();
    if (len > cap) {
        throwAt(ErrCode::MalformedPayload, len_at,
                "string length %u exceeds the %zu-byte cap", len, cap);
    }
    need(len, "string bytes");
    std::string s((const char *)data_ + pos_, len);
    pos_ += len;
    return s;
}

AddrRange
PayloadReader::getRange()
{
    const std::uint64_t at = offset();
    std::uint64_t b = getU64();
    std::uint64_t e = getU64();
    if (b > e) {
        throwAt(ErrCode::MalformedPayload, at,
                "inverted range [%llu, %llu)", (unsigned long long)b,
                (unsigned long long)e);
    }
    return AddrRange(b, e);
}

void
PayloadReader::requireEnd() const
{
    if (pos_ != size_) {
        throwAt(ErrCode::MalformedPayload, base_ + pos_,
                "%zu trailing byte(s) after the payload",
                size_ - pos_);
    }
}

} // namespace edb::served
