/**
 * @file
 * The one export path of the obs registry: Snapshot lookups and
 * histogram quantiles, the `edb-metrics-v2` JSON writer, and the
 * Prometheus text exposition. Compiled in every build: under
 * EDB_OBS=OFF they serialize the empty snapshot.
 */

#include "obs/obs.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/logging.h"

namespace edb::obs {

double
HistogramValue::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q <= 0.0)
        return (double)min;
    if (q >= 1.0)
        return (double)max;
    // Rank targeting: the q-quantile sits at (fractional) rank
    // q * count within the sorted observations. Walk cumulative
    // bucket counts to the bucket containing that rank, then
    // interpolate linearly inside it. log2 bucket b > 0 spans
    // [2^(b-1), 2^b - 1] (bucket 0 holds only the value 0); both
    // bounds clamp to the histogram's exact min/max, which tightens
    // the head and tail buckets considerably.
    const double target = q * (double)count;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::uint64_t n = buckets[b];
        if (n == 0)
            continue;
        if ((double)cum + (double)n >= target) {
            double lo = b == 0
                            ? 0.0
                            : (double)(std::uint64_t{1} << (b - 1));
            double hi;
            if (b == 0)
                hi = 0.0;
            else if (b >= 64)
                hi = (double)~std::uint64_t{0};
            else
                hi = (double)((std::uint64_t{1} << b) - 1);
            lo = std::max(lo, (double)min);
            hi = std::min(hi, (double)max);
            if (hi < lo)
                hi = lo;
            const double pos = (target - (double)cum) / (double)n;
            return lo + pos * (hi - lo);
        }
        cum += n;
    }
    return (double)max;
}

namespace {

std::int64_t
labelLessValue(const Snapshot &snap, const std::string &name, Kind kind)
{
    for (const ScalarValue &s : snap.series) {
        if (s.name == name && s.kind == kind && s.labels.empty())
            return s.value;
    }
    return 0;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
    }
    return "?";
}

/** Print a double with enough precision for rates/quantiles without
 *  JSON-hostile artifacts (NaN/Inf degrade to 0). */
std::string
jsonNumber(double v)
{
    if (!(v > -1e300 && v < 1e300)) // catches NaN and +-Inf
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

void
writeLabels(std::ostream &os, const std::vector<Label> &labels)
{
    os << "{";
    bool first = true;
    for (const Label &l : labels) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(l.key)
           << "\": \"" << jsonEscape(l.value) << "\"";
        first = false;
    }
    os << "}";
}

/** Trailing all-zero buckets add noise; count up to the last
 *  occupied one (log2 bucket b covers values of bit length b). */
std::size_t
occupiedBuckets(const HistogramValue &h)
{
    std::size_t last = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] != 0)
            last = b + 1;
    }
    return last;
}

} // namespace

std::int64_t
Snapshot::counter(const std::string &name) const
{
    return labelLessValue(*this, name, Kind::Counter);
}

std::int64_t
Snapshot::gauge(const std::string &name) const
{
    return labelLessValue(*this, name, Kind::Gauge);
}

const HistogramValue *
Snapshot::histogram(const std::string &name) const &
{
    for (const HistogramValue &h : histograms) {
        if (h.name == name && h.labels.empty())
            return &h;
    }
    return nullptr;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeSnapshotJson(std::ostream &os, const Snapshot &snap)
{
    os << "{\n  \"schema\": \"edb-metrics-v2\",\n"
       << "  \"meta\": {\"wall_ms\": " << snap.wallMs
       << ", \"uptime_ns\": " << snap.uptimeNs
       << ", \"pid\": " << snap.pid
       << ", \"interval_ms\": " << snap.intervalMs
       << ", \"samples\": " << snap.samples << "},\n";

    os << "  \"series\": [";
    bool first = true;
    for (const ScalarValue &s : snap.series) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(s.name) << "\", \"labels\": ";
        writeLabels(os, s.labels);
        os << ", \"kind\": \"" << kindName(s.kind)
           << "\", \"value\": " << s.value;
        if (s.hasRate)
            os << ", \"rate\": " << jsonNumber(s.rate);
        os << "}";
        first = false;
    }
    os << (first ? "]," : "\n  ],") << "\n";

    os << "  \"histograms\": [";
    first = true;
    for (const HistogramValue &h : snap.histograms) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(h.name) << "\", \"labels\": ";
        writeLabels(os, h.labels);
        os << ", \"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"min\": " << h.min << ", \"max\": " << h.max
           << ", \"p50\": " << jsonNumber(h.quantile(0.50))
           << ", \"p95\": " << jsonNumber(h.quantile(0.95))
           << ", \"p99\": " << jsonNumber(h.quantile(0.99))
           << ",\n      \"buckets\": [";
        const std::size_t last = occupiedBuckets(h);
        for (std::size_t b = 0; b < last; ++b)
            os << (b ? ", " : "") << h.buckets[b];
        os << "]}";
        first = false;
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
}

bool
writeSnapshotJsonFile(const std::string &path)
{
    // Write-to-temp + rename so a reader polling the path (a live
    // dashboard tailing a daemon's snapshot) never sees a torn file:
    // it observes either the previous complete snapshot or this one.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("obs: cannot open '%s' for the snapshot",
                 tmp.c_str());
            return false;
        }
        writeSnapshotJson(os, takeSnapshot());
        os.flush();
        if (!os) {
            warn("obs: I/O error writing snapshot to '%s'",
                 tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("obs: cannot rename '%s' to '%s'", tmp.c_str(),
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

// ---- Prometheus text exposition ------------------------------------

#if EDB_OBS_ENABLED

namespace {

/** Mangle an instrument name to the Prometheus metric grammar:
 *  `edb_` prefix, [a-zA-Z0-9_] body (everything else becomes '_'). */
std::string
promName(const std::string &name)
{
    std::string out = "edb_";
    out.reserve(name.size() + 4);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** Escape one label value (backslash, quote, newline). */
std::string
promEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Render `{k="v", ...}` (empty string when no labels), with an
 *  optional extra pair appended (the histogram `le` bound). */
std::string
labelBlock(const std::vector<Label> &labels,
           const std::string &extraKey = "",
           const std::string &extraValue = "")
{
    if (labels.empty() && extraKey.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const Label &l : labels) {
        if (!first)
            out += ",";
        out += promName(l.key).substr(4); // mangle, drop edb_ prefix
        out += "=\"";
        out += promEscape(l.value);
        out += "\"";
        first = false;
    }
    if (!extraKey.empty()) {
        if (!first)
            out += ",";
        out += extraKey;
        out += "=\"";
        out += extraValue;
        out += "\"";
    }
    out += "}";
    return out;
}

/** One metric family: TYPE plus its sample lines (the snapshot's
 *  order puts a label-less series before its labeled ones). */
struct Family
{
    std::string type;
    std::string help;
    std::vector<std::string> lines;
};

Family &
family(std::map<std::string, Family> &families, const std::string &name,
       const std::string &rawName, Kind kind)
{
    Family &f = families[name];
    if (f.type.empty()) {
        f.type = kindName(kind);
        f.help = "edb::obs " + f.type + " '" + rawName + "'" +
                 (kind == Kind::Histogram ? " (ns)" : "");
    }
    return f;
}

} // namespace

std::string
prometheusText()
{
    const Snapshot snap = takeSnapshot();
    std::map<std::string, Family> families;

    for (const ScalarValue &s : snap.series) {
        const std::string name = promName(s.name);
        family(families, name, s.name, s.kind)
            .lines.push_back(name + labelBlock(s.labels) + " " +
                             std::to_string(s.value));
    }
    for (const HistogramValue &h : snap.histograms) {
        const std::string name = promName(h.name);
        Family &f = family(families, name, h.name, Kind::Histogram);
        // Cumulative buckets up to the last occupied log2 bucket;
        // bucket b > 0 covers values of bit length b, upper bound
        // 2^b - 1.
        const std::size_t last = occupiedBuckets(h);
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < last; ++b) {
            cum += h.buckets[b];
            const std::uint64_t bound =
                b == 0 ? 0
                       : (b >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << b) - 1);
            f.lines.push_back(
                name + "_bucket" +
                labelBlock(h.labels, "le", std::to_string(bound)) +
                " " + std::to_string(cum));
        }
        f.lines.push_back(name + "_bucket" +
                          labelBlock(h.labels, "le", "+Inf") + " " +
                          std::to_string(h.count));
        f.lines.push_back(name + "_sum" + labelBlock(h.labels) + " " +
                          std::to_string(h.sum));
        f.lines.push_back(name + "_count" + labelBlock(h.labels) +
                          " " + std::to_string(h.count));
    }

    std::ostringstream os;
    for (const auto &[name, f] : families) {
        os << "# HELP " << name << " " << f.help << "\n";
        os << "# TYPE " << name << " " << f.type << "\n";
        for (const std::string &line : f.lines)
            os << line << "\n";
    }
    return os.str();
}

#else // !EDB_OBS_ENABLED

std::string
prometheusText()
{
    // Empty-but-valid: scrapers parse a comment-only exposition.
    return "# edb telemetry disabled (built with EDB_OBS=OFF)\n";
}

#endif // EDB_OBS_ENABLED

} // namespace edb::obs
