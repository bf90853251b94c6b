#include "obs/metrics.h"

#include <cctype>
#include <cstdio>

#include "obs/trace.h"

namespace rsafe::obs {

namespace {

/** Append a double with enough precision for metric values. */
void
append_double(std::string* out, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    *out += buf;
}

}  // namespace

std::string
sanitize_metric_name(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                        c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
MetricsExporter::to_json() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : registry_->snapshot()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(&out, name);
        out += "\": " + std::to_string(value);
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : registry_->histograms()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(&out, name);
        out += "\": {\"count\": " + std::to_string(histogram.count());
        out += ", \"sum\": " + std::to_string(histogram.sum());
        out += ", \"mean\": ";
        append_double(&out, histogram.mean());
        out += ", \"max\": " + std::to_string(histogram.max_sample());
        out += ", \"p50\": " + std::to_string(histogram.p50());
        out += ", \"p95\": " + std::to_string(histogram.p95());
        out += ", \"p99\": " + std::to_string(histogram.p99());
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < histogram.num_buckets(); ++i) {
            if (i != 0)
                out += ", ";
            const bool overflow = i == histogram.num_buckets() - 1;
            out += "{\"le\": ";
            out += overflow ? "\"+Inf\""
                            : std::to_string(histogram.bucket_bound(i));
            out += ", \"count\": " + std::to_string(histogram.bucket(i));
            out += "}";
        }
        out += "]}";
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : registry_->gauges()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(&out, name);
        out += "\": {\"last\": " + std::to_string(gauge.last());
        out += ", \"observations\": " + std::to_string(gauge.observations());
        out += ", \"series\": [";
        bool first_sample = true;
        for (const auto& sample : gauge.series()) {
            if (!first_sample)
                out += ", ";
            first_sample = false;
            out += "{\"t\": " + std::to_string(sample.t);
            out += ", \"value\": " + std::to_string(sample.value) + "}";
        }
        out += "]}";
    }
    out += first ? "}" : "\n  }";
    out += "\n}\n";
    return out;
}

std::string
MetricsExporter::to_prometheus(const std::string& prefix) const
{
    std::string out;
    for (const auto& [name, value] : registry_->snapshot()) {
        const std::string metric = prefix + sanitize_metric_name(name);
        out += "# TYPE " + metric + " counter\n";
        out += metric + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, histogram] : registry_->histograms()) {
        const std::string metric = prefix + sanitize_metric_name(name);
        out += "# TYPE " + metric + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < histogram.num_buckets(); ++i) {
            cumulative += histogram.bucket(i);
            const bool overflow = i == histogram.num_buckets() - 1;
            out += metric + "_bucket{le=\"";
            out += overflow ? "+Inf"
                            : std::to_string(histogram.bucket_bound(i));
            out += "\"} " + std::to_string(cumulative) + "\n";
        }
        out += metric + "_sum " + std::to_string(histogram.sum()) + "\n";
        out += metric + "_count " + std::to_string(histogram.count()) + "\n";
    }
    for (const auto& [name, gauge] : registry_->gauges()) {
        const std::string metric = prefix + sanitize_metric_name(name);
        out += "# TYPE " + metric + " gauge\n";
        out += metric + " " + std::to_string(gauge.last()) + "\n";
    }
    return out;
}

}  // namespace rsafe::obs
