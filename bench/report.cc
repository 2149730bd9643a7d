#include "report.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace crisc {
namespace bench {

namespace {

/** Escapes the JSON string special characters (names are ASCII). */
std::string
escaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Finite doubles round-trip at 17 significant digits; else null. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
appendMetric(std::string &out, const Metric &m)
{
    out += "{\"name\": \"" + escaped(m.name) +
           "\", \"value\": " + number(m.value) + ", \"unit\": \"" +
           escaped(m.unit) + "\"}";
}

void
appendScenario(std::string &out, const Scenario &s)
{
    out += "    {\"name\": \"";
    out += escaped(s.name);
    out += "\"";
    if (!s.params.empty()) {
        out += ", \"params\": {";
        for (std::size_t i = 0; i < s.params.size(); ++i) {
            if (i)
                out += ", ";
            out += "\"";
            out += escaped(s.params[i].name);
            out += "\": ";
            out += number(s.params[i].value);
        }
        out += "}";
    }
    out += ", \"metrics\": [";
    for (std::size_t i = 0; i < s.metrics.size(); ++i) {
        if (i)
            out += ", ";
        appendMetric(out, s.metrics[i]);
    }
    out += "]}";
}

} // namespace

std::string
reportGitSha()
{
#ifdef CRISC_GIT_SHA
    return CRISC_GIT_SHA;
#else
    return "unknown";
#endif
}

bool
reportGitDirty()
{
#if defined(CRISC_GIT_DIRTY) && CRISC_GIT_DIRTY
    return true;
#else
    return false;
#endif
}

std::string
toJson(const Report &report)
{
    std::string out = "{\n";
    out += "  \"schema_version\": " + std::to_string(report.schemaVersion) +
           ",\n";
    out += "  \"name\": \"" + escaped(report.name) + "\",\n";
    out += "  \"git_sha\": \"" + escaped(report.gitSha) + "\",\n";
    out += std::string("  \"git_dirty\": ") +
           (report.gitDirty ? "true" : "false") + ",\n";
    out += "  \"simd_backend\": \"" + escaped(report.simdBackend) + "\",\n";
    out += "  \"simd_compiled\": [";
    for (std::size_t i = 0; i < report.simdCompiled.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"";
        out += escaped(report.simdCompiled[i]);
        out += "\"";
    }
    out += "],\n";
    out += "  \"simd_lanes\": " + std::to_string(report.simdLanes) + ",\n";
    out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
    out += std::string("  \"smoke\": ") + (report.smoke ? "true" : "false") +
           ",\n";
    out += "  \"obs\": {\"backend\": \"" + escaped(report.obsBackend) +
           "\", \"enabled\": " + (report.obsEnabled ? "true" : "false");
    if (!report.obsSpans.empty()) {
        out += ", \"spans\": [\n";
        for (std::size_t i = 0; i < report.obsSpans.size(); ++i) {
            const ObsSpanRow &s = report.obsSpans[i];
            out += "    {\"name\": \"" + escaped(s.name) +
                   "\", \"count\": " + std::to_string(s.count) +
                   ", \"total_ns\": " + std::to_string(s.totalNs) +
                   ", \"mean_ns\": " + number(s.meanNs) +
                   ", \"p95_ns\": " + std::to_string(s.p95Ns) + "}";
            if (i + 1 < report.obsSpans.size())
                out += ",";
            out += "\n";
        }
        out += "  ]";
    }
    out += "},\n";
    out += "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
        appendScenario(out, report.scenarios[i]);
        if (i + 1 < report.scenarios.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
writeReport(const Report &report, const std::string &dir)
{
    const std::string base = dir.empty() ? std::string(".") : dir;
    std::filesystem::create_directories(base);
    const std::string path = base + "/BENCH_" + report.name + ".json";
    std::ofstream file(path);
    if (!file)
        throw std::runtime_error("writeReport: cannot open " + path);
    file << toJson(report);
    if (!file.flush())
        throw std::runtime_error("writeReport: write failed for " + path);
    return path;
}

} // namespace bench
} // namespace crisc
