/**
 * @file
 * Trace-row integrity under serving: in a traced open-loop serve, two
 * spans on one (pid, tid) row either nest or are disjoint, and spans
 * of the same name never overlap. Popular traces are served several
 * times at once under Zipf skew and queued queries wait side by side,
 * so a row keyed by trace index or shared between waits and query
 * stages would break this.
 *
 * The binary traces itself: ANSMET_TRACE is set during static
 * initialisation, before the trace writer first reads it, to a file in
 * the build tree (ANSMET_TRACE_ROWS_PATH).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace ansmet {
namespace {

const bool kTraceEnvSet =
    ::setenv("ANSMET_TRACE", ANSMET_TRACE_ROWS_PATH, 1) == 0;

struct Span
{
    std::string name;
    double start = 0; // us
    double end = 0;   // us
};

/** Number following @p key in @p line, or false if absent. */
bool
field(const std::string &line, const char *key, double &out)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + std::char_traits<char>::length(key),
                      nullptr);
    return true;
}

/** Every complete ("X") span of the flushed trace, by (pid, tid). */
std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Span>>
spansByRow(const std::string &path)
{
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Span>> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const std::size_t n0 = line.find("\"name\":\"") + 8;
        Span s;
        s.name = line.substr(n0, line.find('"', n0) - n0);
        double pid = 0, tid = 0, ts = 0, dur = 0;
        EXPECT_TRUE(field(line, "\"pid\":", pid) &&
                    field(line, "\"tid\":", tid) &&
                    field(line, "\"ts\":", ts) && field(line, "\"dur\":", dur))
            << line;
        s.start = ts;
        s.end = ts + dur;
        rows[{static_cast<std::uint64_t>(pid),
              static_cast<std::uint64_t>(tid)}]
            .push_back(std::move(s));
    }
    return rows;
}

/** Spans of one row that overlap an earlier span without nesting in
 *  it, or nest in a span of the same name. */
struct RowOverlaps
{
    std::size_t count = 0;
    std::vector<std::string> examples; //!< the first few, for the log
};

/**
 * Sweep one row in start order, keeping the chain of open enclosing
 * spans; a span that breaks the nesting is counted and left out of the
 * chain, so the chain stays a few spans deep. Times are printed to
 * 1 ns, so edges within 2 ns count as touching.
 */
RowOverlaps
overlaps(std::vector<Span> row)
{
    constexpr double kEps = 0.002;
    std::sort(row.begin(), row.end(), [](const Span &a, const Span &b) {
        return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    RowOverlaps out;
    std::vector<const Span *> open; // enclosing spans, outermost first
    for (const Span &s : row) {
        while (!open.empty() && open.back()->end <= s.start + kEps)
            open.pop_back();
        const Span *clash = nullptr;
        for (const Span *o : open)
            if (o->name == s.name || s.end > o->end + kEps)
                clash = o;
        if (clash == nullptr) {
            open.push_back(&s);
            continue;
        }
        ++out.count;
        if (out.examples.size() < 3) {
            std::ostringstream os;
            os << clash->name << " [" << clash->start << ", " << clash->end
               << "] vs " << s.name << " [" << s.start << ", " << s.end
               << "]";
            out.examples.push_back(os.str());
        }
    }
    return out;
}

TEST(TraceRows, ServeRunHasNoOverlappingSpansOnOneRow)
{
    ASSERT_TRUE(kTraceEnvSet);
    ASSERT_TRUE(obs::TraceWriter::instance().enabled());

    const anns::Dataset ds =
        anns::makeDataset(anns::DatasetId::kSift, 1200, 12, 1);
    const anns::HnswIndex idx(*ds.base, ds.metric(),
                              anns::HnswParams{16, 80, 42});
    et::ProfileConfig pc;
    pc.numSamples = 60;
    pc.maxPairs = 600;
    const et::EtProfile profile = et::buildProfile(*ds.base, ds.metric(), pc);
    std::vector<core::QueryTrace> traces;
    for (const auto &q : ds.queries)
        traces.push_back(core::traceHnswQuery(idx, q, 10, 48));
    const unsigned top = idx.maxLevel();

    core::SystemConfig cfg;
    cfg.design = core::Design::kNdpEtOpt;
    core::SystemModel model(cfg, *ds.base, ds.metric(), &profile,
                            idx.verticesAtLevel(top >= 3 ? top - 3 : 1));
    // Past capacity on purpose: queries queue, and popular traces are
    // in flight on several slots at once.
    serve::ServeConfig sc;
    sc.load.offeredQps = 2.0e6;
    sc.load.numQueries = 192;
    sc.load.zipfAlpha = 1.3;
    sc.load.seed = 1;
    sc.queueCapacity = 32;
    const serve::ServeReport r = serve::serve(model, traces, sc);
    ASSERT_GT(r.completed, 0u);

    obs::TraceWriter::instance().flush();
    const auto rows = spansByRow(ANSMET_TRACE_ROWS_PATH);
    std::size_t spans = 0;
    std::size_t bad = 0;
    for (const auto &[key, row] : rows) {
        spans += row.size();
        const RowOverlaps found = overlaps(row);
        bad += found.count;
        for (const std::string &e : found.examples)
            ADD_FAILURE() << "pid " << key.first << " tid " << key.second
                          << ": " << e;
    }
    EXPECT_GT(spans, r.completed); // the serve really was traced
    EXPECT_EQ(bad, 0u) << "spans overlapping another on their row";
}

} // namespace
} // namespace ansmet
