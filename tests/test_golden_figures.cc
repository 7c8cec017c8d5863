/**
 * @file
 * Golden-figure regression test: replays a small fixed-seed slice of
 * the fig06 (design speedups), fig07 (system energy) and fig08
 * (efSearch sweep) workloads in-process and diffs the rows against
 * checked-in golden files, so a silent drift in simulated timing fails
 * ctest instead of waiting for the manual CI figure diff.
 *
 * The rows record integer makespans (ticks), recalls and energies
 * (printed with %a, so exactly) produced by the deterministic event
 * queue; they are invariant to thread count
 * and SIMD tier by the repo's determinism contracts. Dataset synthesis
 * goes through libm (log/sin/cos), so goldens are pinned to the
 * toolchain the repo targets; regenerate with
 *
 *     ANSMET_UPDATE_GOLDEN=1 ./tests/test_golden_figures
 *
 * after an intentional change and commit the updated files.
 */

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/design.h"
#include "core/experiment.h"

namespace ansmet::core {
namespace {

/** Small but non-trivial workload; the seed is distinct from every
 *  bench configuration so the on-disk graph caches never collide. */
ExperimentConfig
goldenConfig(anns::DatasetId id)
{
    ExperimentConfig cfg;
    cfg.dataset = id;
    cfg.numVectors = 1200;
    cfg.numQueries = 8;
    cfg.k = 10;
    cfg.efSearch = 50; // fixed: ef auto-tuning is not under test here
    cfg.seed = 99;
    cfg.hnsw = anns::HnswParams{16, 60, 42};
    cfg.profile.numSamples = 50;
    cfg.profile.maxPairs = 800;
    return cfg;
}

const ExperimentContext &
goldenContext(anns::DatasetId id)
{
    static std::map<int, std::unique_ptr<ExperimentContext>> cache;
    auto &slot = cache[static_cast<int>(id)];
    if (!slot)
        slot = std::make_unique<ExperimentContext>(goldenConfig(id));
    return *slot;
}

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

/** fig06 slice: absolute makespans for a design subset on two
 *  datasets covering both metrics (L2 and IP). */
std::vector<std::string>
fig06Rows()
{
    const std::vector<Design> designs = {Design::kCpuBase,
                                         Design::kNdpBase,
                                         Design::kNdpEtOpt};
    std::vector<std::string> rows;
    for (const auto id :
         {anns::DatasetId::kSift, anns::DatasetId::kGlove}) {
        const ExperimentContext &ctx = goldenContext(id);
        for (const Design d : designs) {
            const RunStats rs = ctx.runDesign(d);
            std::uint64_t comparisons = 0;
            for (const QueryStats &q : rs.queries)
                comparisons += q.comparisons;
            rows.push_back(fmt(
                "fig06 %s %s makespan_ps=%llu comparisons=%llu",
                anns::datasetSpec(id).name.c_str(), designName(d),
                static_cast<unsigned long long>(rs.makespan.raw()),
                static_cast<unsigned long long>(comparisons)));
        }
    }
    return rows;
}

/** fig07 slice: system energy and its components for the fig06
 *  design subset. %a prints every double exactly. */
std::vector<std::string>
fig07Rows()
{
    std::vector<std::string> rows;
    for (const auto id :
         {anns::DatasetId::kSift, anns::DatasetId::kGlove}) {
        const ExperimentContext &ctx = goldenContext(id);
        for (const Design d :
             {Design::kCpuBase, Design::kNdpBase, Design::kNdpEtOpt}) {
            const dram::EnergyBreakdown e = ctx.runDesign(d).energy;
            rows.push_back(fmt(
                "fig07 %s %s total_nj=%a act_pre=%a rd_wr=%a io=%a "
                "refresh=%a background=%a",
                anns::datasetSpec(id).name.c_str(), designName(d),
                e.totalNj(), e.actPreNj, e.rdWrCoreNj, e.ioNj,
                e.refreshNj, e.backgroundNj));
        }
    }
    return rows;
}

/** fig08 slice: efSearch sweep on one dataset, recall + makespans. */
std::vector<std::string>
fig08Rows()
{
    const ExperimentContext &ctx = goldenContext(anns::DatasetId::kSift);
    std::vector<std::string> rows;
    for (const std::size_t ef : {std::size_t{10}, std::size_t{40}}) {
        const auto [traces, recall] = ctx.traceWithEf(ef);
        std::uint64_t base = 0, etopt = 0;
        for (const Design d : {Design::kCpuBase, Design::kNdpEtOpt}) {
            SystemConfig cfg = ctx.systemConfig(d);
            SystemModel model(cfg, *ctx.dataset().base,
                              ctx.dataset().metric(), &ctx.profile(),
                              ctx.hotVectors());
            const std::uint64_t ms = model.run(traces).makespan.raw();
            (d == Design::kCpuBase ? base : etopt) = ms;
        }
        rows.push_back(fmt("fig08 sift ef=%zu recall=%.4f "
                           "cpu_base_ps=%llu ndp_etopt_ps=%llu",
                           ef, recall,
                           static_cast<unsigned long long>(base),
                           static_cast<unsigned long long>(etopt)));
    }
    return rows;
}

std::vector<std::string>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        rows.push_back(line);
    }
    return rows;
}

void
writeGolden(const std::string &path,
            const std::vector<std::string> &rows)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << "# Golden figure rows. Regenerate after an intentional\n"
           "# timing/model change with:\n"
           "#   ANSMET_UPDATE_GOLDEN=1 ./tests/test_golden_figures\n";
    for (const auto &r : rows)
        out << r << "\n";
}

void
checkAgainstGolden(const char *file,
                   const std::vector<std::string> &rows)
{
    const std::string path = std::string(ANSMET_GOLDEN_DIR) + "/" + file;
    if (std::getenv("ANSMET_UPDATE_GOLDEN")) {
        writeGolden(path, rows);
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::vector<std::string> golden = readGolden(path);
    ASSERT_FALSE(golden.empty())
        << "missing or empty golden file " << path
        << " — run with ANSMET_UPDATE_GOLDEN=1 to create it";
    // Compare row-by-row for readable failures before the exact check.
    const std::size_t n = std::min(golden.size(), rows.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(rows[i], golden[i]) << "figure row " << i << " drifted";
    EXPECT_EQ(rows.size(), golden.size());
}

TEST(GoldenFigures, Fig06DesignMakespans)
{
    checkAgainstGolden("fig06.txt", fig06Rows());
}

TEST(GoldenFigures, Fig07Energy)
{
    checkAgainstGolden("fig07.txt", fig07Rows());
}

TEST(GoldenFigures, Fig08EfSweep)
{
    checkAgainstGolden("fig08.txt", fig08Rows());
}

} // namespace
} // namespace ansmet::core
