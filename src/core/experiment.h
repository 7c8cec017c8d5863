/**
 * @file
 * Experiment harness shared by the benchmark binaries: builds (or
 * loads from cache) a dataset + HNSW index, tunes efSearch for the
 * paper's >= 80% recall methodology, runs the ET preprocessing, traces
 * the queries once, and replays them under any design.
 */

#ifndef ANSMET_CORE_EXPERIMENT_H
#define ANSMET_CORE_EXPERIMENT_H

#include <memory>
#include <string>
#include <vector>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"

namespace ansmet::core {

/** Workload + methodology configuration for one experiment context. */
struct ExperimentConfig
{
    anns::DatasetId dataset = anns::DatasetId::kSift;
    std::size_t numVectors = 0; //!< 0 = dataset default (scaled down)
    std::size_t numQueries = 0;
    std::size_t k = 10;
    std::size_t efSearch = 0;   //!< 0 = auto-tune to targetRecall
    double targetRecall = 0.80; //!< the paper's recall floor
    std::uint64_t seed = 1;
    double zipfAlpha = 0.0;     //!< skewed queries (Section 5.3 study)

    /**
     * HNSW parameters. The paper uses efConstruction=500 at
     * million/billion scale; at our scaled-down N, 200 yields graphs
     * of equivalent quality in a fraction of the build time.
     */
    anns::HnswParams hnsw{16, 200, 42};

    et::ProfileConfig profile{};
};

/**
 * A fully prepared workload: dataset, index, ground truth, traces,
 * and the ET profile, all built by the constructor. Expensive parts
 * (graph build) are cached on disk under .ansmet_cache/.
 */
class ExperimentContext
{
  public:
    explicit ExperimentContext(const ExperimentConfig &cfg);

    const ExperimentConfig &config() const { return cfg_; }
    const anns::Dataset &dataset() const { return ds_; }
    const anns::HnswIndex &index() const { return *index_; }
    const et::EtProfile &profile() const { return profile_; }
    const std::vector<QueryTrace> &traces() const { return traces_; }

    std::size_t efSearch() const { return ef_; }
    double recall() const { return recall_; }

    /** HNSW top-layer vertices (the paper replicates the top 4). */
    const std::vector<VectorId> &hotVectors() const { return hot_; }

    /** Exact k nearest neighbors of every query. */
    const std::vector<std::vector<anns::Neighbor>> &
    groundTruth() const
    {
        return gt_;
    }

    /** Wall-clock seconds of each preprocessing stage (Table 4). */
    double graphBuildSeconds() const { return graph_seconds_; }
    double etPreprocSeconds() const { return preproc_seconds_; }

    /** Replay the traces under @p design with default hardware. */
    RunStats runDesign(Design design) const;

    /** Replay under an explicit system configuration. */
    RunStats runDesign(const SystemConfig &cfg) const;

    /**
     * Re-trace with a different efSearch (Figure 8 sweeps) and return
     * (traces, recall) without touching this context's default traces.
     */
    std::pair<std::vector<QueryTrace>, double>
    traceWithEf(std::size_t ef) const;

    /** Default SystemConfig for @p design (Table 1 parameters). */
    SystemConfig systemConfig(Design design) const;

  private:
    void buildOrLoadIndex();
    std::size_t tuneEf();

    ExperimentConfig cfg_;
    anns::Dataset ds_;
    std::unique_ptr<anns::HnswIndex> index_;
    et::EtProfile profile_;
    std::vector<QueryTrace> traces_;
    std::vector<VectorId> hot_;
    std::size_t ef_ = 0;
    double recall_ = 0.0;
    double graph_seconds_ = 0.0;
    double preproc_seconds_ = 0.0;
    std::vector<std::vector<anns::Neighbor>> gt_;
};

} // namespace ansmet::core

#endif // ANSMET_CORE_EXPERIMENT_H
