/**
 * @file
 * Per-comparison fetch simulation.
 *
 * Given a query, a database vector, and the threshold in force, the
 * FetchSimulator walks the vector's in-memory layout line by line,
 * updating the conservative lower bound after each 64 B fetch exactly
 * as the NDP distance-computing unit would, and reports how many lines
 * were fetched, whether early termination fired, and the final
 * accept/reject decision. Each core::SystemModel builds its own
 * simulator for its dataset and its design's scheme. Results are a
 * pure function of the inputs, so the model may compute them ahead of
 * the replay on any thread.
 */

#ifndef ANSMET_ET_FETCHSIM_H
#define ANSMET_ET_FETCHSIM_H

#include <map>
#include <memory>

#include "anns/distance.h"
#include "anns/vector.h"
#include "common/sync.h"
#include "et/bounds.h"
#include "et/layout.h"
#include "et/prefix.h"
#include "et/profile.h"

namespace ansmet::et {

/** Early-termination schemes evaluated in the paper (Section 6). */
enum class EtScheme : std::uint8_t
{
    kNone,      //!< fetch everything (CPU-Base / NDP-Base)
    kDimOnly,   //!< partial dimensions, full bits (NDP-DimET)
    kBitSerial, //!< fixed 1-bit steps (NDP-BitET, BitNN-style)
    kHeuristic, //!< hybrid 4-bit int / 8-bit float chunks (NDP-ET)
    kDual,      //!< + dual-granularity fetch (NDP-ET+Dual)
    kOpt,       //!< + common prefix elimination (NDP-ETOpt / ANSMET)
};

const char *schemeName(EtScheme s);

/** Outcome of simulating one comparison. */
struct FetchResult
{
    unsigned lines = 0;        //!< transformed-layout lines fetched
    unsigned backupLines = 0;  //!< outlier-backup re-check lines
    bool terminatedEarly = false;
    bool accepted = false;     //!< exact decision (lossless schemes)
    double exactDist = 0.0;
    /**
     * Final lower-bound estimate; for lossy no-backup operation this
     * is what the accept decision would be based on (Table 5b).
     */
    double estimate = 0.0;

    unsigned totalLines() const { return lines + backupLines; }
};

/** Simulates the fetch/bound loop of one ET scheme over a dataset. */
class FetchSimulator
{
  public:
    /**
     * @param profile preprocessing output; required for kDual/kOpt,
     *        optional otherwise (kNone..kHeuristic only need the
     *        global range for IP, which a null profile approximates
     *        with a wide interval)
     */
    FetchSimulator(const anns::VectorSet &vs, anns::Metric metric,
                   EtScheme scheme, const EtProfile *profile);

    /** Simulate one comparison against @p threshold. */
    FetchResult simulate(const float *query, VectorId v,
                         double threshold) const;

    /**
     * Simulate the rank-local part of a comparison when the vector is
     * vertically split: only dims [dim_begin, dim_end) are fetched by
     * this rank, and its local bound (partial distance of the
     * sub-vector, everything else conservatively open) is compared to
     * the full threshold — the paper's reduced-effectiveness local ET.
     */
    FetchResult simulateRange(const float *query, VectorId v,
                              double threshold, unsigned dim_begin,
                              unsigned dim_end) const;

    const FetchPlanSpec &plan() const { return plan_; }
    EtScheme scheme() const { return scheme_; }

    /** Number of vectors in the underlying set. */
    std::size_t datasetSize() const { return vs_.size(); }

    /** Lines per vector when nothing terminates (layout size). */
    unsigned fullLines() const { return plan_.totalLines(); }

    /** Lines of one uncompressed backup vector. */
    unsigned
    backupVectorLines() const
    {
        return static_cast<unsigned>(
            divCeil(static_cast<std::uint64_t>(vs_.dims()) *
                        keyBits(vs_.type()),
                    512));
    }

    /** Prefix-elimination state (kOpt only). */
    const PrefixElimination *prefixElimination() const { return pe_.get(); }

    /**
     * Plan for a sub-vector of @p dims dimensions (cached). Safe to
     * call concurrently: simulate()/simulateRange() are otherwise
     * pure, so the timing layer precomputes fetch results across
     * queries in parallel.
     */
    const FetchPlanSpec &subPlan(unsigned dims) const;

    /**
     * Whether this scheme performs bound checks at all. Matches the
     * paper's observation that partial-dimension-only ET (prior work)
     * "does not work for the inner-product metric" — unfetched
     * dimensions can contribute arbitrary negative values, and prior
     * designs have no mechanism to bound them, so NDP-DimET degrades
     * to NDP-Base on IP datasets (Figure 6, GloVe/Txt2Img).
     */
    bool
    checksBounds() const
    {
        if (scheme_ == EtScheme::kNone)
            return false;
        if (scheme_ == EtScheme::kDimOnly &&
            metric_ != anns::Metric::kL2) {
            return false;
        }
        return true;
    }

  private:
    const anns::VectorSet &vs_;
    anns::Metric metric_;
    EtScheme scheme_;
    const EtProfile *profile_;
    FetchPlanSpec plan_;
    ValueInterval global_range_;
    std::unique_ptr<PrefixElimination> pe_;
    // Lazily grown plan cache; entries are stable once inserted (the
    // map guarantees reference stability). The hot path is read-mostly
    // — a handful of distinct sub-vector sizes, millions of lookups —
    // so readers take the shared side and only a miss upgrades to the
    // exclusive side with a double-checked insert.
    mutable SharedMutex sub_plans_mu_;
    mutable std::map<unsigned, FetchPlanSpec> sub_plans_
        ANSMET_GUARDED_BY(sub_plans_mu_);
};

} // namespace ansmet::et

#endif // ANSMET_ET_FETCHSIM_H
