#include "et/fetchsim.h"

#include <limits>

#include "common/check.h"

namespace ansmet::et {

const char *
schemeName(EtScheme s)
{
    switch (s) {
      case EtScheme::kNone:      return "None";
      case EtScheme::kDimOnly:   return "DimET";
      case EtScheme::kBitSerial: return "BitET";
      case EtScheme::kHeuristic: return "ET";
      case EtScheme::kDual:      return "ET+Dual";
      case EtScheme::kOpt:       return "ETOpt";
    }
    return "?";
}

namespace {

/**
 * Per-thread comparison scratch: a reusable bound accumulator, the
 * vector's decoded sortable keys, and the interval staging arrays the
 * batched bound kernel consumes. One-time allocation per thread;
 * simulate() then runs allocation-free no matter how many comparisons
 * it performs.
 */
struct SimScratch
{
    BoundAccumulator acc;
    std::vector<std::uint32_t> keys;
    std::vector<double> nlo;
    std::vector<double> nhi;

    void
    arm(unsigned dims)
    {
        if (nlo.size() < dims) {
            keys.resize(dims);
            nlo.resize(dims);
            nhi.resize(dims);
        }
    }
};

thread_local SimScratch t_scratch;

FetchPlanSpec
planFor(EtScheme s, ScalarType t, unsigned dims, const EtProfile *prof)
{
    switch (s) {
      case EtScheme::kNone:
      case EtScheme::kDimOnly:
        return FetchPlanSpec::full(t, dims);
      case EtScheme::kBitSerial:
        return FetchPlanSpec::bitSerial(t, dims);
      case EtScheme::kHeuristic:
        return FetchPlanSpec::heuristic(t, dims);
      case EtScheme::kDual: {
        ANSMET_ASSERT(prof, "kDual needs a profile");
        const DualParams &dp = prof->dualNoPrefix;
        return FetchPlanSpec::dual(t, dims, 0, dp.nc, dp.tc, dp.nf);
      }
      case EtScheme::kOpt: {
        ANSMET_ASSERT(prof, "kOpt needs a profile");
        const DualParams &dp = prof->dualWithPrefix;
        // The OlElm bitmap is only needed when a prefix is eliminated
        // (no prefix -> no outliers to flag).
        return FetchPlanSpec::dual(t, dims, prof->commonPrefix.length,
                                   dp.nc, dp.tc, dp.nf,
                                   prof->commonPrefix.length > 0);
      }
    }
    ANSMET_PANIC("unknown scheme");
}

} // namespace

FetchSimulator::FetchSimulator(const anns::VectorSet &vs,
                               anns::Metric metric, EtScheme scheme,
                               const EtProfile *profile,
                               const std::vector<unsigned> &sub_dims)
    : vs_(vs), metric_(metric), scheme_(scheme),
      plan_(planFor(scheme, vs.type(), vs.dims(), profile)),
      global_range_{-std::numeric_limits<double>::max() / 4,
                    std::numeric_limits<double>::max() / 4}
{
    ANSMET_ASSERT(plan_.valid());
    if (profile)
        global_range_ = profile->globalRange;
    if (scheme == EtScheme::kOpt) {
        pe_ = std::make_unique<PrefixElimination>(profile->commonPrefix,
                                                  vs);
    }
    for (const unsigned dims : sub_dims) {
        if (dims == vs.dims() || sub_plans_.contains(dims))
            continue;
        FetchPlanSpec plan;
        if ((scheme == EtScheme::kDual || scheme == EtScheme::kOpt) &&
            profile) {
            // Line packing depends on the sub-vector dimensionality, so
            // the offline pass re-optimizes (nC, TC, nF) per sub-vector
            // size rather than inheriting the full-vector parameters.
            const unsigned prefix =
                scheme == EtScheme::kOpt ? profile->commonPrefix.length : 0;
            const DualParams dp = optimizeDual(
                profile->etPositions, keyBits(vs.type()), prefix, dims);
            plan = FetchPlanSpec::dual(vs.type(), dims, prefix, dp.nc,
                                       dp.tc, dp.nf,
                                       scheme == EtScheme::kOpt &&
                                           prefix > 0);
        } else {
            plan = planFor(scheme, vs.type(), dims, profile);
        }
        sub_plans_.emplace(dims, std::move(plan));
    }
}

const FetchPlanSpec &
FetchSimulator::subPlan(unsigned dims) const
{
    if (dims == vs_.dims())
        return plan_;
    const auto it = sub_plans_.find(dims);
    ANSMET_CHECK(it != sub_plans_.end(), "no fetch plan for a ", dims,
                 "-dim sub-vector: name it at construction");
    return it->second;
}

FetchResult
FetchSimulator::simulate(const float *query, VectorId v,
                         double threshold) const
{
    return simulateRange(query, v, threshold, 0, vs_.dims());
}

FetchResult
FetchSimulator::simulateRange(const float *query, VectorId v,
                              double threshold, unsigned dim_begin,
                              unsigned dim_end) const
{
    ANSMET_CHECK(dim_begin < dim_end && dim_end <= vs_.dims(),
                 "bad dimension range [", dim_begin, ", ", dim_end, ")");
    const FetchPlanSpec &plan = subPlan(dim_end - dim_begin);

    FetchResult res;
    res.exactDist = anns::distance(metric_, query, vs_, v);
    res.accepted = res.exactDist < threshold;

    const unsigned w = keyBits(vs_.type());

    if (!checksBounds()) {
        // Plain full fetch of the sub-vector.
        res.lines = plan.totalLines();
        res.estimate = res.exactDist;
        return res;
    }

    // The local bound covers only this rank's dims; all others keep
    // their conservative initial contribution. The accumulator, the
    // keys and the interval staging arrays are leased from the
    // per-thread scratch, so a comparison allocates nothing.
    SimScratch &scratch = t_scratch;
    scratch.arm(vs_.dims());
    BoundAccumulator &acc = scratch.acc;
    acc.reset(metric_, query, vs_.dims(), global_range_);
    const ScalarType type = vs_.type();
    const unsigned n = dim_end - dim_begin;
    std::uint32_t *const keys = scratch.keys.data();
    double *const nlo = scratch.nlo.data();
    double *const nhi = scratch.nhi.data();
    FetchCursor cursor(plan);

    // Decode the sub-vector's sortable keys once; every line below
    // reveals a prefix of these.
    for (unsigned sd = 0; sd < n; ++sd)
        keys[sd] = toKey(type, vs_.bitsAt(v, dim_begin + sd));

    // The eliminated common prefix is known on-chip before any fetch
    // for normal vectors; outlier vectors reveal nothing up front.
    const bool is_outlier = pe_ && pe_->vectorIsOutlier(v);
    if (pe_ && !is_outlier && plan.prefixLen > 0) {
        stageIntervals(type, keys, n, plan.prefixLen, nlo, nhi);
        acc.updateBatch(dim_begin, n, nlo, nhi);
    }

    // Each fetch step may only tighten the conservative bound; a
    // decreasing bound would mean the accumulator forgot knowledge and
    // early termination is no longer trustworthy.
    double prev_bound = acc.lowerBound();

    while (!cursor.done()) {
        const LineInfo info = cursor.next();
        ++res.lines;
        ANSMET_DCHECK(res.lines <= plan.totalLines(),
                      "fetch cursor overran the layout: ", res.lines,
                      " of ", plan.totalLines());

        // Stage the whole line's intervals, then tighten them in one
        // batched kernel pass.
        const unsigned line_dims = info.dimEnd - info.dimBegin;
        const unsigned fetched = info.knownBitsAfter - plan.prefixLen;
        if (!is_outlier) {
            // Every element of a normal vector knows the same prefix
            // after the line, so one staging call covers it.
            const unsigned known =
                pe_ ? pe_->knownLen(v, dim_begin + info.dimBegin, fetched)
                    : info.knownBitsAfter;
            ANSMET_DCHECK(known >= 1 && known <= w,
                          "line revealed a prefix of ", known, " bits");
            stageIntervals(type, keys + info.dimBegin, line_dims, known,
                           nlo, nhi);
        } else {
            // Outlier elements carry their own match lengths. A
            // dimension that learned nothing keeps an infinite
            // interval: the intersection is a no-op and its delta is
            // exactly zero, so skipped dims cost nothing.
            for (unsigned sd = info.dimBegin; sd < info.dimEnd; ++sd) {
                const unsigned slot = sd - info.dimBegin;
                const unsigned known =
                    pe_->knownLen(v, dim_begin + sd, fetched);
                if (known == 0) {
                    nlo[slot] = -std::numeric_limits<double>::infinity();
                    nhi[slot] = std::numeric_limits<double>::infinity();
                    continue;
                }
                const ValueInterval iv =
                    intervalFromPrefix(type, keys[sd] >> (w - known), known);
                nlo[slot] = iv.lo;
                nhi[slot] = iv.hi;
            }
        }
        acc.updateBatch(dim_begin + info.dimBegin, line_dims, nlo, nhi);

        ANSMET_DCHECK(acc.lowerBound() >= prev_bound,
                      "lower bound regressed across a fetch step: ",
                      acc.lowerBound(), " < ", prev_bound);
        prev_bound = acc.lowerBound();

        if (boundExceeds(acc.lowerBound(), threshold)) {
            res.terminatedEarly = true;
            res.estimate = acc.lowerBound();
            // Lossless-vs-exact agreement: the schemes are designed so
            // termination never rejects a vector the exact comparison
            // accepts. This is THE correctness claim of the paper.
            ANSMET_CHECK(!res.accepted,
                         "early termination rejected an accepted vector");
            return res;
        }
    }

    res.estimate = acc.lowerBound();
    // A full fetch of a non-outlier vector reveals every stored bit, so
    // the accumulated bound must still lie below the exact distance (up
    // to summation-order noise); anything larger would have made a
    // lossy reject possible.
    ANSMET_DCHECK(is_outlier ||
                      res.estimate <=
                          res.exactDist +
                              1e-6 * (1.0 + std::abs(res.exactDist)),
                  "final bound ", res.estimate, " exceeds exact distance ",
                  res.exactDist);

    // In-bound result on an outlier vector: the dropped low bits make
    // the estimate inexact, so re-check this rank's share of the
    // uncompressed backup copy.
    if (is_outlier) {
        res.backupLines = static_cast<unsigned>(
            divCeil(static_cast<std::uint64_t>(n) * w, 512));
    }

    return res;
}

} // namespace ansmet::et
