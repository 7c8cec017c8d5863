/**
 * @file
 * Invariant-audit layer: ANSMET_CHECK and ANSMET_DCHECK.
 *
 * ANSMET_CHECK(cond, ...) is always on. It is for invariants whose
 * violation means simulator state is corrupt and continuing would
 * silently falsify results (lossless-ET agreement, DRAM timing,
 * event-queue ordering at scheduling boundaries). Failure panics with
 * the formatted message, file, and line.
 *
 * ANSMET_DCHECK(cond, ...) is the hot-path variant. The condition is
 * evaluated only when the audit mode is enabled, so release runs pay a
 * single predictable branch per site. Audit mode defaults to on in
 * Debug builds and in builds configured with -DANSMET_AUDIT=ON (the
 * sanitizer CI presets do this); any build can flip it at runtime with
 * the ANSMET_AUDIT environment variable (ANSMET_AUDIT=1 enables,
 * ANSMET_AUDIT=0 disables). Tests force it with setAuditEnabled().
 *
 * Both macros evaluate their condition at most once and their message
 * arguments only on failure.
 */

#ifndef ANSMET_COMMON_CHECK_H
#define ANSMET_COMMON_CHECK_H

#include "common/logging.h"

namespace ansmet {

namespace check_detail {

/**
 * The audit flag. It is constant-initialized to the build default, so
 * it holds a valid value even during static initialization, and
 * check.cc applies the ANSMET_AUDIT override before main(). Reading it
 * inline keeps a dormant DCHECK at one load and one branch.
 */
extern bool auditFlag;

} // namespace check_detail

/** Whether ANSMET_DCHECK sites are evaluated in this process. */
inline bool
auditEnabled()
{
    return check_detail::auditFlag;
}

/** Force the audit mode, overriding environment and build default. */
void setAuditEnabled(bool on);

/** Fatal always-on invariant check. */
#define ANSMET_CHECK(cond, ...) \
    do { \
        if (!(cond)) { \
            ::ansmet::detail::panicImpl(__FILE__, __LINE__, \
                ::ansmet::detail::concat("check failed: " #cond " ", \
                                         ##__VA_ARGS__)); \
        } \
    } while (0)

/** Audit-mode invariant check; skipped unless auditEnabled(). */
#define ANSMET_DCHECK(cond, ...) \
    do { \
        if (::ansmet::auditEnabled() && !(cond)) { \
            ::ansmet::detail::panicImpl(__FILE__, __LINE__, \
                ::ansmet::detail::concat("dcheck failed: " #cond " ", \
                                         ##__VA_ARGS__)); \
        } \
    } while (0)

} // namespace ansmet

#endif // ANSMET_COMMON_CHECK_H
