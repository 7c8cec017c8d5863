#include "common/check.h"

#include <cstdlib>

namespace ansmet {

namespace check_detail {

#if defined(ANSMET_AUDIT_DEFAULT_ON) || !defined(NDEBUG)
constinit bool auditFlag = true;
#else
constinit bool auditFlag = false;
#endif

namespace {

bool
applyAuditEnv()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only config knob,
    // queried once during static initialization; nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_AUDIT"))
        auditFlag = env[0] != '\0' && env[0] != '0';
    return true;
}

[[maybe_unused]] const bool audit_env_applied = applyAuditEnv();

} // namespace

} // namespace check_detail

void
setAuditEnabled(bool on)
{
    check_detail::auditFlag = on;
}

} // namespace ansmet
