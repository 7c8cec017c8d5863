/**
 * @file
 * runSerial(): the single-threaded reference path of any parallel
 * stage, for tests that compare it against the pooled run.
 */

#ifndef ANSMET_TESTS_RUN_SERIAL_H
#define ANSMET_TESTS_RUN_SERIAL_H

#include <optional>
#include <utility>

#include "common/runtime/runtime.h"

namespace ansmet {

/** Run @p fn as the body of a one-iteration parallelFor: the body runs
 *  inline as runtime work, so every nested parallel entry point
 *  degrades to the serial (ANSMET_THREADS=1) code path. */
template <typename Fn>
auto
runSerial(Fn fn) -> decltype(fn())
{
    std::optional<decltype(fn())> out;
    runtime::parallelFor(0, 1,
                         [&](std::size_t, std::size_t) { out.emplace(fn()); });
    return std::move(*out);
}

} // namespace ansmet

#endif // ANSMET_TESTS_RUN_SERIAL_H
