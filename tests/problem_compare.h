// Identity check for two ChargingProblems over the same sensors: a
// problem whose coverage lists were induced from a superset
// (model::CoverageLists::induced) must be the problem a fresh grid query
// builds. Used by model_test.cpp (the simulator's per-round view) and
// replan_test.cpp (the recovery sub-problem).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "model/charging_problem.h"

namespace mcharge::testing_problems {

inline std::vector<std::uint32_t> as_vector(
    std::span<const std::uint32_t> ids) {
  return {ids.begin(), ids.end()};
}

/// Coverage lists element by element, tau by bit pattern, and the
/// overlapping predicate for every pair.
inline ::testing::AssertionResult same_problem(
    const model::ChargingProblem& got, const model::ChargingProblem& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (std::uint32_t v = 0; v < got.size(); ++v) {
    if (as_vector(got.coverage(v)) != as_vector(want.coverage(v))) {
      return ::testing::AssertionFailure() << "coverage(" << v << ") differs";
    }
    if (std::bit_cast<std::uint64_t>(got.tau(v)) !=
        std::bit_cast<std::uint64_t>(want.tau(v))) {
      return ::testing::AssertionFailure()
             << "tau(" << v << ") " << got.tau(v) << " vs " << want.tau(v);
    }
  }
  for (std::uint32_t u = 0; u < got.size(); ++u) {
    for (std::uint32_t v = 0; v < got.size(); ++v) {
      if (got.overlapping(u, v) != want.overlapping(u, v)) {
        return ::testing::AssertionFailure()
               << "overlapping(" << u << ", " << v << ") differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mcharge::testing_problems
