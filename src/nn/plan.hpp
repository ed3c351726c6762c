#pragma once

#include <cstdint>

namespace lightnas::nn::plan {

// Zero stub kept for bench_e2e's nn.plan.* metrics; it goes with them.
struct PlanStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compiles = 0;
  std::uint64_t fused_ops = 0;
  std::uint64_t arena_bytes = 0;

  PlanStats operator-(const PlanStats& other) const {
    return {hits - other.hits, misses - other.misses,
            compiles - other.compiles, fused_ops - other.fused_ops,
            arena_bytes - other.arena_bytes};
  }
};

inline PlanStats global_stats() { return {}; }

}  // namespace lightnas::nn::plan
