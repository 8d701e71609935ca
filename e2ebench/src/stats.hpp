// Order statistics for per-op wall times.
//
// The benchmark gates on the fastest op of a run of at least
// minSamplesFor(0.1) ops: on a shared host, noise only ever makes ops
// slower, and slow spells cover whole seconds to minutes, so the lower a
// statistic sits the more of a partly covered run it ignores (NOTES.md
// has the measurements).  Per-layer times and diagnostics use the p10.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

/// A gated percentile needs at least this many samples below it; with
/// fewer it is one or two lucky ops, not a level.
inline constexpr std::size_t kMinBelow = 10;

/// Nearest-rank percentile: the value at sorted index floor(q * n), so
/// floor(q * n) samples sit below it.  Throws std::invalid_argument when
/// `q` is outside [0, 1), when `samples` is empty, or when fewer than
/// `minBelow` samples sit below the percentile.
double percentile(std::vector<double> samples, double q,
                  std::size_t minBelow = kMinBelow);

/// Smallest sample count for which percentile(q, minBelow) is defined.
std::size_t minSamplesFor(double q, std::size_t minBelow = kMinBelow);

}  // namespace e2e
