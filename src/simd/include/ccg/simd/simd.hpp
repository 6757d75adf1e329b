// Portable SIMD kernel tier for the analysis hot loops.
//
// PR 3 made the kernels parallel with a byte-identical-to-serial contract;
// this tier takes the next factor from *within* a core (ROADMAP: "SIMD +
// cache-blocked kernel tier") without giving that contract up. Three
// backends implement one fixed primitive set:
//
//   scalar — plain C++, compiled everywhere, always selectable
//   avx2   — x86-64 AVX2 intrinsics (built when the target is x86-64,
//            dispatched only when the CPU reports AVX2)
//   neon   — aarch64 NEON intrinsics (NEON is baseline on aarch64)
//
// Determinism contract: every backend returns BIT-identical results for
// every primitive. Two mechanisms make that possible:
//
//   1. Exact primitives (integer counts, u64 MinHash hashing, max of
//      non-negative doubles, element-wise rotate/rank-1 updates) are
//      order-insensitive or element-independent: IEEE-754 guarantees each
//      lane op matches its scalar counterpart bit for bit, so any
//      vectorization strategy agrees with any other.
//
//   2. Floating-point *reductions* are defined against a canonical 4-lane
//      geometry that every backend implements literally: lane j of 4
//      accumulates elements i with i % 4 == j over the aligned prefix, the
//      lanes collapse as (l0 + l1) + (l2 + l3), and the tail (n % 4
//      elements) is added sequentially. The scalar backend models the four
//      lanes with a double[4]; AVX2 maps them onto one __m256d; NEON onto
//      two float64x2_t. The geometry depends only on n — never on the
//      backend or thread count — exactly like the thread pool's chunk
//      layout.
//
// No backend may use fused multiply-add: FMA contracts a*b+c into one
// rounding where the scalar reference takes two, which would break the
// bit-identity across tiers. The simd library is compiled with
// -ffp-contract=off and uses explicit mul/add intrinsics only.
//
// Dispatch resolution order: set_tier() beats the `simd` knob of
// obs::runtime_config() (--simd / CCG_SIMD: "auto" | "scalar" | "avx2" |
// "neon", default auto).
// "auto" picks the best compiled-in tier the running CPU supports.
// Requesting a tier that is not compiled in or not supported by the CPU
// degrades to the best available one (so CCG_SIMD=scalar is honored on
// every host, and CCG_SIMD=avx2 on an old box still runs). The resolved
// tier is exported as the `ccg.simd.tier` gauge (0 = scalar, 1 = avx2,
// 2 = neon) so flight records and metrics dumps say which tier ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ccg::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

const char* tier_name(Tier tier);

/// The tier whose backend the primitives below currently dispatch to.
/// Resolves lazily on first use (runtime config + CPU probe), then stays
/// fixed until set_tier() changes it.
Tier active_tier();

/// Compiled-in and CPU-supported — i.e. selectable right now.
bool tier_available(Tier tier);

/// Overrides dispatch: accepts "auto", "scalar", "avx2", "neon"
/// (case-sensitive, matching CCG_SIMD). Unknown names return false and
/// change nothing. Unavailable tiers degrade to the best available one
/// (a warning is logged).
bool set_tier(std::string_view mode);

/// One line for --version / bug reports, e.g.
/// "compiled=scalar,avx2 dispatched=avx2".
std::string capability_string();

// --- canonical 4-lane floating-point reductions -----------------------------
// All sums follow the canonical lane geometry documented above and are
// bit-identical across backends.

/// Σ a[i]·b[i].
double dot(const double* a, const double* b, std::size_t n);

/// Σ (a[i]−b[i])².
double squared_distance(const double* a, const double* b, std::size_t n);

/// Σ base[idx[i]].
double gather_sum(const double* base, const std::uint32_t* idx, std::size_t n);

/// Σ w[i]·base[idx[i]].
double gather_dot(const double* base, const std::uint32_t* idx,
                  const double* w, std::size_t n);

/// Σ w[i] over ids[i] != exclude_id (pass kNoExclude to keep everything).
double masked_sum(const std::uint32_t* ids, const double* w, std::size_t n,
                  std::uint32_t exclude_id);

inline constexpr std::uint32_t kNoExclude = 0xFFFFFFFFu;

// --- exact element-wise / order-insensitive primitives ----------------------

/// max |a[i]|; 0 when n == 0. Exact at any vector width (max is
/// associative, commutative, and rounding-free).
double max_abs(const double* a, std::size_t n);

/// Plane rotation, element-wise and exact:
///   x[i] ← c·x[i] − s·y[i];  y[i] ← s·x[i] + c·y[i]
void rotate_pair(double* x, double* y, double c, double s, std::size_t n);

/// row[i] += vr·vec[i] (element-wise, exact).
void rank1_update(double* row, const double* vec, double vr, std::size_t n);

/// row[i] −= vr·vec[i]; returns Σ |row[i]| (canonical 4-lane sum).
double rank1_update_abs_sum(double* row, const double* vec, double vr,
                            std::size_t n);

/// Count of ids[i] whose stamp[ids[i]] == version (exact integer count).
std::uint32_t count_stamped(const std::uint32_t* ids, std::size_t n,
                            const std::uint32_t* stamp, std::uint32_t version);

/// Jaccard intersection counting against a stamped neighborhood view.
/// For each i with ids[i] != exclude_id: deg_b increments, and inter
/// increments when stamp[ids[i]] == version and (when use_direction)
/// vtag[ids[i]] == tags[i] and vport[ids[i]] == ports[i].
struct JaccardCounts {
  std::uint32_t inter = 0;
  std::uint32_t deg_b = 0;
};
JaccardCounts jaccard_counts(const std::uint32_t* ids, const std::int32_t* tags,
                             const std::int32_t* ports, std::size_t n,
                             const std::uint32_t* stamp, const std::int32_t* vtag,
                             const std::int32_t* vport, std::uint32_t version,
                             bool use_direction, std::uint32_t exclude_id);

/// Ruzicka (weighted-Jaccard) accumulators over row b against a stamped
/// view of row a. For each i with ids[i] != exclude_id, wb = w[i]:
///   b_total += wb; and when stamp[ids[i]] == version, wa = vweight[ids[i]]:
///   sum_min += min(wa, wb); sum_max_matched += max(wa, wb);
///   matched_a += wa; matched_b += wb.
/// Every accumulator uses the canonical 4-lane geometry (masked lanes add
/// +0.0, which is exact for the non-negative weights involved).
struct WeightedOverlap {
  double sum_min = 0.0;
  double sum_max_matched = 0.0;
  double b_total = 0.0;
  double matched_a = 0.0;
  double matched_b = 0.0;
};
WeightedOverlap weighted_overlap(const std::uint32_t* ids, const double* w,
                                 std::size_t n, const std::uint32_t* stamp,
                                 const double* vweight, std::uint32_t version,
                                 std::uint32_t exclude_id);

/// MinHash lane update (exact u64 arithmetic):
///   sig[h] ← min(sig[h], mix64(feature_shifted ^ salts[h]))  for h < k
/// where mix64 is the splitmix-style finalizer used by the similarity
/// kernels and feature_shifted is the feature already shifted left 8.
void minhash_update(std::uint64_t feature_shifted, const std::uint64_t* salts,
                    std::uint64_t* sig, std::size_t k);

/// The mix64 finalizer itself (shared so salt tables and tests agree).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace ccg::simd
