// Tier dispatch: resolves which backend the public wrappers call.
//
// Resolution order (strongest first): set_tier(), then the `simd` knob of
// obs::runtime_config() (--simd / CCG_SIMD, default "auto": the best
// compiled-in tier the running CPU supports). A requested tier that is
// unavailable degrades to the best available one with a warning, so
// CCG_SIMD=avx2 on a non-AVX2 host still runs, just slower. The resolved
// tier is published as the ccg.simd.tier gauge so flight records say which
// tier produced a run.
#include <atomic>
#include <string>
#include <string_view>

#include "backend.hpp"
#include "ccg/obs/config.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg::simd {

namespace detail {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

const Backend* best_available() {
  if (const Backend* b = avx2_backend(); b != nullptr && cpu_supports_avx2()) {
    return b;
  }
  if (const Backend* b = neon_backend(); b != nullptr) return b;
  return scalar_backend();
}

const Backend* backend_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return scalar_backend();
    case Tier::kAvx2:
      return avx2_backend() != nullptr && cpu_supports_avx2() ? avx2_backend()
                                                              : nullptr;
    case Tier::kNeon:
      return neon_backend();
  }
  return nullptr;
}

void publish_tier(const Backend* b) {
  obs::Registry::global()
      .gauge("ccg.simd.tier")
      .set(static_cast<double>(static_cast<int>(b->tier)));
}

std::atomic<const Backend*> g_backend{nullptr};

}  // namespace

const Backend* current_backend() {
  const Backend* b = g_backend.load(std::memory_order_acquire);
  if (b == nullptr) {
    // Benign race: concurrent first calls resolve to the same backend.
    set_tier(obs::runtime_config().simd);
    b = g_backend.load(std::memory_order_acquire);
  }
  return b;
}

}  // namespace detail

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
  }
  return "unknown";
}

Tier active_tier() { return detail::current_backend()->tier; }

bool tier_available(Tier tier) {
  return detail::backend_for(tier) != nullptr;
}

bool set_tier(std::string_view mode) {
  const detail::Backend* chosen = nullptr;
  if (mode == "auto") {
    chosen = detail::best_available();
  } else if (mode == "scalar") {
    chosen = detail::backend_for(Tier::kScalar);
  } else if (mode == "avx2" || mode == "neon") {
    const Tier want = mode == "avx2" ? Tier::kAvx2 : Tier::kNeon;
    chosen = detail::backend_for(want);
    if (chosen == nullptr) {
      chosen = detail::best_available();
      obs::log_warn("requested simd tier unavailable, degrading",
                    {obs::field("requested", mode),
                     obs::field("dispatched", tier_name(chosen->tier))});
    }
  } else {
    return false;
  }
  detail::g_backend.store(chosen, std::memory_order_release);
  detail::publish_tier(chosen);
  return true;
}

std::string capability_string() {
  std::string compiled = "scalar";
  if (detail::avx2_backend() != nullptr) compiled += ",avx2";
  if (detail::neon_backend() != nullptr) compiled += ",neon";
  std::string out = "compiled=" + compiled;
  out += " dispatched=";
  out += tier_name(active_tier());
  return out;
}

// --- public wrappers --------------------------------------------------------

double dot(const double* a, const double* b, std::size_t n) {
  return detail::current_backend()->dot(a, b, n);
}

double squared_distance(const double* a, const double* b, std::size_t n) {
  return detail::current_backend()->squared_distance(a, b, n);
}

double gather_sum(const double* base, const std::uint32_t* idx,
                  std::size_t n) {
  return detail::current_backend()->gather_sum(base, idx, n);
}

double gather_dot(const double* base, const std::uint32_t* idx, const double* w,
                  std::size_t n) {
  return detail::current_backend()->gather_dot(base, idx, w, n);
}

double masked_sum(const std::uint32_t* ids, const double* w, std::size_t n,
                  std::uint32_t exclude_id) {
  return detail::current_backend()->masked_sum(ids, w, n, exclude_id);
}

double max_abs(const double* a, std::size_t n) {
  return detail::current_backend()->max_abs(a, n);
}

void rotate_pair(double* x, double* y, double c, double s, std::size_t n) {
  detail::current_backend()->rotate_pair(x, y, c, s, n);
}

void rank1_update(double* row, const double* vec, double vr, std::size_t n) {
  detail::current_backend()->rank1_update(row, vec, vr, n);
}

double rank1_update_abs_sum(double* row, const double* vec, double vr,
                            std::size_t n) {
  return detail::current_backend()->rank1_update_abs_sum(row, vec, vr, n);
}

std::uint32_t count_stamped(const std::uint32_t* ids, std::size_t n,
                            const std::uint32_t* stamp, std::uint32_t version) {
  return detail::current_backend()->count_stamped(ids, n, stamp, version);
}

JaccardCounts jaccard_counts(const std::uint32_t* ids, const std::int32_t* tags,
                             const std::int32_t* ports, std::size_t n,
                             const std::uint32_t* stamp,
                             const std::int32_t* vtag, const std::int32_t* vport,
                             std::uint32_t version, bool use_direction,
                             std::uint32_t exclude_id) {
  return detail::current_backend()->jaccard_counts(
      ids, tags, ports, n, stamp, vtag, vport, version, use_direction,
      exclude_id);
}

WeightedOverlap weighted_overlap(const std::uint32_t* ids, const double* w,
                                 std::size_t n, const std::uint32_t* stamp,
                                 const double* vweight, std::uint32_t version,
                                 std::uint32_t exclude_id) {
  return detail::current_backend()->weighted_overlap(ids, w, n, stamp, vweight,
                                                     version, exclude_id);
}

void minhash_update(std::uint64_t feature_shifted, const std::uint64_t* salts,
                    std::uint64_t* sig, std::size_t k) {
  detail::current_backend()->minhash_update(feature_shifted, salts, sig, k);
}

}  // namespace ccg::simd
