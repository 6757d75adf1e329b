#include "ccg/obs/config.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace ccg::obs {

namespace {

using C = RuntimeConfig;

// clang-format off
const std::array<Knob, kKnobCount> kKnobs{{
  {"threads", "threads", "CCG_THREADS", &C::threads, 1, 1024, nullptr, "0"},
  {"simd", "simd", "CCG_SIMD", &C::simd, 0, 0, "auto|scalar|avx2|neon", "auto"},
  {"incremental", "incremental", "CCG_INCREMENTAL", &C::incremental, 0, 0, nullptr, "0"},
  {"log_level", "log-level", "CCG_LOG_LEVEL", &C::log_level, 0, 0, "debug|info|warn|warning|error", "warn"},
  {"log_ring", "log-ring", "CCG_LOG_RING", &C::log_ring, 1, 1 << 24, nullptr, "1024"},
  {"log_stderr_rps", "log-stderr-rps", "CCG_LOG_STDERR_RPS", &C::log_stderr_rps, 0.001, 1e6, nullptr, "25"},
  {"trace_ring", "trace-ring", "CCG_TRACE_RING", &C::trace_ring, 1, 1 << 24, nullptr, "65536"},
  {"prof_no_perf", "prof-no-perf", "CCG_PROF_NO_PERF", &C::prof_no_perf, 0, 0, nullptr, "0"},
  {"net_retries", "net-retries", "CCG_NET_RETRIES", &C::net_retries, 1, 1e9, nullptr, "10"},
  {"net_timeout_ms", "net-timeout-ms", "CCG_NET_TIMEOUT_MS", &C::net_timeout_ms, 0, 1e9, nullptr, "30000", 300000},
  {"ops_port", "ops-port", "CCG_OPS_PORT", &C::ops_port, 0, 65535, nullptr, "-1"},
  {"flight_dir", "flight-dir", "CCG_FLIGHT_DIR", &C::flight_dir},
  {"watchdog_ms", "watchdog-ms", "CCG_WATCHDOG_MS", &C::watchdog_ms, 0, 1e9, nullptr, "0"},
  {"slo_watch", "slo-watch", "CCG_SLO_WATCH", &C::slo_watch, 0, 0, nullptr, "0"},
  {"slo_interval_ms", "slo-interval-ms", "CCG_SLO_INTERVAL_MS", &C::slo_interval_ms, 10, 1e9, nullptr, "1000"},
  {"slo_window_lag_ms", "slo-window-lag-ms", "CCG_SLO_WINDOW_LAG_MS", &C::slo_window_lag_ms, 1, 1e9, nullptr, "5000"},
  {"slo_burn", "slo-burn", "CCG_SLO_BURN", &C::slo_burn, 1, 1e6, nullptr, "3"},
  {"trace_out", "trace-out", "CCG_TRACE_OUT", &C::trace_out},
}};
// clang-format on

bool one_of(std::string_view text, std::string_view choices) {
  while (true) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == text) return true;
    if (bar == std::string_view::npos) return false;
    choices.remove_prefix(bar + 1);
  }
}

/// Parses `text` into the row's field; `bounded` is false for the row
/// default, which may be an out-of-range sentinel.
void assign(C& config, const Knob& knob, const std::string& text,
            const std::string& where, bool bounded) {
  const double min = bounded ? knob.min : -kUnbounded;
  const double max = bounded ? knob.max : kUnbounded;
  if (const auto* f = std::get_if<long C::*>(&knob.field)) {
    config.*(*f) = parse_value<long>(text, where, min, max);
  } else if (const auto* f = std::get_if<double C::*>(&knob.field)) {
    config.*(*f) = parse_value<double>(text, where, min, max);
  } else if (const auto* f = std::get_if<bool C::*>(&knob.field)) {
    const bool on = one_of(text, "1|true|yes|on");
    if (!on && !one_of(text, "0|false|no|off")) {
      throw ConfigError(where + " expects 1|true|yes|on or 0|false|no|off, " +
                        "got '" + text + "'");
    }
    config.*(*f) = on;
  } else {
    if (knob.choices != nullptr && !one_of(text, knob.choices)) {
      throw ConfigError(where + " expects " + knob.choices + ", got '" +
                        text + "'");
    }
    config.*std::get<std::string C::*>(knob.field) = text;
  }
}

std::atomic<const RuntimeConfig*> g_config{nullptr};

std::optional<std::string> unset(const char*) { return std::nullopt; }

}  // namespace

template <typename T>
T parse_value(std::string_view text, const std::string& where, double min,
              double max) {
  const auto fail = [&](const std::string& range) {
    throw ConfigError(where + " expects " +
                      (std::is_integral_v<T> ? "an integer" : "a number") +
                      range + ", got '" + std::string(text) + "'");
  };
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    fail("");
  }
  if (!(v >= min && v <= max)) {
    char range[64];
    std::snprintf(range, sizeof(range), " in [%g, %g]", min, max);
    fail(range);
  }
  return v;
}
template long parse_value<long>(std::string_view, const std::string&, double,
                                double);
template double parse_value<double>(std::string_view, const std::string&,
                                    double, double);

std::span<const Knob> knobs() { return kKnobs; }

int RuntimeConfig::aggregator_timeout_ms() const {
  for (std::size_t i = 0; i < kKnobs.size(); ++i) {
    if (kKnobs[i].aggregator_def != 0 && sources[i] == Source::kDefault) {
      return static_cast<int>(kKnobs[i].aggregator_def);
    }
  }
  return static_cast<int>(net_timeout_ms);
}

std::optional<std::string> process_env(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return value;
}

RuntimeConfig resolve_config(const Lookup& flags, const Lookup& env) {
  RuntimeConfig config;
  for (std::size_t i = 0; i < kKnobs.size(); ++i) {
    const Knob& knob = kKnobs[i];
    if (auto v = flags(knob.flag)) {
      // A bare boolean flag (`--slo-watch`) switches its knob on.
      if (v->empty() && std::holds_alternative<bool C::*>(knob.field)) *v = "1";
      assign(config, knob, *v, std::string("--") + knob.flag, true);
      config.sources[i] = Source::kFlag;
    } else if (auto e = env(knob.env); e && !e->empty()) {
      assign(config, knob, *e, std::string("$") + knob.env, true);
      config.sources[i] = Source::kEnv;
    } else {
      assign(config, knob, knob.def, knob.name, false);
    }
  }
  return config;
}

const RuntimeConfig& runtime_config() {
  if (const RuntimeConfig* config = g_config.load(std::memory_order_acquire)) {
    return *config;
  }
  static const RuntimeConfig& from_env = []() -> const RuntimeConfig& {
    try {
      return install_runtime_config(resolve_config(unset, process_env));
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "ccg: %s\n", e.what());
      std::exit(2);
    }
  }();
  return from_env;
}

const RuntimeConfig& install_runtime_config(RuntimeConfig config) {
  // The previous config is leaked, not freed: a reader may still hold it.
  auto* fresh = new RuntimeConfig(std::move(config));
  g_config.store(fresh, std::memory_order_release);
  return *fresh;
}

std::string value_text(const RuntimeConfig& config, const Knob& knob) {
  return std::visit(
      [&](auto field) -> std::string {
        const auto& v = config.*field;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "1" : "0";
        } else {
          char buf[32];
          const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
          return std::string(buf, end);
        }
      },
      knob.field);
}

std::vector<std::pair<std::string, std::string>> to_flags(
    const RuntimeConfig& config) {
  const RuntimeConfig defaults = resolve_config(unset, unset);
  std::vector<std::pair<std::string, std::string>> flags;
  for (const Knob& knob : kKnobs) {
    std::string v = value_text(config, knob);
    if (v != value_text(defaults, knob)) {
      flags.emplace_back(std::string("--") + knob.flag, std::move(v));
    }
  }
  return flags;
}

}  // namespace ccg::obs
