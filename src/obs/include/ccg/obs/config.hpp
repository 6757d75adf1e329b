// RuntimeConfig: every CCG_* knob, resolved once per process.
//
// knobs() is the one table of knobs: flag, environment variable, type,
// bounds and default. resolve_config() gives every knob the same
// precedence — flag, then environment, then default — and the same strict
// parser: a value must be one whole, in-range token, or ConfigError names
// the knob and where the value came from (`--ops-port`, `$CCG_OPS_PORT`).
// The CLI resolves and installs the config in main(); binaries without
// flags resolve it from the environment on first use. Library code reads
// the cached fields.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ccg::obs {

/// A malformed or out-of-range value; the CLI exits 2 on it.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// All of `text` as a T (long or double, finite) in [min, max]; otherwise
/// throws ConfigError naming `where` (a flag or variable).
template <typename T>
T parse_value(std::string_view text, const std::string& where,
              double min = -kUnbounded, double max = kUnbounded);

enum class Source : unsigned char { kDefault, kEnv, kFlag };
inline const char* source_name(Source source) {
  constexpr const char* kNames[] = {"default", "env", "flag"};
  return kNames[static_cast<int>(source)];
}

inline constexpr std::size_t kKnobCount = 18;

/// Effective knob values; meanings and defaults are in the knob table.
struct RuntimeConfig {
  long threads = 0;  // 0 = all hardware threads
  std::string simd;
  bool incremental = false;
  std::string log_level;
  long log_ring = 0;
  double log_stderr_rps = 0.0;
  long trace_ring = 0;
  bool prof_no_perf = false;
  long net_retries = 0;
  long net_timeout_ms = 0;  // 0 = wait forever
  long ops_port = -1;       // -1 = off, 0 = ephemeral
  std::string flight_dir;   // "" = off
  long watchdog_ms = 0;     // 0 = off
  bool slo_watch = false;
  long slo_interval_ms = 0;
  long slo_window_lag_ms = 0;
  long slo_burn = 0;
  std::string trace_out;  // "" = off
  std::array<Source, kKnobCount> sources{};  // parallel to knobs()

  /// An aggregator's receive timeout: net_timeout_ms when it was set, else
  /// the table's aggregator default.
  int aggregator_timeout_ms() const;
};

struct Knob {
  const char* name;  // RuntimeConfig field, --version and flight-record key
  const char* flag;  // without the leading --
  const char* env;
  std::variant<long RuntimeConfig::*, double RuntimeConfig::*,
               bool RuntimeConfig::*, std::string RuntimeConfig::*>
      field;
  double min = 0, max = 0;  // bounds of a given value; a default may sit
                            // outside them to mean off or auto
  const char* choices = nullptr;  // "a|b|c" for enumerated text
  const char* def = "";
  long aggregator_def = 0;  // net_timeout_ms's second default
};

std::span<const Knob> knobs();

/// Raw text for a key, or nullopt when it is not set.
using Lookup = std::function<std::optional<std::string>(const char* key)>;
std::optional<std::string> process_env(const char* name);

/// `flags` (keyed by Knob::flag) beat `env` (keyed by Knob::env; an empty
/// value counts as unset) beat the default. Throws ConfigError.
RuntimeConfig resolve_config(const Lookup& flags, const Lookup& env);

/// The installed config, or on first use one resolved from the environment
/// (a malformed value then prints the error and exits 2).
const RuntimeConfig& runtime_config();

/// Call before anything reads a knob: components cache what they read (the
/// log threshold, ring sizes, the SIMD backend).
const RuntimeConfig& install_runtime_config(RuntimeConfig config);

/// The knob's value in the form its flag accepts.
std::string value_text(const RuntimeConfig& config, const Knob& knob);

/// `--flag value` pairs for every knob that differs from its default;
/// resolving them reproduces `config`'s values.
std::vector<std::pair<std::string, std::string>> to_flags(
    const RuntimeConfig& config);

}  // namespace ccg::obs
