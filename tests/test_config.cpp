// RuntimeConfig: every row of the knob table resolves with one precedence
// (flag > env > default) and one strict parser. The flag and environment
// lookups are plain maps handed to resolve_config(), so no test reads or
// writes the process environment.
#include "ccg/obs/config.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ccg::obs {
namespace {

using Values = std::map<std::string, std::string>;

Lookup lookup(Values values) {
  return [values = std::move(values)](
             const char* key) -> std::optional<std::string> {
    const auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second;
  };
}

RuntimeConfig resolve(const Values& flags, const Values& env) {
  return resolve_config(lookup(flags), lookup(env));
}

std::string text_of(double v, bool integer) {
  char buf[32];
  const auto [end, ec] =
      integer ? std::to_chars(buf, buf + sizeof(buf), static_cast<long>(v))
              : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

bool is_integer(const Knob& knob) {
  return std::holds_alternative<long RuntimeConfig::*>(knob.field);
}
bool is_number(const Knob& knob) {
  return is_integer(knob) ||
         std::holds_alternative<double RuntimeConfig::*>(knob.field);
}
bool is_bool(const Knob& knob) {
  return std::holds_alternative<bool RuntimeConfig::*>(knob.field);
}

/// Two distinct valid values, in the form value_text() prints. The first
/// is the knob's zero / off end: the lower bound, "0", "" (no path), or the
/// first choice.
std::pair<std::string, std::string> valid_values(const Knob& knob) {
  if (is_number(knob)) {
    return {text_of(knob.min, is_integer(knob)),
            text_of(knob.max, is_integer(knob))};
  }
  if (is_bool(knob)) return {"0", "1"};
  if (knob.choices == nullptr) return {"", "/var/tmp/ccg-knob"};
  const std::string choices = knob.choices;
  return {choices.substr(0, choices.find('|')),
          choices.substr(choices.rfind('|') + 1)};
}

/// Values the knob must reject; empty for a path, where any text is valid.
std::vector<std::string> malformed_values(const Knob& knob) {
  if (is_integer(knob)) {
    return {"12x", "1.5", text_of(knob.min - 1, true),
            text_of(knob.max + 1, true)};
  }
  if (is_number(knob)) return {"1.5x", "nan", text_of(knob.max * 10, false)};
  if (is_bool(knob)) return {"maybe", "2"};
  if (knob.choices != nullptr) return {"bogus"};
  return {};
}

std::string flag_of(const Knob& knob) { return std::string("--") + knob.flag; }

class KnobTest : public testing::TestWithParam<std::size_t> {
 protected:
  const Knob& knob() const { return knobs()[GetParam()]; }
  std::string value(const RuntimeConfig& c) const {
    return value_text(c, knob());
  }
  Source source(const RuntimeConfig& c) const { return c.sources[GetParam()]; }
};

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, KnobTest, testing::Range<std::size_t>(0, kKnobCount),
    [](const testing::TestParamInfo<std::size_t>& info) {
      return std::string(knobs()[info.param].name);
    });

TEST_P(KnobTest, DefaultApplies) {
  const RuntimeConfig c = resolve({}, {});
  EXPECT_EQ(value(c), knob().def);
  EXPECT_EQ(source(c), Source::kDefault);
}

TEST_P(KnobTest, EnvOverridesDefault) {
  const auto [low, high] = valid_values(knob());
  for (const std::string& v : {low, high}) {
    if (v.empty()) continue;  // an empty env var counts as unset
    const RuntimeConfig c = resolve({}, {{knob().env, v}});
    EXPECT_EQ(value(c), v);
    EXPECT_EQ(source(c), Source::kEnv);
  }
  const RuntimeConfig unset = resolve({}, {{knob().env, ""}});
  EXPECT_EQ(value(unset), knob().def);
  EXPECT_EQ(source(unset), Source::kDefault);
}

TEST_P(KnobTest, FlagOverridesEnvEvenWhenZeroOrOff) {
  const auto [low, high] = valid_values(knob());
  const RuntimeConfig off = resolve({{knob().flag, low}}, {{knob().env, high}});
  EXPECT_EQ(value(off), low);
  EXPECT_EQ(source(off), Source::kFlag);
  const RuntimeConfig on = resolve({{knob().flag, high}}, {{knob().env, low}});
  EXPECT_EQ(value(on), high);
  EXPECT_EQ(source(on), Source::kFlag);
}

TEST_P(KnobTest, MalformedEnvNamesTheVariable) {
  const auto bad = malformed_values(knob());
  if (bad.empty()) {  // a path takes any text as given
    EXPECT_EQ(value(resolve({}, {{knob().env, "12x"}})), "12x");
    return;
  }
  for (const std::string& v : bad) {
    try {
      resolve({}, {{knob().env, v}});
      ADD_FAILURE() << knob().env << "=" << v << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("$") + knob().env),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_P(KnobTest, MalformedFlagNamesTheFlag) {
  const auto bad = malformed_values(knob());
  if (bad.empty()) {  // a path takes any text as given
    EXPECT_EQ(value(resolve({{knob().flag, "12x"}}, {})), "12x");
    return;
  }
  const std::string valid_env = valid_values(knob()).second;
  for (const std::string& v : bad) {
    try {
      // A valid env value does not rescue a malformed flag.
      resolve({{knob().flag, v}}, {{knob().env, valid_env}});
      ADD_FAILURE() << flag_of(knob()) << " " << v << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag_of(knob())), std::string::npos)
          << e.what();
    }
  }
}

TEST_P(KnobTest, ToFlagsRoundTrips) {
  const auto [low, high] = valid_values(knob());
  for (const std::string& v : {low, high}) {
    const RuntimeConfig c = resolve({}, {{knob().env, v}});
    Values flags;
    for (const auto& [flag, text] : to_flags(c)) {
      ASSERT_EQ(flag.rfind("--", 0), 0u) << flag;
      flags[flag.substr(2)] = text;
    }
    const RuntimeConfig back = resolve(flags, {});
    for (const Knob& k : knobs()) {
      EXPECT_EQ(value_text(back, k), value_text(c, k)) << k.name;
    }
  }
}

TEST(RuntimeConfig, EveryKnobHasItsOwnFlagAndEnvVar) {
  std::set<std::string> names, flags, envs;
  for (const Knob& k : knobs()) {
    EXPECT_EQ(std::string(k.env).rfind("CCG_", 0), 0u) << k.env;
    names.insert(k.name);
    flags.insert(k.flag);
    envs.insert(k.env);
  }
  EXPECT_EQ(names.size(), kKnobCount);
  EXPECT_EQ(flags.size(), kKnobCount);
  EXPECT_EQ(envs.size(), kKnobCount);
}

TEST(RuntimeConfig, BareBooleanFlagSwitchesOn) {
  for (const Knob& k : knobs()) {
    if (!is_bool(k)) continue;
    const RuntimeConfig c = resolve({{k.flag, ""}}, {{k.env, "0"}});
    EXPECT_EQ(value_text(c, k), "1") << k.name;
  }
}

TEST(RuntimeConfig, DefaultsProduceNoFlags) {
  EXPECT_TRUE(to_flags(resolve({}, {})).empty());
}

TEST(RuntimeConfig, AggregatorTimeoutHasItsOwnDefault) {
  EXPECT_EQ(resolve({}, {}).net_timeout_ms, 30000);
  EXPECT_EQ(resolve({}, {}).aggregator_timeout_ms(), 300000);
  EXPECT_EQ(
      resolve({}, {{"CCG_NET_TIMEOUT_MS", "5000"}}).aggregator_timeout_ms(),
      5000);
  EXPECT_EQ(resolve({{"net-timeout-ms", "0"}}, {{"CCG_NET_TIMEOUT_MS", "5000"}})
                .aggregator_timeout_ms(),
            0);
}

TEST(RuntimeConfig, MalformedPortsAndDurationsAreRejected) {
  EXPECT_THROW(resolve({{"ops-port", "abc"}}, {}), ConfigError);
  EXPECT_THROW(resolve({}, {{"CCG_OPS_PORT", "8x"}}), ConfigError);
  EXPECT_THROW(resolve({}, {{"CCG_WATCHDOG_MS", "abc"}}), ConfigError);
  EXPECT_THROW(resolve({}, {{"CCG_SLO_INTERVAL_MS", "zz"}}), ConfigError);
  // A flag shadows the env var completely: its malformed twin is not read.
  EXPECT_EQ(resolve({{"threads", "4"}}, {{"CCG_THREADS", "4x"}}).threads, 4);
}

}  // namespace
}  // namespace ccg::obs
