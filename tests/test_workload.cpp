#include "ccg/workload/cluster.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "ccg/common/expect.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

TEST(ClusterSpec, AllPresetsValidate) {
  for (const auto& spec : presets::paper_clusters()) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
  }
  EXPECT_NO_THROW(presets::tiny().validate());
}

TEST(ClusterSpec, Table1MonitoredCountsMatchPaper) {
  EXPECT_EQ(presets::portal().total_instances(false), 4u);
  EXPECT_EQ(presets::microservice_bench().total_instances(false), 16u);
  // Paper: 390 and 1400 — allow small calibration slack.
  const auto k8s = presets::k8s_paas().total_instances(false);
  EXPECT_NEAR(static_cast<double>(k8s), 390.0, 30.0);
  EXPECT_EQ(presets::kquery().total_instances(false), 1400u);
}

TEST(ClusterSpec, ValidationCatchesBadSpecs) {
  auto spec = presets::tiny();
  spec.patterns[0].server_port = 9999;  // web does not listen there
  EXPECT_THROW(spec.validate(), ContractViolation);

  spec = presets::tiny();
  spec.patterns[0].client_role = "nonexistent";
  EXPECT_THROW(spec.validate(), ContractViolation);

  spec = presets::tiny();
  spec.roles.push_back(spec.roles[0]);  // duplicate role name
  EXPECT_THROW(spec.validate(), ContractViolation);

  spec = presets::tiny();
  spec.roles[0].instance_count = 0;
  EXPECT_THROW(spec.validate(), ContractViolation);

  spec = presets::tiny();
  spec.patterns[0].fanout_fraction = 0.0;
  EXPECT_THROW(spec.validate(), ContractViolation);
}

TEST(Cluster, DeterministicForSameSeed) {
  Cluster a(presets::tiny(), 42);
  Cluster b(presets::tiny(), 42);
  std::vector<FlowActivity> fa, fb;
  for (int minute = 0; minute < 5; ++minute) {
    a.generate_minute(MinuteBucket(minute), fa);
    b.generate_minute(MinuteBucket(minute), fb);
  }
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].flow, fb[i].flow);
    EXPECT_EQ(fa[i].counters, fb[i].counters);
  }
}

TEST(Cluster, DifferentSeedsDiffer) {
  Cluster a(presets::tiny(), 1);
  Cluster b(presets::tiny(), 2);
  std::vector<FlowActivity> fa, fb;
  a.generate_minute(MinuteBucket(0), fa);
  b.generate_minute(MinuteBucket(0), fb);
  bool differs = fa.size() != fb.size();
  for (std::size_t i = 0; !differs && i < fa.size(); ++i) {
    differs = !(fa[i].flow == fb[i].flow);
  }
  EXPECT_TRUE(differs);
}

TEST(Cluster, GroundTruthRolesCoverAllInstances) {
  Cluster cluster(presets::tiny(), 7);
  const auto roles = cluster.ground_truth_roles();
  EXPECT_EQ(roles.size(), presets::tiny().total_instances(true));
  EXPECT_EQ(cluster.monitored_count(), 6u);  // 2 web + 3 api + 1 db
  EXPECT_EQ(cluster.ips_of_role("web").size(), 2u);
  EXPECT_EQ(cluster.ips_of_role("api").size(), 3u);
  EXPECT_EQ(cluster.ips_of_role("nope").size(), 0u);

  for (const IpAddr ip : cluster.ips_of_role("web")) {
    EXPECT_EQ(cluster.role_of(ip), "web");
  }
  EXPECT_FALSE(cluster.role_of(IpAddr(0x01020304)).has_value());
}

TEST(Cluster, FlowsRespectTopology) {
  Cluster cluster(presets::tiny(), 11);
  std::vector<FlowActivity> flows;
  for (int minute = 0; minute < 10; ++minute) {
    cluster.generate_minute(MinuteBucket(minute), flows);
  }
  ASSERT_FALSE(flows.empty());
  for (const auto& f : flows) {
    const auto client_role = cluster.role_of(f.flow.local_ip);
    const auto server_role = cluster.role_of(f.flow.remote_ip);
    ASSERT_TRUE(client_role.has_value());
    ASSERT_TRUE(server_role.has_value());
    // Only the spec's pattern pairs may communicate.
    const bool legal = (*client_role == "client" && *server_role == "web") ||
                       (*client_role == "web" && *server_role == "api") ||
                       (*client_role == "api" && *server_role == "db");
    EXPECT_TRUE(legal) << *client_role << " -> " << *server_role;
    EXPECT_FALSE(f.malicious);
    EXPECT_GE(f.flow.local_port, 32768);  // clients use ephemeral ports
    EXPECT_GT(f.counters.bytes_sent, 0u);
  }
}

TEST(Cluster, ServerPortsMatchPattern) {
  Cluster cluster(presets::tiny(), 13);
  std::vector<FlowActivity> flows;
  cluster.generate_minute(MinuteBucket(0), flows);
  for (const auto& f : flows) {
    const auto server_role = cluster.role_of(f.flow.remote_ip);
    if (server_role == "web") {
      EXPECT_EQ(f.flow.remote_port, 80);
    }
    if (server_role == "api") {
      EXPECT_EQ(f.flow.remote_port, 8080);
    }
    if (server_role == "db") {
      EXPECT_EQ(f.flow.remote_port, 5432);
    }
  }
}

TEST(Cluster, ChurnReplacesInstancesAndKeepsRoleCounts) {
  auto spec = presets::tiny();
  spec.roles[1].churn_per_hour = 1.0;  // api churns aggressively
  Cluster cluster(spec, 17);
  const auto before = cluster.ips_of_role("api");

  std::size_t churned = 0;
  for (int minute = 0; minute < 600; ++minute) {
    churned += cluster.apply_churn(MinuteBucket(minute)).size();
  }
  EXPECT_GT(churned, 0u);
  const auto after = cluster.ips_of_role("api");
  EXPECT_EQ(after.size(), before.size());  // replacement, not shrinkage
  std::unordered_set<IpAddr> before_set(before.begin(), before.end());
  bool any_new = false;
  for (const IpAddr ip : after) any_new |= !before_set.contains(ip);
  EXPECT_TRUE(any_new);
  // Old IPs no longer resolve.
  for (const IpAddr ip : before) {
    if (std::find(after.begin(), after.end(), ip) == after.end()) {
      EXPECT_FALSE(cluster.role_of(ip).has_value());
    }
  }
}

TEST(Cluster, ExternalIpsComeFromExternalSpace) {
  Cluster cluster(presets::tiny(), 19);
  const auto& spec = cluster.spec();
  for (const IpAddr ip : cluster.ips_of_role("client")) {
    EXPECT_TRUE(spec.external_space.contains(ip));
    EXPECT_FALSE(spec.internal_space.contains(ip));
  }
  const IpAddr extra = cluster.allocate_external_ip();
  EXPECT_TRUE(spec.external_space.contains(extra));
}

TEST(Cluster, RateScaleScalesVolume) {
  Cluster low(presets::tiny(0.2), 23);
  Cluster high(presets::tiny(2.0), 23);
  std::vector<FlowActivity> fl, fh;
  for (int minute = 0; minute < 20; ++minute) {
    low.generate_minute(MinuteBucket(minute), fl);
    high.generate_minute(MinuteBucket(minute), fh);
  }
  EXPECT_GT(fh.size(), fl.size() * 5);
}

TEST(Cluster, PaperPresetsGenerateTraffic) {
  // Smoke test at tiny rate scale so it stays fast.
  for (const auto& spec : presets::paper_clusters(0.02)) {
    Cluster cluster(spec, 3);
    std::vector<FlowActivity> flows;
    cluster.generate_minute(MinuteBucket(0), flows);
    EXPECT_FALSE(flows.empty()) << spec.name;
  }
}

}  // namespace
}  // namespace ccg
