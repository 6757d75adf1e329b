#include "ccg/segmentation/feature_roles.hpp"

#include <gtest/gtest.h>

#include "ccg/common/expect.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/segmentation/cluster_metrics.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

struct SimulatedGraph {
  Cluster cluster{presets::tiny(), 7};
  CommGraph graph;

  SimulatedGraph() {
    TelemetryHub hub(ProviderProfile::azure(), 7);
    SimulationDriver driver(cluster, hub);
    const auto ips = cluster.monitored_ips();
    GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60},
                         {ips.begin(), ips.end()});
    hub.set_sink(&builder);
    driver.run(TimeWindow::hour(0));
    builder.flush();
    graph = builder.take_graphs().at(0);
  }
};

TEST(FeatureRoles, MatrixShapeAndRanges) {
  SimulatedGraph sim;
  const Matrix base = node_feature_matrix(sim.graph, /*recursive=*/false);
  EXPECT_EQ(base.rows(), sim.graph.node_count());
  EXPECT_EQ(base.cols(), node_feature_names().size());
  const Matrix recursive = node_feature_matrix(sim.graph, /*recursive=*/true);
  EXPECT_EQ(recursive.cols(), 2 * base.cols());

  for (std::size_t r = 0; r < base.rows(); ++r) {
    // Shares are in [0, 1]; logs are non-negative.
    EXPECT_GE(base(r, 3), 0.0);
    EXPECT_LE(base(r, 3) + base(r, 4), 1.0 + 1e-12);
    EXPECT_GE(base(r, 0), 0.0);
    EXPECT_GE(base(r, 6), 0.0);
    EXPECT_LE(base(r, 6), 1.0 + 1e-12);
  }
}

TEST(FeatureRoles, ClientsAreInitiatorsServersAreResponders) {
  SimulatedGraph sim;
  const Matrix base = node_feature_matrix(sim.graph, false);
  for (NodeId i = 0; i < sim.graph.node_count(); ++i) {
    const auto role = sim.cluster.role_of(sim.graph.key(i).ip);
    if (!role) continue;
    if (*role == "client") {
      EXPECT_GT(base(i, 3), 0.9) << "client initiates";
    }
    if (*role == "db") {
      EXPECT_GT(base(i, 4), 0.9) << "db only responds";
    }
  }
}

TEST(FeatureRoles, RecoversTinyClusterRolesWithOracleK) {
  SimulatedGraph sim;
  const auto truth = ground_truth_labels(sim.graph, sim.cluster.ground_truth_roles());
  const Segmentation seg = feature_role_segmentation(sim.graph, 4);
  const auto agreement = compare_labelings(seg.labels, truth.labels, truth.mask);
  EXPECT_GT(agreement.ari, 0.8) << agreement.to_string();
}

TEST(FeatureRoles, ValidatesK) {
  SimulatedGraph sim;
  EXPECT_THROW(feature_role_segmentation(sim.graph, 0), ContractViolation);
  EXPECT_THROW(feature_role_segmentation(sim.graph, sim.graph.node_count() + 1),
               ContractViolation);
  EXPECT_THROW(feature_role_segmentation(CommGraph{}, 1), ContractViolation);
}

TEST(FeatureRoles, SegmentCountMatchesRequestedK) {
  SimulatedGraph sim;
  const Segmentation seg = feature_role_segmentation(sim.graph, 3);
  EXPECT_EQ(seg.segment_count, 3u);
  for (const auto label : seg.labels) EXPECT_LT(label, 3u);
}

}  // namespace
}  // namespace ccg
