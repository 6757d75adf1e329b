#include "ccg/segmentation/auto_segment.hpp"

#include <cmath>

#include "ccg/common/expect.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/segmentation/simrank.hpp"

namespace ccg {

std::string to_string(SegmentationMethod method) {
  switch (method) {
    case SegmentationMethod::kJaccardLouvain: return "jaccard+louvain";
    case SegmentationMethod::kWeightedJaccardLouvain: return "weighted-jaccard+louvain";
    case SegmentationMethod::kSimRank: return "simrank";
    case SegmentationMethod::kSimRankPlusPlus: return "simrank++";
    case SegmentationMethod::kConnectivityModularity: return "conn-weighted-modularity";
    case SegmentationMethod::kByteModularity: return "byte-weighted-modularity";
  }
  return "unknown";
}

std::vector<NodeId> Segmentation::members_of(std::uint32_t segment) const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < labels.size(); ++i) {
    if (labels[i] == segment) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Segmentation::segment_sizes() const {
  std::vector<std::size_t> sizes(segment_count, 0);
  for (const auto label : labels) {
    CCG_ENSURE(label < segment_count);
    ++sizes[label];
  }
  return sizes;
}

namespace {

/// The communication graph itself as a Louvain input, with the chosen edge
/// weight. log-compressed bytes keep one elephant edge from dominating the
/// objective.
WeightedGraph volume_weighted(const CommGraph& graph, bool bytes) {
  WeightedGraph wg(graph.node_count());
  for (const Edge& e : graph.edges()) {
    const double w =
        bytes ? std::log1p(static_cast<double>(e.stats.bytes()))
              : static_cast<double>(e.stats.connection_minutes);
    if (w > 0.0) wg.add_edge(e.a, e.b, w);
  }
  return wg;
}

}  // namespace

Segmentation auto_segment(const CommGraph& graph, const CsrAdjacency& csr,
                          SegmentationMethod method,
                          SegmentationOptions options) {
  obs::Stage stage(obs::stage::kSegmentTotal);
  obs::Registry::global().counter("ccg.segment.runs").add();

  // Phase 1: build the clustering objective (similarity clique or the
  // volume-weighted graph itself). Dominates runtime for similarity methods.
  WeightedGraph objective(0);
  {
    obs::Stage stage(obs::stage::kSegmentObjective);
    switch (method) {
      case SegmentationMethod::kJaccardLouvain:
        objective = similarity_clique(
            graph, csr,
            {.kind = SimilarityKind::kJaccard, .min_score = options.min_similarity});
        break;
      case SegmentationMethod::kWeightedJaccardLouvain:
        objective = similarity_clique(graph, csr,
                                      {.kind = SimilarityKind::kWeightedJaccard,
                                       .min_score = options.min_similarity});
        break;
      case SegmentationMethod::kSimRank:
        objective = simrank_clique(
            graph, csr, {.min_score = options.min_similarity, .plus_plus = false});
        break;
      case SegmentationMethod::kSimRankPlusPlus:
        objective = simrank_clique(
            graph, csr, {.min_score = options.min_similarity, .plus_plus = true});
        break;
      case SegmentationMethod::kConnectivityModularity:
        objective = volume_weighted(graph, /*bytes=*/false);
        break;
      case SegmentationMethod::kByteModularity:
        objective = volume_weighted(graph, /*bytes=*/true);
        break;
    }
  }

  // Phase 2: Louvain community detection over the objective.
  LouvainResult lr;
  {
    obs::Stage stage(obs::stage::kSegmentLouvain);
    lr = louvain_cluster(
        objective,
        {.resolution = options.louvain_resolution, .seed = options.seed});
  }

  Segmentation out;
  out.method = method;
  out.labels = lr.labels;
  out.segment_count = lr.community_count;
  out.objective_modularity = lr.modularity;
  return out;
}

Segmentation auto_segment(const CommGraph& graph, SegmentationMethod method,
                          SegmentationOptions options) {
  const CsrAdjacency csr(graph);
  return auto_segment(graph, csr, method, options);
}

std::vector<Segmentation> segment_all_methods(const CommGraph& graph,
                                              SegmentationOptions options) {
  // One CSR flattening serves every method in the sweep, and the arena is
  // kept across calls (grow-only), so per-window sweeps stop paying the
  // allocator for a structure whose size barely moves window to window.
  static thread_local CsrAdjacency csr;
  csr.rebuild(graph);
  std::vector<Segmentation> out;
  for (const auto method :
       {SegmentationMethod::kJaccardLouvain,
        SegmentationMethod::kWeightedJaccardLouvain, SegmentationMethod::kSimRank,
        SegmentationMethod::kSimRankPlusPlus,
        SegmentationMethod::kConnectivityModularity,
        SegmentationMethod::kByteModularity}) {
    out.push_back(auto_segment(graph, csr, method, options));
  }
  return out;
}

}  // namespace ccg
