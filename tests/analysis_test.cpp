#include <gtest/gtest.h>

#include <set>

#include "analysis/evaluation_space.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::analysis {
namespace {

EvalPoint point(std::string id, double area, double delay,
                std::map<std::string, std::string> attrs = {}) {
  EvalPoint p;
  p.id = std::move(id);
  p.metrics["area"] = area;
  p.metrics["delay"] = delay;
  p.attributes = std::move(attrs);
  return p;
}

const std::vector<std::string> kMetrics{"area", "delay"};

TEST(EvalPoint, MissingMetricThrows) {
  const EvalPoint p = point("x", 1, 2);
  EXPECT_THROW(p.metric("power"), PreconditionError);
  EXPECT_DOUBLE_EQ(p.metric("area"), 1.0);
}

TEST(Dominance, StrictAndEqualCases) {
  const EvalPoint a = point("a", 1, 1);
  const EvalPoint b = point("b", 2, 2);
  const EvalPoint c = point("c", 1, 3);
  EXPECT_TRUE(dominates(a, b, kMetrics));
  EXPECT_FALSE(dominates(b, a, kMetrics));
  EXPECT_FALSE(dominates(a, a, kMetrics));       // equal: not strictly better
  EXPECT_FALSE(dominates(b, c, kMetrics));       // trade-off: incomparable
  EXPECT_FALSE(dominates(c, b, kMetrics));
}

TEST(Pareto, FrontExcludesDominated) {
  const std::vector<EvalPoint> points{point("p0", 1, 5), point("p1", 2, 3), point("p2", 4, 1),
                                      point("p3", 3, 4), point("p4", 5, 5)};
  const auto front = pareto_front(points, kMetrics);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Pareto, AllIncomparableAllOnFront) {
  const std::vector<EvalPoint> points{point("a", 1, 3), point("b", 2, 2), point("c", 3, 1)};
  EXPECT_EQ(pareto_front(points, kMetrics).size(), 3u);
}

TEST(Cluster, TwoObviousGroups) {
  const std::vector<EvalPoint> points{point("a1", 1, 1), point("a2", 1.1, 1.2),
                                      point("b1", 10, 10), point("b2", 10.2, 9.8)};
  const Clustering c = cluster_k(points, kMetrics, 2);
  EXPECT_EQ(c.cluster_count, 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[2], c.assignment[3]);
  EXPECT_NE(c.assignment[0], c.assignment[2]);
}

TEST(Cluster, KEqualsNIsSingletons) {
  const std::vector<EvalPoint> points{point("a", 1, 1), point("b", 2, 2), point("c", 3, 3)};
  const Clustering c = cluster_k(points, kMetrics, 3);
  EXPECT_EQ(c.cluster_count, 3);
  std::set<int> ids(c.assignment.begin(), c.assignment.end());
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Cluster, BadKThrows) {
  const std::vector<EvalPoint> points{point("a", 1, 1)};
  EXPECT_THROW(cluster_k(points, kMetrics, 0), PreconditionError);
  EXPECT_THROW(cluster_k(points, kMetrics, 2), PreconditionError);
}

TEST(Silhouette, WellSeparatedNearOne) {
  const std::vector<EvalPoint> points{point("a1", 0, 0), point("a2", 0.1, 0.1),
                                      point("b1", 10, 10), point("b2", 10.1, 10.1)};
  const Clustering c = cluster_k(points, kMetrics, 2);
  EXPECT_GT(silhouette(points, kMetrics, c), 0.9);
}

TEST(Silhouette, BadSplitScoresLow) {
  const std::vector<EvalPoint> points{point("a1", 0, 0), point("a2", 0.1, 0.1),
                                      point("b1", 10, 10), point("b2", 10.1, 10.1)};
  Clustering mixed;
  mixed.assignment = {0, 1, 0, 1};  // deliberately wrong
  mixed.cluster_count = 2;
  EXPECT_LT(silhouette(points, kMetrics, mixed), 0.0);
}

TEST(ClusterAuto, PicksTheNaturalK) {
  std::vector<EvalPoint> points;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      points.push_back(point(cat("p", g * 4 + i), g * 100 + i, g * 100 + 2 * i));
    }
  }
  const Clustering c = cluster_auto(points, kMetrics, 6);
  EXPECT_EQ(c.cluster_count, 3);
}

TEST(RankIssues, PerfectlyAlignedAttributeScoresOne) {
  std::vector<EvalPoint> points{
      point("a1", 0, 0, {{"tech", "new"}, {"noise", "x"}}),
      point("a2", 1, 1, {{"tech", "new"}, {"noise", "y"}}),
      point("b1", 100, 100, {{"tech", "old"}, {"noise", "x"}}),
      point("b2", 101, 99, {{"tech", "old"}, {"noise", "y"}}),
  };
  const Clustering c = cluster_k(points, kMetrics, 2);
  const auto scores = rank_issues(points, c);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].issue, "tech");
  EXPECT_NEAR(scores[0].info_gain, 1.0, 1e-9);
  EXPECT_NEAR(scores[1].info_gain, 0.0, 1e-9);
}

TEST(RankIssues, MissingAttributeTreatedAsOwnOption) {
  std::vector<EvalPoint> points{point("a", 0, 0, {{"k", "v"}}), point("b", 100, 100, {})};
  const Clustering c = cluster_k(points, kMetrics, 2);
  const auto scores = rank_issues(points, c);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_NEAR(scores[0].info_gain, 1.0, 1e-9);  // "<unset>" splits perfectly
}

TEST(SuggestHierarchy, ReturnsGroupsForTopIssue) {
  std::vector<EvalPoint> points{
      point("a1", 0, 0, {{"arch", "par"}}),   point("a2", 2, 1, {{"arch", "par"}}),
      point("b1", 100, 90, {{"arch", "ser"}}), point("b2", 98, 92, {{"arch", "ser"}}),
  };
  const auto suggestions = suggest_hierarchy(points, kMetrics, 3);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(suggestions[0].issue, "arch");
  EXPECT_EQ(suggestions[0].groups.at("par").size(), 2u);
  EXPECT_EQ(suggestions[0].groups.at("ser").size(), 2u);
}

TEST(SuggestHierarchy, NoAttributesNoSuggestions) {
  std::vector<EvalPoint> points{point("a", 0, 0), point("b", 100, 100)};
  EXPECT_TRUE(suggest_hierarchy(points, kMetrics, 2).empty());
}

TEST(Cluster, ConstantMetricHandled) {
  // Degenerate span (all equal) must not divide by zero.
  std::vector<EvalPoint> points{point("a", 5, 1), point("b", 5, 2), point("c", 5, 30)};
  const Clustering c = cluster_k(points, kMetrics, 2);
  EXPECT_EQ(c.cluster_count, 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);  // split on the only varying metric
}

}  // namespace
}  // namespace dslayer::analysis
