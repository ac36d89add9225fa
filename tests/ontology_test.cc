#include "expr/ontology.h"

#include <gtest/gtest.h>
#include <cmath>

#include "core/acquire.h"
#include "core/processor.h"
#include "exec/planner.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace {

// Figure 7(b)'s taxonomy tree: Restaurants -> cuisines -> dishes.
OntologyTree FoodTree() {
  OntologyTree tree;
  EXPECT_TRUE(tree.AddNode("Restaurants", "").ok());
  EXPECT_TRUE(tree.AddNode("Mediterranean", "Restaurants").ok());
  EXPECT_TRUE(tree.AddNode("MiddleEastern", "Restaurants").ok());
  EXPECT_TRUE(tree.AddNode("Greek", "Mediterranean").ok());
  EXPECT_TRUE(tree.AddNode("Italian", "Mediterranean").ok());
  EXPECT_TRUE(tree.AddNode("Gyro", "Greek").ok());
  EXPECT_TRUE(tree.AddNode("Falafel", "MiddleEastern").ok());
  EXPECT_TRUE(tree.AddNode("Pasta", "Italian").ok());
  return tree;
}

TEST(OntologyTreeTest, DepthsAndHeight) {
  OntologyTree tree = FoodTree();
  EXPECT_EQ(tree.Depth("Restaurants").value(), 0);
  EXPECT_EQ(tree.Depth("Mediterranean").value(), 1);
  EXPECT_EQ(tree.Depth("Gyro").value(), 3);
  EXPECT_EQ(tree.height(), 3);
  EXPECT_EQ(tree.size(), 8u);
}

TEST(OntologyTreeTest, StructuralErrors) {
  OntologyTree tree;
  ASSERT_TRUE(tree.AddNode("root", "").ok());
  EXPECT_FALSE(tree.AddNode("other_root", "").ok());   // second root
  EXPECT_FALSE(tree.AddNode("child", "missing").ok()); // unknown parent
  ASSERT_TRUE(tree.AddNode("child", "root").ok());
  EXPECT_TRUE(tree.AddNode("child", "root").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_FALSE(tree.Depth("nope").ok());
}

TEST(OntologyTreeTest, AncestorClampsAtRoot) {
  OntologyTree tree = FoodTree();
  EXPECT_EQ(tree.Ancestor("Gyro", 0).value(), "Gyro");
  EXPECT_EQ(tree.Ancestor("Gyro", 1).value(), "Greek");
  EXPECT_EQ(tree.Ancestor("Gyro", 2).value(), "Mediterranean");
  EXPECT_EQ(tree.Ancestor("Gyro", 99).value(), "Restaurants");
}

TEST(OntologyTreeTest, IsAncestorOrSelf) {
  OntologyTree tree = FoodTree();
  EXPECT_TRUE(tree.IsAncestorOrSelf("Mediterranean", "Gyro").value());
  EXPECT_TRUE(tree.IsAncestorOrSelf("Gyro", "Gyro").value());
  EXPECT_FALSE(tree.IsAncestorOrSelf("Italian", "Gyro").value());
  EXPECT_FALSE(tree.IsAncestorOrSelf("Gyro", "Mediterranean").value());
}

TEST(OntologyTreeTest, RollupsToCoverSection73Example) {
  OntologyTree tree = FoodTree();
  // Gyro -> any Mediterranean cuisine: 2 roll-ups (Gyro -> Greek -> Med).
  EXPECT_EQ(tree.RollupsToCover({"Gyro"}, "Pasta").value(), 2);
  EXPECT_EQ(tree.RollupsToCover({"Gyro"}, "Gyro").value(), 0);
  EXPECT_EQ(tree.RollupsToCover({"Gyro"}, "Falafel").value(), 3);  // root
  // The nearest base node wins.
  EXPECT_EQ(tree.RollupsToCover({"Gyro", "Falafel"}, "Falafel").value(), 0);
  EXPECT_FALSE(tree.RollupsToCover({"Gyro"}, "Sushi").ok());
  EXPECT_FALSE(tree.RollupsToCover({}, "Gyro").ok());
}

TablePtr CuisineTable() {
  auto t = std::make_shared<Table>(
      "places", Schema({{"dish", DataType::kString, ""},
                        {"rating", DataType::kDouble, ""}}));
  const char* dishes[] = {"Gyro", "Gyro", "Pasta", "Falafel", "Pasta",
                          "Gyro", "Falafel", "Pasta"};
  double rating = 1.0;
  for (const char* d : dishes) {
    EXPECT_TRUE(t->AppendRow({Value(d), Value(rating)}).ok());
    rating += 1.0;
  }
  return t;
}

TEST(CategoricalDimTest, NeededPScoreScalesRollups) {
  OntologyTree tree = FoodTree();
  auto table = CuisineTable();
  CategoricalDim dim("dish", {"Gyro"}, &tree, /*pscore_per_rollup=*/10.0);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*table, 0), 0.0);   // Gyro
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*table, 2), 20.0);  // Pasta: 2 roll-ups
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*table, 3), 30.0);  // Falafel: to root
  EXPECT_DOUBLE_EQ(dim.MaxPScore(), 30.0);
}

TEST(CategoricalDimTest, DefaultPScorePerRollupFromHeight) {
  OntologyTree tree = FoodTree();
  CategoricalDim dim("dish", {"Gyro"}, &tree);
  // Height 3 -> 100/3 per roll-up.
  EXPECT_NEAR(dim.MaxPScore(), 100.0, 1e-9);
}

TEST(CategoricalDimTest, DescribeRollsUpTheInList) {
  OntologyTree tree = FoodTree();
  CategoricalDim dim("dish", {"Gyro"}, &tree, 10.0);
  EXPECT_EQ(dim.label(), "dish IN ('Gyro')");
  EXPECT_EQ(dim.DescribeAt(10.0), "dish IN ('Greek')");
  EXPECT_EQ(dim.DescribeAt(20.0), "dish IN ('Mediterranean')");
  EXPECT_EQ(dim.DescribeAt(15.0), "dish IN ('Greek')");  // floor semantics
}

TEST(CategoricalDimTest, UnknownValueIsUnreachable) {
  OntologyTree tree = FoodTree();
  auto table = std::make_shared<Table>(
      "places", Schema({{"dish", DataType::kString, ""}}));
  ASSERT_TRUE(table->AppendRow({Value("Sushi")}).ok());
  CategoricalDim dim("dish", {"Gyro"}, &tree, 10.0);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*table, 0)));
}

TEST(CategoricalDimTest, BindValidation) {
  OntologyTree tree = FoodTree();
  auto table = CuisineTable();
  CategoricalDim bad_col("rating", {"Gyro"}, &tree);
  EXPECT_TRUE(bad_col.Bind(table->schema()).IsTypeError());
  CategoricalDim bad_cat("dish", {"Sushi"}, &tree);
  EXPECT_EQ(bad_cat.Bind(table->schema()).code(), StatusCode::kNotFound);
  CategoricalDim empty("dish", {}, &tree);
  EXPECT_FALSE(empty.Bind(table->schema()).ok());
}

TEST(CategoricalAcquireTest, EndToEndRollupRefinement) {
  // Ask for more places than serve Gyro: ACQUIRE must roll the category up.
  OntologyTree tree = FoodTree();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(CuisineTable()).ok());

  QuerySpec spec;
  spec.tables = {"places"};
  spec.categorical_predicates.push_back(
      CategoricalPredicateSpec{"dish", {"Gyro"}, &tree, 1.0, 10.0});
  spec.agg_kind = AggregateKind::kCount;
  spec.constraint_op = ConstraintOp::kGe;
  spec.target = 6.0;  // Gyro(3) + Pasta(3) after 2 roll-ups
  auto task = PlanAcqTask(catalog, spec);
  ASSERT_TRUE(task.ok()) << task.status().ToString();

  AcquireOptions options;
  options.gamma = 10.0;  // step 10 = one roll-up per layer
  options.delta = 0.0;
  CellSortedEvaluationLayer layer(&*task, GridStepFor(*task, options));
  auto result = RunAcquire(*task, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  EXPECT_GE(result->queries[0].aggregate, 6.0);
  EXPECT_NE(result->queries[0].description.find("Mediterranean"),
            std::string::npos);
}

}  // namespace
}  // namespace acquire
