// Result-cache keys and dependencies: lexical query canonicalization
// and the predicates a query can read.

#include "core/plan_signature.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "rel/catalog.h"

namespace chainsplit {
namespace {

TEST(CanonicalizeQueryTextTest, NormalizesWhitespaceCommentsAndNames) {
  auto a = CanonicalizeQueryText("?- tc(a0, Y).");
  auto b = CanonicalizeQueryText("  ?-  tc( a0 ,\n  Z ). % trailing comment");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->vars, (std::vector<std::string>{"Y"}));
  EXPECT_EQ(b->vars, (std::vector<std::string>{"Z"}));
}

TEST(CanonicalizeQueryTextTest, VariableIdentityMatters) {
  auto xy = CanonicalizeQueryText("?- p(X, Y).");
  auto xx = CanonicalizeQueryText("?- p(X, X).");
  ASSERT_TRUE(xy.has_value());
  ASSERT_TRUE(xx.has_value());
  EXPECT_NE(xy->key, xx->key);
  // Repeated variables dedup in the reported name list.
  EXPECT_EQ(xx->vars, (std::vector<std::string>{"X"}));
}

TEST(CanonicalizeQueryTextTest, AnonymousVariablesStayDistinct) {
  auto anon = CanonicalizeQueryText("?- p(_, _).");
  auto shared = CanonicalizeQueryText("?- p(X, X).");
  ASSERT_TRUE(anon.has_value());
  ASSERT_TRUE(shared.has_value());
  // The parser makes each bare `_` fresh, so p(_,_) must not share a
  // key with p(X,X)...
  EXPECT_NE(anon->key, shared->key);
  // ...but it does share one with p(A,B).
  auto ab = CanonicalizeQueryText("?- p(A, B).");
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(anon->key, ab->key);
  EXPECT_EQ(anon->vars.size(), 2u);
}

TEST(CanonicalizeQueryTextTest, RejectsNonQueryShapes) {
  EXPECT_FALSE(CanonicalizeQueryText("p(a, b).").has_value());
  EXPECT_FALSE(CanonicalizeQueryText("?- p(a, b)").has_value());  // no dot
  EXPECT_FALSE(CanonicalizeQueryText("?- p(a). ?- q(b).").has_value());
  EXPECT_FALSE(CanonicalizeQueryText("?- p(a). garbage").has_value());
  EXPECT_FALSE(CanonicalizeQueryText("").has_value());
  EXPECT_FALSE(CanonicalizeQueryText("% only a comment").has_value());
}

TEST(CanonicalizeQueryTextTest, ConstantsKeptVerbatim) {
  auto a = CanonicalizeQueryText("?- tc(a1, Y).");
  auto b = CanonicalizeQueryText("?- tc(a2, Y).");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->key, b->key);  // result keys distinguish constants
}

class ReachablePredsTest : public ::testing::Test {
 protected:
  // By value: the program's query vector reallocates across parses.
  Query Parse(const std::string& text) {
    Status status = ParseProgram(text, &db_.program());
    CS_CHECK(status.ok()) << status;
    return db_.program().queries().back();
  }
  Database db_;
};

TEST_F(ReachablePredsTest, FollowsRules) {
  Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "unrelated(X) :- other(X).\n"
      "?- tc(a, Y).");
  const Query& query = db_.program().queries().back();
  std::vector<PredId> deps = ReachablePreds(db_.program(), query);
  auto has = [&](const char* name, int arity) {
    auto pred = db_.program().preds().Find(name, arity);
    return pred.has_value() &&
           std::find(deps.begin(), deps.end(), *pred) != deps.end();
  };
  EXPECT_TRUE(has("tc", 2));
  EXPECT_TRUE(has("edge", 2));
  EXPECT_FALSE(has("unrelated", 1));
  EXPECT_FALSE(has("other", 1));
}

}  // namespace
}  // namespace chainsplit
