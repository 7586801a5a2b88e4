#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/status.h"
#include "common/strings.h"

namespace chainsplit {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFinitelyEvaluableError("cons is unbound");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFinitelyEvaluable);
  EXPECT_EQ(status.ToString(), "NotFinitelyEvaluable: cons is unbound");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status(), Status::Ok());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  CS_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  StatusOr<int> bad = Half(3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseHalf(7, &out).ok());
}

TEST(StatusOrTest, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(5));
  ASSERT_TRUE(holder.ok());
  std::unique_ptr<int> v = std::move(holder).value();
  EXPECT_EQ(*v, 5);
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("x=", 3, "!"), "x=3!");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat(1.5), "1.5");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, ParseIntTakesOnlyAWholeNumberInRange) {
  int64_t v = 7;
  EXPECT_TRUE(ParseInt("42", 0, 100, &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-5", -10, 10, &v));
  EXPECT_EQ(v, -5);
  for (const char* bad : {"", "abc", "5x", " 5", "+5", "1e3", "101", "-11",
                          "99999999999999999999"}) {
    v = 7;
    EXPECT_FALSE(ParseInt(bad, -10, 100, &v)) << bad;
    EXPECT_EQ(v, 7) << bad;
  }
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("m_scsg__bf", "m_"));
  EXPECT_FALSE(StartsWith("m", "m_"));
}

TEST(HashTest, HashVectorDiscriminates) {
  std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = {3, 2, 1};
  std::vector<int32_t> c = {1, 2, 3};
  EXPECT_EQ(HashVector(a), HashVector(c));
  EXPECT_NE(HashVector(a), HashVector(b));
  EXPECT_NE(HashVector(a), HashVector(std::vector<int32_t>{1, 2}));
}

}  // namespace
}  // namespace chainsplit
