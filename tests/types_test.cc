// Unit tests for the types module: Span arithmetic, Value semantics,
// Schema operations, Record helpers.

#include <gtest/gtest.h>

#include "types/record.h"
#include "types/schema.h"
#include "types/span.h"
#include "types/value.h"

namespace seq {
namespace {

// --- Span -------------------------------------------------------------------

TEST(SpanTest, DefaultIsEmpty) {
  Span s;
  EXPECT_TRUE(s.IsEmpty());
  EXPECT_EQ(s.Length(), 0);
}

TEST(SpanTest, BasicProperties) {
  Span s = Span::Of(10, 20);
  EXPECT_FALSE(s.IsEmpty());
  EXPECT_FALSE(s.IsUnbounded());
  EXPECT_EQ(s.Length(), 11);
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
  EXPECT_FALSE(s.Contains(9));
  EXPECT_FALSE(s.Contains(21));
}

TEST(SpanTest, PointSpan) {
  Span s = Span::Point(5);
  EXPECT_EQ(s.Length(), 1);
  EXPECT_TRUE(s.Contains(5));
}

TEST(SpanTest, UnboundedProperties) {
  Span u = Span::Unbounded();
  EXPECT_TRUE(u.IsUnbounded());
  EXPECT_FALSE(u.IsEmpty());
  EXPECT_TRUE(u.Contains(0));
  EXPECT_TRUE(u.Contains(kMaxPosition));
}

TEST(SpanTest, IntersectOverlapping) {
  EXPECT_EQ(Span::Of(1, 10).Intersect(Span::Of(5, 20)), Span::Of(5, 10));
}

TEST(SpanTest, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(Span::Of(1, 4).Intersect(Span::Of(5, 9)).IsEmpty());
}

TEST(SpanTest, IntersectWithEmpty) {
  EXPECT_TRUE(Span::Of(1, 10).Intersect(Span::Empty()).IsEmpty());
  EXPECT_TRUE(Span::Empty().Intersect(Span::Of(1, 10)).IsEmpty());
}

TEST(SpanTest, IntersectWithUnbounded) {
  EXPECT_EQ(Span::Of(3, 7).Intersect(Span::Unbounded()), Span::Of(3, 7));
}

TEST(SpanTest, HullMergesAndIgnoresEmpty) {
  EXPECT_EQ(Span::Of(1, 3).Hull(Span::Of(10, 12)), Span::Of(1, 12));
  EXPECT_EQ(Span::Empty().Hull(Span::Of(2, 4)), Span::Of(2, 4));
  EXPECT_EQ(Span::Of(2, 4).Hull(Span::Empty()), Span::Of(2, 4));
}

TEST(SpanTest, ShiftMovesBothBounds) {
  EXPECT_EQ(Span::Of(5, 10).Shift(3), Span::Of(8, 13));
  EXPECT_EQ(Span::Of(5, 10).Shift(-5), Span::Of(0, 5));
}

TEST(SpanTest, ShiftKeepsSentinelsSticky) {
  Span u = Span::Unbounded();
  EXPECT_TRUE(u.Shift(1000).IsUnbounded());
  Span half = Span::Of(kMinPosition, 100);
  Span shifted = half.Shift(10);
  EXPECT_EQ(shifted.start, kMinPosition);
  EXPECT_EQ(shifted.end, 110);
}

// Offsets nest: a bound shifted past a sentinel stops at it instead of
// overflowing (or leaving a start beyond the end).
TEST(SpanTest, NestedMaxShiftsClampToTheSentinels) {
  Span up = Span::Of(1, 100);
  Span down = Span::Of(1, 100);
  Span extended = Span::Of(1, 100);
  for (int i = 0; i < 4; ++i) {
    up = up.Shift(kMaxPosition);
    down = down.Shift(-kMaxPosition);
    extended = extended.ExtendEnd(kMaxPosition);
  }
  EXPECT_EQ(up, Span::Of(kMaxPosition, kMaxPosition));
  EXPECT_EQ(down, Span::Of(kMinPosition, kMinPosition));
  EXPECT_EQ(extended, Span::Of(1, kMaxPosition));
  EXPECT_EQ(Span::Of(1, 100).Shift(INT64_MAX),
            Span::Of(kMaxPosition, kMaxPosition));
  EXPECT_EQ(Span::Of(1, 100).Shift(INT64_MIN),
            Span::Of(kMinPosition, kMinPosition));
}

TEST(SpanTest, ExtendEnd) {
  EXPECT_EQ(Span::Of(1, 5).ExtendEnd(3), Span::Of(1, 8));
  EXPECT_TRUE(Span::Empty().ExtendEnd(3).IsEmpty());
}

TEST(SpanTest, EqualityTreatsAllEmptyAsEqual) {
  EXPECT_EQ(Span::Empty(), Span::Of(10, 5));
  EXPECT_NE(Span::Of(1, 2), Span::Of(1, 3));
}

TEST(SpanTest, ToStringForms) {
  EXPECT_EQ(Span::Of(1, 5).ToString(), "[1,5]");
  EXPECT_EQ(Span::Empty().ToString(), "(empty)");
  EXPECT_EQ(Span::Unbounded().ToString(), "[-inf,+inf]");
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, TypeAccessors) {
  EXPECT_EQ(Value::Int64(3).int64(), 3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_TRUE(Value::Bool(true).boolean());
  EXPECT_EQ(Value::String("abc").str(), "abc");
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, BoolComparison) {
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
  EXPECT_EQ(Value::Bool(true), Value::Bool(true));
}

TEST(ValueTest, EqualNumericsHashEqual) {
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, AsDoubleCoercesIntegers) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "\"hi\"");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(TypeName(TypeId::kInt64), "int64");
  EXPECT_STREQ(TypeName(TypeId::kString), "string");
  EXPECT_TRUE(IsNumeric(TypeId::kDouble));
  EXPECT_FALSE(IsNumeric(TypeId::kBool));
}

// --- Schema -----------------------------------------------------------------

SchemaPtr TwoFields() {
  return Schema::Make(
      {Field{"a", TypeId::kInt64}, Field{"b", TypeId::kDouble}});
}

TEST(SchemaTest, FindField) {
  SchemaPtr s = TwoFields();
  EXPECT_EQ(*s->FindField("a"), 0u);
  EXPECT_EQ(*s->FindField("b"), 1u);
  EXPECT_FALSE(s->FindField("c").has_value());
}

TEST(SchemaTest, FieldIndexErrors) {
  SchemaPtr s = TwoFields();
  EXPECT_TRUE(s->FieldIndex("a").ok());
  auto missing = s->FieldIndex("zzz");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ProjectReordersAndRenames) {
  SchemaPtr s = TwoFields();
  auto p = s->Project({1, 0}, {"bee", ""});
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ((*p)->num_fields(), 2u);
  EXPECT_EQ((*p)->field(0).name, "bee");
  EXPECT_EQ((*p)->field(0).type, TypeId::kDouble);
  EXPECT_EQ((*p)->field(1).name, "a");
}

TEST(SchemaTest, ProjectRejectsRepeatedNames) {
  SchemaPtr s = TwoFields();
  auto renamed = s->Project({0, 1}, {"x", "x"});
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(s->Project({0, 0}).ok());
  EXPECT_TRUE(Schema::CheckDistinctNames(s->fields()).ok());
}

TEST(SchemaTest, ConcatWithoutClash) {
  SchemaPtr l = TwoFields();
  SchemaPtr r = Schema::Make({Field{"c", TypeId::kBool}});
  SchemaPtr c = Schema::Concat(*l, *r);
  ASSERT_EQ(c->num_fields(), 3u);
  EXPECT_EQ(c->field(2).name, "c");
}

TEST(SchemaTest, ConcatRenamesClashes) {
  SchemaPtr l = TwoFields();
  SchemaPtr c = Schema::Concat(*l, *l);
  ASSERT_EQ(c->num_fields(), 4u);
  EXPECT_EQ(c->field(2).name, "a_r");
  EXPECT_EQ(c->field(3).name, "b_r");
}

TEST(SchemaTest, ConcatRenamesRepeatedClashes) {
  SchemaPtr one = Schema::Make({Field{"x", TypeId::kInt64}});
  SchemaPtr two = Schema::Concat(*one, *one);  // x, x_r
  SchemaPtr three = Schema::Concat(*two, *one);
  ASSERT_EQ(three->num_fields(), 3u);
  EXPECT_EQ(three->field(2).name, "x_r2");
}

TEST(SchemaTest, ConcatFieldsTrackOrigins) {
  SchemaPtr l = TwoFields();
  SchemaPtr r = Schema::Make({Field{"a", TypeId::kBool}});
  auto origins = Schema::ConcatFields(*l, *r);
  ASSERT_EQ(origins.size(), 3u);
  EXPECT_EQ(origins[0].side, 0);
  EXPECT_EQ(origins[0].out_name, "a");
  EXPECT_EQ(origins[2].side, 1);
  EXPECT_EQ(origins[2].index, 0u);
  EXPECT_EQ(origins[2].out_name, "a_r");
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TwoFields()->ToString(), "<a:int64, b:double>");
}

// --- Record -----------------------------------------------------------------

TEST(RecordTest, MatchesSchema) {
  SchemaPtr s = TwoFields();
  Record good{Value::Int64(1), Value::Double(2.0)};
  Record wrong_arity{Value::Int64(1)};
  Record wrong_type{Value::Int64(1), Value::Bool(true)};
  EXPECT_TRUE(RecordMatchesSchema(good, *s));
  EXPECT_FALSE(RecordMatchesSchema(wrong_arity, *s));
  EXPECT_FALSE(RecordMatchesSchema(wrong_type, *s));
}

TEST(RecordTest, ToStringIncludesNamesAndPosition) {
  SchemaPtr s = TwoFields();
  PosRecord pr{7, Record{Value::Int64(1), Value::Double(2.5)}};
  EXPECT_EQ(PosRecordToString(pr, *s), "7: (a=1, b=2.5)");
}

}  // namespace
}  // namespace seq
