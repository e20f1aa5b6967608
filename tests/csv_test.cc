// Tests for the CSV loader/writer.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/csv.h"

namespace seq {
namespace {

TEST(CsvTest, ParsesTypedColumns) {
  auto store = ParseCsvSequence(
      "day,close,volume,hot,tag\n"
      "1,10.5,100,true,alpha\n"
      "2,11.0,200,false,beta\n"
      "4,9.25,50,true,gamma\n");
  ASSERT_TRUE(store.ok()) << store.status();
  const Schema& schema = *(*store)->schema();
  EXPECT_EQ(schema.ToString(),
            "<close:double, volume:int64, hot:bool, tag:string>");
  EXPECT_EQ((*store)->num_records(), 3);
  EXPECT_EQ((*store)->span(), Span::Of(1, 4));
  const PosRecord pr = (*store)->records()[2];
  EXPECT_EQ(pr.pos, 4);
  EXPECT_DOUBLE_EQ(pr.rec[0].dbl(), 9.25);
  EXPECT_EQ(pr.rec[1].int64(), 50);
  EXPECT_TRUE(pr.rec[2].boolean());
  EXPECT_EQ(pr.rec[3].str(), "gamma");
}

TEST(CsvTest, IntColumnWithOneFloatBecomesDouble) {
  auto store = ParseCsvSequence("p,v\n1,10\n2,10.5\n");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->schema()->field(0).type, TypeId::kDouble);
}

TEST(CsvTest, MixedUnparseableBecomesString) {
  auto store = ParseCsvSequence("p,v\n1,10\n2,ten\n");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->schema()->field(0).type, TypeId::kString);
}

TEST(CsvTest, NamedPositionColumn) {
  CsvOptions by_t;
  by_t.position_column = "t";
  auto store = ParseCsvSequence("v,t\n5.5,10\n6.5,20\n", by_t);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->schema()->ToString(), "<v:double>");
  EXPECT_EQ((*store)->records()[0].pos, 10);
}

TEST(CsvTest, UnsortedRowsAreSorted) {
  auto store = ParseCsvSequence("p,v\n30,3\n10,1\n20,2\n");
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->records()[0].pos, 10);
  EXPECT_EQ((*store)->records()[2].pos, 30);
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions headerless;
  headerless.header = false;
  auto store = ParseCsvSequence("1,5\n2,6\n", headerless);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->schema()->field(0).name, "c1");
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ParseCsvSequence("").ok());
  EXPECT_FALSE(ParseCsvSequence("p,v\n1\n").ok());     // arity mismatch
  EXPECT_FALSE(ParseCsvSequence("p,v\nx,1\n").ok());   // bad position
  EXPECT_FALSE(ParseCsvSequence("p,v\n1,1\n1,2\n").ok());  // dup position
  CsvOptions bad_pos;
  bad_pos.position_column = "zz";
  EXPECT_FALSE(ParseCsvSequence("p,v\n1,2\n", bad_pos).ok());
  EXPECT_FALSE(ParseCsvSequence("p\n1\n").ok());  // only the position col
  EXPECT_FALSE(LoadCsvSequence("/no/such/file.csv").ok());
}

TEST(CsvTest, RoundTrip) {
  auto store = ParseCsvSequence(
      "pos,close,volume\n1,10.5,100\n3,11.25,250\n");
  ASSERT_TRUE(store.ok());
  std::string csv = SequenceToCsv(**store);
  auto reparsed = ParseCsvSequence(csv);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ((*reparsed)->num_records(), 2);
  EXPECT_TRUE((*reparsed)->schema()->Equals(*(*store)->schema()));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*reparsed)->records()[i].pos, (*store)->records()[i].pos);
    EXPECT_EQ((*reparsed)->records()[i].rec, (*store)->records()[i].rec);
  }
}

TEST(CsvTest, LoadedSequenceIsQueryable) {
  Engine engine;
  auto store = ParseCsvSequence(
      "day,temp\n1,20.5\n2,21.0\n3,19.0\n5,25.0\n");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(engine.RegisterBase("weather", *store).ok());
  auto result = engine.Run(
      {SeqRef("weather").Select(Gt(Col("temp"), Lit(20.0))).Build()});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), 3u);
}

}  // namespace
}  // namespace seq
