// Tests for binary sequence persistence and whole-database save/load.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/database_io.h"
#include "core/engine.h"
#include "storage/file_format.h"
#include "workload/generators.h"

namespace seq {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("seq_test_" + name)).string();
}

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
  std::string Track(std::string path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(PersistenceTest, SequenceRoundTrip) {
  SchemaPtr schema = Schema::Make({Field{"i", TypeId::kInt64},
                                   Field{"d", TypeId::kDouble},
                                   Field{"b", TypeId::kBool},
                                   Field{"s", TypeId::kString}});
  AccessCosts costs;
  costs.page_cost = 3.5;
  costs.probe_cost = 7.25;
  costs.clustered = false;
  auto store = std::make_shared<BaseSequenceStore>(schema, 16, costs);
  ASSERT_TRUE(store->DeclareSpan(Span::Of(-5, 100)).ok());
  ASSERT_TRUE(store
                  ->Append(-3, {Value::Int64(-42), Value::Double(2.5),
                                Value::Bool(true), Value::String("hello")})
                  .ok());
  ASSERT_TRUE(store
                  ->Append(7, {Value::Int64(9), Value::Double(-0.25),
                               Value::Bool(false),
                               Value::String("two words")})
                  .ok());
  std::string path = Track(TempPath("roundtrip.seq1"));
  ASSERT_TRUE(SaveSequence(*store, path).ok());

  auto loaded = LoadSequence(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE((*loaded)->schema()->Equals(*schema));
  EXPECT_EQ((*loaded)->span(), Span::Of(-5, 100));
  EXPECT_EQ((*loaded)->records_per_page(), 16);
  EXPECT_DOUBLE_EQ((*loaded)->costs().page_cost, 3.5);
  EXPECT_FALSE((*loaded)->costs().clustered);
  ASSERT_EQ((*loaded)->num_records(), 2);
  EXPECT_EQ((*loaded)->records()[0].pos, -3);
  EXPECT_EQ((*loaded)->records()[0].rec, store->records()[0].rec);
  EXPECT_EQ((*loaded)->records()[1].rec[3].str(), "two words");
}

TEST_F(PersistenceTest, LoadRejectsGarbage) {
  std::string path = Track(TempPath("garbage.seq1"));
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a seq file at all";
  }
  auto r = LoadSequence(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(LoadSequence(TempPath("missing.seq1")).ok());
}

TEST_F(PersistenceTest, LoadRejectsTruncation) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 8);
  for (Position p = 0; p < 50; ++p) {
    ASSERT_TRUE(store->Append(p, {Value::Int64(p)}).ok());
  }
  std::string path = Track(TempPath("trunc.seq1"));
  ASSERT_TRUE(SaveSequence(*store, path).ok());
  // Chop the file.
  auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  auto r = LoadSequence(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, DatabaseRoundTrip) {
  Engine engine;
  StockSeriesOptions stock;
  stock.span = Span::Of(1, 400);
  stock.density = 0.8;
  stock.seed = 5;
  ASSERT_TRUE(engine.RegisterBase("prices", *MakeStockSeries(stock)).ok());
  IntSeriesOptions ints;
  ints.span = Span::Of(1, 400);
  ints.seed = 6;
  ASSERT_TRUE(engine.RegisterBase("marks", *MakeIntSeries(ints)).ok());
  SchemaPtr cschema = Schema::Make({Field{"k", TypeId::kDouble}});
  ASSERT_TRUE(
      engine.RegisterConstant("limit", cschema, {Value::Double(99.5)}).ok());
  engine.catalog().SetNullCorrelation("prices", "marks", 0.75);
  ASSERT_TRUE(engine
                  .DefineView("warm", SeqRef("prices")
                                          .Select(Gt(Col("close"),
                                                     Lit(100.0)))
                                          .Agg(AggFunc::kAvg, "close", 5)
                                          .Build())
                  .ok());

  std::string dir = Track(TempPath("dbdir"));
  ASSERT_TRUE(SaveDatabase(engine, dir).ok());

  Engine loaded;
  Status s = LoadDatabase(dir, &loaded);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(loaded.catalog().ListSequences(),
            (std::vector<std::string>{"limit", "marks", "prices"}));
  EXPECT_DOUBLE_EQ(loaded.catalog().NullCorrelation("marks", "prices"),
                   0.75);
  ASSERT_EQ(loaded.views().count("warm"), 1u);

  // The reloaded database answers queries identically.
  auto q = SeqRef("warm").Build();
  auto before = engine.Run({q});
  auto after = loaded.Run({q});
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(before->records.size(), after->records.size());
  for (size_t i = 0; i < before->records.size(); ++i) {
    EXPECT_EQ(before->records[i].pos, after->records[i].pos);
    EXPECT_EQ(before->records[i].rec, after->records[i].rec);
  }

  // Constants survive too.
  auto with_const =
      loaded.Run({SeqRef("prices").ComposeWith(ConstRef("limit")).Build()});
  ASSERT_TRUE(with_const.ok()) << with_const.status();
  EXPECT_DOUBLE_EQ(with_const->records[0].rec[5].dbl(), 99.5);
}

TEST_F(PersistenceTest, LoadRejectsBadManifest) {
  std::string dir = Track(TempPath("baddb"));
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/manifest.seqdb");
    out << "seqdb 1\nfrobnicate x y\n";
  }
  Engine engine;
  Status s = LoadDatabase(dir, &engine);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown entry kind"), std::string::npos);
  Engine engine2;
  EXPECT_FALSE(LoadDatabase(TempPath("no_such_dir"), &engine2).ok());
}


std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

TEST_F(PersistenceTest, LoadRejectsEveryCorruptionWithAStatus) {
  SchemaPtr schema = Schema::Make({Field{"i", TypeId::kInt64},
                                   Field{"d", TypeId::kDouble},
                                   Field{"b", TypeId::kBool},
                                   Field{"s", TypeId::kString}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(store->DeclareSpan(Span::Of(0, 50)).ok());
  for (Position p = 1; p <= 3; ++p) {
    ASSERT_TRUE(store
                    ->Append(p * 10, {Value::Int64(-p), Value::Double(p / 4.0),
                                      Value::Bool(p % 2 == 0),
                                      Value::String(std::string(p, 'x'))})
                    .ok());
  }
  const std::string good = Track(TempPath("corrupt_src.seq1"));
  ASSERT_TRUE(SaveSequence(*store, good).ok());
  const std::string bytes = ReadBytes(good);
  ASSERT_TRUE(LoadSequence(good).ok());

  // Every strict prefix of the file is a truncated file.
  const std::string path = Track(TempPath("corrupt.seq1"));
  for (size_t n = 0; n < bytes.size(); ++n) {
    WriteBytes(path, bytes.substr(0, n));
    auto r = LoadSequence(path);
    ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes loaded";
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kInvalidArgument)
        << n << ": " << r.status();
  }

  // Header: magic, records_per_page, two costs, clustered, span; then the
  // field headers, then the record count and the first record.
  size_t count_offset = 4 + 4 + 8 + 8 + 1 + 8 + 8 + 4;
  for (const Field& f : schema->fields()) {
    count_offset += 4 + f.name.size() + 1;
  }
  const size_t first_string_offset = count_offset + 8 + 8 + 8 + 8 + 1;
  uint64_t stored_count = 0;
  uint32_t stored_len = 0;
  std::memcpy(&stored_count, bytes.data() + count_offset, sizeof(uint64_t));
  std::memcpy(&stored_len, bytes.data() + first_string_offset,
              sizeof(uint32_t));
  ASSERT_EQ(stored_count, 3u);
  ASSERT_EQ(stored_len, 1u);  // "x"

  // A record count no file could hold must fail before sizing anything.
  std::string huge_count = bytes;
  Patch<uint64_t>(&huge_count, count_offset, uint64_t{1} << 62);
  WriteBytes(path, huge_count);
  auto r = LoadSequence(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);

  // String lengths above the format's limit, and within it but past the
  // end of the file.
  for (uint32_t len : {(uint32_t{1} << 20) + 1, uint32_t{1} << 20,
                       UINT32_MAX}) {
    std::string long_string = bytes;
    Patch<uint32_t>(&long_string, first_string_offset, len);
    WriteBytes(path, long_string);
    r = LoadSequence(path);
    ASSERT_FALSE(r.ok()) << len;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << len;
  }
}

}  // namespace
}  // namespace seq
