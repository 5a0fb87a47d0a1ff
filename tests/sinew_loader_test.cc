#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/table.h"
#include "serial/sinew_format.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"
#include "workloads/nobench/runners.h"

namespace sinew {
namespace {

TEST(Loader, CreatesTableWithReservoirOnFirstLoad) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 1})").ok());
  auto table = db.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->schema().FindColumn("_data").has_value());
  EXPECT_EQ((*table)->LiveRowCount(), 1u);
  EXPECT_EQ(db.Tables(), std::vector<std::string>{"t"});
}

TEST(Loader, CountsOccurrencesIncludingNestedAndArrayObjects) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"(
{"a": 1, "obj": {"x": 1, "y": 2}, "arr": [{"z": 3}, {"z": 4}]}
{"a": 2, "obj": {"x": 9}}
)")
                  .ok());
  auto schema = db.LogicalSchema("t");
  ASSERT_TRUE(schema.ok());
  std::map<std::string, uint64_t> counts;
  for (const auto& col : *schema) counts[col.name] = col.count;
  EXPECT_EQ(counts["a"], 2u);
  EXPECT_EQ(counts["obj"], 2u);
  EXPECT_EQ(counts["obj.x"], 2u);
  EXPECT_EQ(counts["obj.y"], 1u);
  EXPECT_EQ(counts["arr"], 1u);
  // A sub-attribute appearing in N array elements of one document counts
  // once for that document (density semantics).
  EXPECT_EQ(counts["arr.z"], 1u);
}

TEST(Loader, MultiTypedKeyAppearsOnceInLogicalSchemaWithBothTypes) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"(
{"dyn": 1}
{"dyn": "one"}
)")
                  .ok());
  auto schema = db.LogicalSchema("t");
  ASSERT_EQ(schema->size(), 1u);
  EXPECT_EQ((*schema)[0].name, "dyn");
  EXPECT_EQ((*schema)[0].types.size(), 2u);
}

TEST(Loader, RejectsReservedKeysAndNonObjects) {
  SinewDb db;
  EXPECT_FALSE(db.LoadJsonLines("t", R"({"_data": 1})").ok());
  EXPECT_FALSE(db.LoadJsonLines("t", R"({"__rid": 1})").ok());
  EXPECT_FALSE(db.LoadJsonLines("t", R"({"$weird": 1})").ok());
  EXPECT_FALSE(db.LoadJsonLines("t", "[1, 2, 3]").ok());
  EXPECT_FALSE(db.LoadJsonLines("t", "not json at all").ok());
}

TEST(Loader, ExplicitNullsAreAbsence) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 1, "b": null})").ok());
  auto result = db.Query("SELECT a FROM t WHERE b IS NULL");
  // 'b' was never observed non-null, so it is not even a logical column.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db.Query("SELECT a FROM t")->rows.size(), 1u);
}

TEST(Loader, EvolvingSchemaAcrossBatches) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 1})").ok());
  EXPECT_EQ(db.LogicalSchema("t")->size(), 1u);
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 2, "brand_new": "x"})").ok());
  EXPECT_EQ(db.LogicalSchema("t")->size(), 2u);
  auto result = db.Query("SELECT a FROM t WHERE brand_new = 'x'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST(Loader, LoadIntoMaterializedTableMarksColumnsDirty) {
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 1})").ok());
  ASSERT_TRUE(db.ForceMaterialization("t", "a", true).ok());
  ASSERT_TRUE(db.MaterializeAll("t").ok());
  uint32_t id = *db.catalog()->FindId("a", ValueType::kInt);
  EXPECT_FALSE(db.catalog()->GetState("t", id)->dirty);
  // New data lands in the reservoir and re-dirties the column.
  ASSERT_TRUE(db.LoadJsonLines("t", R"({"a": 2})").ok());
  EXPECT_TRUE(db.catalog()->GetState("t", id)->dirty);
  // Queries remain correct while dirty (COALESCE path).
  EXPECT_EQ(db.Query("SELECT a FROM t WHERE a = 2")->rows.size(), 1u);
  ASSERT_TRUE(db.MaterializeAll("t").ok());
  EXPECT_FALSE(db.catalog()->GetState("t", id)->dirty);
  EXPECT_EQ(db.Query("SELECT a FROM t WHERE a = 2")->rows.size(), 1u);
}

TEST(Loader, DocumentsReconstructFromReservoir) {
  SinewDb db;
  const char* line =
      R"({"url": "x.com", "hits": 22, "user": {"id": 7}, "tags": ["a"]})";
  ASSERT_TRUE(db.LoadJsonLines("t", line).ok());
  auto result = db.Query("SELECT sinew_reconstruct(_data) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].str(),
            R"({"url":"x.com","hits":22,"user":{"id":7},"tags":["a"]})");
}

TEST(Loader, ParallelLoadAssignsIdsInDocumentOrder) {
  // A parallel load must intern attributes exactly as a serial load does:
  // same ids, hence the same plans and plan hashes. NoBench's ~1,000 sparse
  // keys mostly first appear in the first chunks; the second table's
  // documents each bring new keys, top level and nested, so every chunk of
  // a parallel load interns concurrently.
  namespace nb = workloads::nobench;
  nb::Config config;
  config.num_records = 2000;
  const std::vector<Value> docs = nb::Generate(config);
  const nb::QueryParams params = nb::MakeQueryParams(config);
  std::vector<Value> fresh_keys;
  for (int i = 0; i < 2000; ++i) {
    const std::string n = std::to_string(i);
    fresh_keys.push_back(Value::Object(
        {{"k" + n, Value::Int(i)},
         {"o", Value::Object({{"n" + n, Value::String(n)}})},
         {"a", Value::Array({Value::Object({{"e" + n, Value::Bool(true)}})})}}));
  }
  auto make_db = [](int parallelism) {
    SinewOptions options;
    options.parallelism = parallelism;
    // Keep query plans serial on both sides so EXPLAIN compares verbatim;
    // only the load differs.
    options.planner.parallel_min_rows = 1e12;
    return std::make_unique<SinewDb>(options);
  };
  std::unique_ptr<SinewDb> serial = make_db(1);
  std::unique_ptr<SinewDb> parallel = make_db(4);
  for (SinewDb* db : {serial.get(), parallel.get()}) {
    ASSERT_TRUE(db->LoadDocuments(nb::kTableName, docs).ok());
    ASSERT_TRUE(db->LoadDocuments("fresh", fresh_keys).ok());
  }

  ASSERT_EQ(serial->catalog()->size(), parallel->catalog()->size());
  for (uint32_t id = 0; id < serial->catalog()->size(); ++id) {
    Result<serial::Attribute> attr = serial->catalog()->Lookup(id);
    ASSERT_TRUE(attr.ok()) << attr.status().ToString();
    EXPECT_EQ(parallel->catalog()->FindId(attr->key, attr->type), id)
        << attr->key;
  }

  auto expect_same_plans = [&](const char* stage) {
    for (int q = 1; q <= 11; ++q) {
      SCOPED_TRACE(std::string(stage) + " Q" + std::to_string(q));
      Result<std::string> sql = nb::SinewTaskSql(q, params);
      ASSERT_TRUE(sql.ok());
      Result<std::string> want = serial->Explain(*sql);
      Result<std::string> got = parallel->Explain(*sql);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want);
    }
  };
  expect_same_plans("virtual");
  ASSERT_TRUE(serial->AnalyzeAndMaterialize(nb::kTableName).ok());
  ASSERT_TRUE(parallel->AnalyzeAndMaterialize(nb::kTableName).ok());
  expect_same_plans("materialized");
}

}  // namespace
}  // namespace sinew
