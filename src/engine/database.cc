#include "engine/database.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/metrics.h"
#include "common/query_log.h"

namespace sinew::engine {

namespace {

/// Virtual system tables: SELECT-ing from them serves a snapshot of the
/// global metrics registry / workload query log through the ordinary
/// planner/executor. `sinew_attribute_stats` is refreshed by the Sinew
/// layer (it owns the attribute dictionary), but its name is reserved here
/// so user DDL can never squat on it.
constexpr std::string_view kMetricsTableName = "sinew_metrics";
constexpr std::string_view kQueryLogTableName = "sinew_query_log";
constexpr std::string_view kAttributeStatsTableName = "sinew_attribute_stats";

bool ReferencesTable(const SelectStatement& stmt, std::string_view name) {
  return std::any_of(stmt.from.begin(), stmt.from.end(),
                     [name](const TableRef& ref) {
                       return ref.table_name == name;
                     });
}

/// Delete + re-append refresh idiom for system tables: concurrent readers
/// may hold the Table*, and plans are built against it, so the table object
/// must survive refreshes.
Status ClearTableRows(Table* table) {
  const uint64_t end = table->RowSlotCount();
  for (uint64_t rid = 0; rid < end; ++rid) {
    if (table->IsLive(rid)) RETURN_NOT_OK(table->DeleteRow(rid));
  }
  return Status::OK();
}

/// Walks the plan tree summing base-scan actuals into the exec info.
void AccumulateScanStats(const PlanNode& node, const PlanStats& stats,
                         QueryExecInfo* info) {
  if (node.kind == PlanKind::kSeqScan) {
    if (OperatorStats* s = stats.For(node)) {
      info->rows_in += s->rows.load(std::memory_order_relaxed);
      info->zone_skips += s->zone_skips.load(std::memory_order_relaxed);
    }
  }
  for (const auto& child : node.children) {
    AccumulateScanStats(*child, stats, info);
  }
}

/// Splits multi-line text into one QueryResult text row per line, the shape
/// EXPLAIN output takes.
QueryResult TextResult(const std::string& column, const std::string& text) {
  QueryResult result;
  result.column_names.push_back(column);
  result.column_types.push_back(ColumnType::kText);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.push_back(
        DatumRow{Datum::Text(text.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

QueryResult CountResult(int64_t n) {
  QueryResult result;
  result.column_names.push_back("count");
  result.column_types.push_back(ColumnType::kInt);
  result.rows.push_back(DatumRow{Datum::Int(n)});
  return result;
}

/// Implicit store coercions (int literal into a double column, text into
/// bytes). Anything else is left for the row codec to type-check.
Datum CoerceForColumn(Datum value, ColumnType type) {
  if (value.is_null()) return value;
  if (type == ColumnType::kDouble && value.is_int()) {
    return Datum::Double(static_cast<double>(value.int_value()));
  }
  if (type == ColumnType::kBytes && value.is_text()) {
    return Datum::Bytes(value.str());
  }
  if (type == ColumnType::kText && value.is_bytes()) {
    return Datum::Text(value.str());
  }
  return value;
}

/// Builds the scan-visible ExecSchema (live columns + __rid) and the
/// corresponding live slot list for programmatic row iteration.
void ScanSchemaFor(const Table& table, const std::string& alias,
                   ExecSchema* schema, std::vector<size_t>* live_slots) {
  const Schema s = table.SchemaSnapshot();
  *live_slots = s.LiveSlots();
  for (size_t slot : *live_slots) {
    const Column& col = s.columns()[slot];
    schema->cols.push_back(ExecSchema::Col{alias, col.name, col.type});
  }
  schema->cols.push_back(ExecSchema::Col{alias, "__rid", ColumnType::kInt});
}

}  // namespace

Database::Database(PlannerOptions planner_options, ExecOptions exec_options)
    : planner_options_(planner_options), exec_options_(exec_options) {
  RegisterBuiltinFunctions(&udfs_);
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return ExecuteStatement(stmt);
}

Result<PlanPtr> Database::PlanStatement(const SelectStatement& stmt) {
  RETURN_NOT_OK(MaybeRefreshSystemTables(stmt));
  Planner planner(&catalog_, &udfs_, planner_options_);
  return planner.PlanSelect(stmt);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt) {
  return ExecuteStatement(stmt, nullptr);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt,
                                               QueryExecInfo* info) {
  if (info != nullptr && stmt.kind != StatementKind::kSelect) {
    // Non-SELECT statements get wall-clock + affected-rows telemetry only.
    const uint64_t start = metrics::NowNanos();
    Result<QueryResult> result = ExecuteStatement(stmt);
    info->exec_ns = metrics::NowNanos() - start;
    if (result.ok()) {
      if (result->rows.size() == 1 && result->column_names.size() == 1 &&
          result->column_names[0] == "count" &&
          result->rows[0][0].is_int()) {
        info->rows_out =
            static_cast<uint64_t>(result->rows[0][0].int_value());
      } else {
        info->rows_out = result->rows.size();
      }
    }
    return result;
  }
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, info);
    case StatementKind::kExplain:
      return ExecuteExplain(stmt);
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del);
    case StatementKind::kAnalyze: {
      ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.analyze->table));
      RETURN_NOT_OK(table->Analyze());
      return CountResult(static_cast<int64_t>(table->LiveRowCount()));
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<PlanPtr> Database::Plan(std::string_view sql) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != StatementKind::kSelect &&
      stmt.kind != StatementKind::kExplain) {
    return Status::InvalidArgument("Plan() requires a SELECT");
  }
  return PlanStatement(*stmt.select);
}

Result<std::string> Database::Explain(std::string_view sql) {
  ASSIGN_OR_RETURN(PlanPtr plan, Plan(sql));
  return plan->DebugString();
}

Result<QueryResult> Database::ExecuteSelect(const SelectStatement& stmt,
                                            QueryExecInfo* info) {
  const uint64_t plan_start = metrics::NowNanos();
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStatement(stmt));
  const uint64_t plan_ns = metrics::NowNanos() - plan_start;
  if (info == nullptr) {
    return ExecutePlan(*plan, &udfs_, exec_options_);
  }
  info->plan_ns = plan_ns;
  info->plan_hash = qlog::HashFingerprint(plan->DebugString());
  // Collect per-node actuals with counters only; operator wall-clock timing
  // (time_operators) stays off — two clock reads per batch per operator is
  // the overhead the telemetry budget doesn't spend on every query.
  PlanStats stats(*plan);
  ExecOptions options = exec_options_;
  options.stats = &stats;
  const uint64_t exec_start = metrics::NowNanos();
  Result<QueryResult> result = ExecutePlan(*plan, &udfs_, options);
  info->exec_ns = metrics::NowNanos() - exec_start;
  AccumulateScanStats(*plan, stats, info);
  if (OperatorStats* root = stats.For(*plan)) {
    info->batches = root->batches.load(std::memory_order_relaxed);
  }
  if (result.ok()) info->rows_out = result->rows.size();
  if (slow_query_threshold_ns_ > 0 &&
      info->exec_ns > slow_query_threshold_ns_ && result.ok()) {
    // Slow query: dump the annotated plan tree into the trace ring. Per-op
    // times print as 0 (timing off, see above); cardinality actuals are live.
    metrics::MetricsRegistry::Global()->AddTrace(metrics::TraceEvent{
        "query.slow", ExplainAnalyzeText(*plan, stats), exec_start,
        info->exec_ns, info->rows_out});
  }
  return result;
}

Result<QueryResult> Database::ExecuteExplain(const Statement& stmt) {
  const uint64_t plan_start = metrics::NowNanos();
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStatement(*stmt.select));
  const uint64_t plan_ns = metrics::NowNanos() - plan_start;
  if (!stmt.explain_analyze) {
    return TextResult("QUERY PLAN", plan->DebugString());
  }
  // EXPLAIN ANALYZE: run the plan for real, with every operator wrapped to
  // record actuals, then print the tree annotated with them. Result rows
  // are discarded — side effects (metric counters) still land.
  PlanStats stats(*plan);
  ExecOptions options = exec_options_;
  options.stats = &stats;
  options.time_operators = true;
  RETURN_NOT_OK(ExecutePlan(*plan, &udfs_, options).status());
  std::ostringstream text;
  text << ExplainAnalyzeText(*plan, stats);
  text << "Planning Time: " << std::fixed << std::setprecision(3)
       << static_cast<double>(plan_ns) / 1e6 << " ms\n";
  text << "Execution Time: " << std::fixed << std::setprecision(3)
       << static_cast<double>(stats.total_ns) / 1e6 << " ms\n";
  return TextResult("QUERY PLAN", text.str());
}

Status Database::MaybeRefreshSystemTables(const SelectStatement& stmt) {
  if (ReferencesTable(stmt, kMetricsTableName)) {
    RETURN_NOT_OK(RefreshMetricsTable());
  }
  if (ReferencesTable(stmt, kQueryLogTableName)) {
    RETURN_NOT_OK(RefreshQueryLogTable());
  }
  return Status::OK();
}

Status Database::RefreshMetricsTable() {
  std::lock_guard lock(system_table_mu_);
  Table* table = nullptr;
  Result<Table*> existing = catalog_.GetTable(std::string(kMetricsTableName));
  if (existing.ok()) {
    table = *existing;
  } else {
    Schema schema;
    RETURN_NOT_OK(schema.AddColumn(Column{"name", ColumnType::kText, false}));
    RETURN_NOT_OK(schema.AddColumn(Column{"type", ColumnType::kText, false}));
    RETURN_NOT_OK(
        schema.AddColumn(Column{"value", ColumnType::kDouble, false}));
    ASSIGN_OR_RETURN(table, catalog_.CreateTable(
                                std::string(kMetricsTableName),
                                std::move(schema)));
  }
  RETURN_NOT_OK(ClearTableRows(table));
  for (const metrics::Sample& s : metrics::MetricsRegistry::Global()
                                      ->Snapshot()) {
    DatumRow row;
    row.push_back(Datum::Text(s.name));
    row.push_back(Datum::Text(s.type));
    row.push_back(Datum::Double(s.value));
    RETURN_NOT_OK(table->AppendRow(row).status());
  }
  return Status::OK();
}

Status Database::RefreshQueryLogTable() {
  std::lock_guard lock(system_table_mu_);
  Table* table = nullptr;
  Result<Table*> existing = catalog_.GetTable(std::string(kQueryLogTableName));
  if (existing.ok()) {
    table = *existing;
  } else {
    Schema schema;
    auto add_int = [&schema](const char* name) {
      return schema.AddColumn(Column{name, ColumnType::kInt, false});
    };
    RETURN_NOT_OK(add_int("ordinal"));
    RETURN_NOT_OK(
        schema.AddColumn(Column{"fingerprint", ColumnType::kText, false}));
    RETURN_NOT_OK(add_int("fingerprint_hash"));
    RETURN_NOT_OK(add_int("plan_hash"));
    RETURN_NOT_OK(add_int("trace_id"));
    RETURN_NOT_OK(add_int("parse_ns"));
    RETURN_NOT_OK(add_int("rewrite_ns"));
    RETURN_NOT_OK(add_int("plan_ns"));
    RETURN_NOT_OK(add_int("exec_ns"));
    RETURN_NOT_OK(add_int("total_ns"));
    RETURN_NOT_OK(add_int("rows_in"));
    RETURN_NOT_OK(add_int("rows_out"));
    RETURN_NOT_OK(add_int("batches"));
    RETURN_NOT_OK(add_int("zone_skips"));
    RETURN_NOT_OK(add_int("replans"));
    RETURN_NOT_OK(
        schema.AddColumn(Column{"status", ColumnType::kText, false}));
    RETURN_NOT_OK(schema.AddColumn(Column{"error", ColumnType::kText, false}));
    ASSIGN_OR_RETURN(table, catalog_.CreateTable(
                                std::string(kQueryLogTableName),
                                std::move(schema)));
  }
  RETURN_NOT_OK(ClearTableRows(table));
  // uint64 hashes are stored as the bit-equivalent signed value; joins and
  // equality comparisons against other logged hashes stay exact.
  auto as_int = [](uint64_t v) {
    return Datum::Int(static_cast<int64_t>(v));
  };
  for (const qlog::QueryRecord& r : qlog::QueryLog::Global()->Records()) {
    DatumRow row;
    row.push_back(as_int(r.ordinal));
    row.push_back(Datum::Text(r.fingerprint));
    row.push_back(as_int(r.fingerprint_hash));
    row.push_back(as_int(r.plan_hash));
    row.push_back(as_int(r.trace_id));
    row.push_back(as_int(r.parse_ns));
    row.push_back(as_int(r.rewrite_ns));
    row.push_back(as_int(r.plan_ns));
    row.push_back(as_int(r.exec_ns));
    row.push_back(as_int(r.total_ns));
    row.push_back(as_int(r.rows_in));
    row.push_back(as_int(r.rows_out));
    row.push_back(as_int(r.batches));
    row.push_back(as_int(r.zone_skips));
    row.push_back(as_int(r.replans));
    row.push_back(Datum::Text(r.status));
    row.push_back(Datum::Text(r.error));
    RETURN_NOT_OK(table->AppendRow(row).status());
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  if (stmt.table == kMetricsTableName || stmt.table == kQueryLogTableName ||
      stmt.table == kAttributeStatsTableName) {
    return Status::InvalidArgument(stmt.table,
                                   " is a reserved system table name");
  }
  Schema schema;
  for (const Column& col : stmt.columns) {
    RETURN_NOT_OK(schema.AddColumn(col));
  }
  RETURN_NOT_OK(catalog_.CreateTable(stmt.table, std::move(schema)).status());
  return CountResult(0);
}

Result<QueryResult> Database::ExecuteInsert(const InsertStatement& stmt) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  const Schema schema = table->SchemaSnapshot();
  std::vector<size_t> live = schema.LiveSlots();
  // Target slots, in VALUES order.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    targets = live;
  } else {
    for (const std::string& name : stmt.columns) {
      std::optional<size_t> slot = schema.FindColumn(name);
      if (!slot.has_value()) {
        return Status::NotFound("column ", name, " does not exist");
      }
      targets.push_back(*slot);
    }
  }
  int64_t inserted = 0;
  for (const std::vector<ExprPtr>& value_row : stmt.values) {
    if (value_row.size() != targets.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    DatumRow row(schema.num_slots());
    for (size_t i = 0; i < targets.size(); ++i) {
      ASSIGN_OR_RETURN(Datum v, EvalExpr(*value_row[i], {}, &udfs_));
      row[targets[i]] =
          CoerceForColumn(std::move(v), schema.columns()[targets[i]].type);
    }
    RETURN_NOT_OK(table->AppendRow(row).status());
    ++inserted;
  }
  return CountResult(inserted);
}

Result<QueryResult> Database::ExecuteUpdate(const UpdateStatement& stmt) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  ExecSchema scan_schema;
  std::vector<size_t> live_slots;
  ScanSchemaFor(*table, stmt.table, &scan_schema, &live_slots);

  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    RETURN_NOT_OK(BindExpr(where.get(), scan_schema, {stmt.table}));
  }
  struct BoundAssignment {
    size_t slot;  // physical slot in the table schema
    ExprPtr expr;
  };
  std::vector<BoundAssignment> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    std::optional<size_t> slot = table->FindColumnLatched(column);
    if (!slot.has_value()) {
      return Status::NotFound("column ", column, " does not exist");
    }
    BoundAssignment bound;
    bound.slot = *slot;
    bound.expr = expr->Clone();
    RETURN_NOT_OK(BindExpr(bound.expr.get(), scan_schema, {stmt.table}));
    assignments.push_back(std::move(bound));
  }

  // Snapshot the schema for decoding (the table latch serializes row-level
  // access; the snapshot keeps decoding consistent if DDL lands mid-scan).
  Schema schema_snapshot = table->SchemaSnapshot();

  // Projection pushdown for the predicate pass: decode only the slots the
  // WHERE clause references; full rows are read for matches only.
  std::vector<size_t> where_slots;
  if (where != nullptr) {
    std::vector<const Expr*> refs;
    where->CollectColumnRefs(&refs);
    for (const Expr* ref : refs) {
      if (ref->bound_slot >= 0 &&
          static_cast<size_t>(ref->bound_slot) < live_slots.size()) {
        where_slots.push_back(live_slots[ref->bound_slot]);
      }
    }
    std::sort(where_slots.begin(), where_slots.end());
    where_slots.erase(std::unique(where_slots.begin(), where_slots.end()),
                      where_slots.end());
  }

  uint64_t end = table->RowSlotCount();
  int64_t updated = 0;
  for (uint64_t rid = 0; rid < end; ++rid) {
    if (where != nullptr) {
      Result<DatumRow> partial = table->ReadRowSlots(rid, where_slots);
      if (!partial.ok()) continue;  // deleted row
      DatumRow visible;
      visible.reserve(live_slots.size() + 1);
      for (size_t slot : live_slots) {
        visible.push_back(std::move((*partial)[slot]));
      }
      visible.push_back(Datum::Int(static_cast<int64_t>(rid)));
      ASSIGN_OR_RETURN(bool match, EvalPredicate(*where, visible, &udfs_));
      if (!match) continue;
    } else if (!table->IsLive(rid)) {
      continue;
    }
    ASSIGN_OR_RETURN(DatumRow full, table->ReadRow(rid));
    DatumRow visible;
    visible.reserve(live_slots.size() + 1);
    for (size_t slot : live_slots) visible.push_back(full[slot]);
    visible.push_back(Datum::Int(static_cast<int64_t>(rid)));
    for (const BoundAssignment& a : assignments) {
      ASSIGN_OR_RETURN(Datum v, EvalExpr(*a.expr, visible, &udfs_));
      full[a.slot] = CoerceForColumn(
          std::move(v), schema_snapshot.columns()[a.slot].type);
    }
    RETURN_NOT_OK(table->UpdateRow(rid, full));
    ++updated;
  }
  return CountResult(updated);
}

Result<QueryResult> Database::ExecuteDelete(const DeleteStatement& stmt) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  ExecSchema scan_schema;
  std::vector<size_t> live_slots;
  ScanSchemaFor(*table, stmt.table, &scan_schema, &live_slots);
  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    RETURN_NOT_OK(BindExpr(where.get(), scan_schema, {stmt.table}));
  }
  uint64_t end = table->RowSlotCount();
  int64_t deleted = 0;
  for (uint64_t rid = 0; rid < end; ++rid) {
    if (!table->IsLive(rid)) continue;
    if (where != nullptr) {
      ASSIGN_OR_RETURN(DatumRow full, table->ReadRow(rid));
      DatumRow visible;
      visible.reserve(live_slots.size() + 1);
      for (size_t slot : live_slots) visible.push_back(std::move(full[slot]));
      visible.push_back(Datum::Int(static_cast<int64_t>(rid)));
      ASSIGN_OR_RETURN(bool match, EvalPredicate(*where, visible, &udfs_));
      if (!match) continue;
    }
    RETURN_NOT_OK(table->DeleteRow(rid));
    ++deleted;
  }
  return CountResult(deleted);
}

}  // namespace sinew::engine
