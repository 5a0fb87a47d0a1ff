#include "oracle.h"

#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>

#include "json/json.h"

namespace perfbench {

using sinew::Value;

namespace {

std::string SparseKey(int k) {
  char name[16];
  std::snprintf(name, sizeof(name), "sparse_%03d", k);
  return name;
}

const std::string& StringOr(const Value* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->string_value() : fallback;
}

int64_t IntOr(const Value* v, int64_t fallback) {
  return v != nullptr && v->is_int() ? v->int_value() : fallback;
}

/// Integer view of a numeric result cell; NULL and non-numeric cells are 0.
int64_t CellInt(const sinew::engine::Datum& d) {
  if (d.is_int()) return d.int_value();
  if (d.is_double()) return static_cast<int64_t>(d.double_value());
  return 0;
}

bool StarMatches(const Request& req, const DocFacts& doc) {
  switch (req.q) {
    case 5:
      return doc.str1 == req.text;
    case 6:
      return doc.num >= req.lo && doc.num <= req.hi;
    case 7:
      return doc.dyn1_is_int && doc.dyn1 >= req.lo && doc.dyn1 <= req.hi;
    case 8:
      for (const std::string& e : doc.arr) {
        if (e == req.text) return true;
      }
      return false;
    case 9:
      return doc.sparse_group == req.key_a / 10 &&
             doc.sparse[req.key_a % 10] == req.text;
    default:
      return false;
  }
}

bool HasSparse(const DocFacts& doc, int key) {
  return doc.sparse_group == key / 10;
}

// Top-level key names of the generated documents, interned.
std::vector<std::string>& KeyNames() {
  static std::vector<std::string> names;
  return names;
}

uint16_t KeyId(const std::string& name) {
  static std::unordered_map<std::string, uint16_t> ids;
  auto [it, added] =
      ids.emplace(name, static_cast<uint16_t>(KeyNames().size()));
  if (added) KeyNames().push_back(name);
  return it->second;
}

uint64_t Fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The hash of one non-null cell: column name and a canonical rendering of
// the value, tagged with its kind. Objects and arrays render as compact JSON.
uint64_t CellHash(std::string_view column, char kind, std::string_view text) {
  uint64_t h = Fnv1a(column);
  const char sep[2] = {'\0', kind};
  h = Fnv1a(std::string_view(sep, 2), h);
  return Fnv1a(text, h);
}

uint64_t ValueCellHash(const std::string& key, const Value& v) {
  if (v.is_string()) return CellHash(key, 's', v.string_value());
  if (v.is_int()) return CellHash(key, 'i', std::to_string(v.int_value()));
  if (v.is_bool()) return CellHash(key, 'b', v.bool_value() ? "1" : "0");
  if (v.is_double()) {
    return CellHash(key, 'd', std::to_string(v.double_value()));
  }
  return CellHash(key, 'j', sinew::json::Write(v));
}

// Sinew's result cell in the same rendering; text that holds a JSON object
// or array is re-rendered compactly.
uint64_t DatumCellHash(const std::string& column,
                       const sinew::engine::Datum& d) {
  if (d.is_int()) return CellHash(column, 'i', std::to_string(d.int_value()));
  if (d.is_bool()) return CellHash(column, 'b', d.bool_value() ? "1" : "0");
  if (d.is_double()) {
    return CellHash(column, 'd', std::to_string(d.double_value()));
  }
  const std::string text = d.ToString();
  if (d.is_text() && !text.empty() && (text[0] == '[' || text[0] == '{')) {
    auto parsed = sinew::json::Parse(text);
    if (parsed.ok()) return CellHash(column, 'j', sinew::json::Write(*parsed));
  }
  return CellHash(column, d.is_text() ? 's' : 'x', text);
}

int64_t AsInt64(uint64_t v) {
  int64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

}  // namespace

DocFacts FactsOf(const Value& doc) {
  static const std::string kEmpty;
  DocFacts f;
  f.str1 = StringOr(doc.Find("str1"), kEmpty);
  f.num = IntOr(doc.Find("num"), 0);
  if (const Value* nested = doc.Find("nested_obj"); nested != nullptr) {
    f.nested_str = StringOr(nested->Find("str"), kEmpty);
    f.nested_num = IntOr(nested->Find("num"), 0);
  }
  if (const Value* dyn1 = doc.Find("dyn1"); dyn1 != nullptr && dyn1->is_int()) {
    f.dyn1_is_int = true;
    f.dyn1 = dyn1->int_value();
  }
  if (const Value* arr = doc.Find("nested_arr");
      arr != nullptr && arr->is_array()) {
    for (const Value& e : arr->array()) f.arr.push_back(StringOr(&e, kEmpty));
  }
  for (const auto& [key, value] : doc.members()) {
    if (key.rfind("sparse_", 0) != 0) continue;
    const int k = std::stoi(key.substr(7));
    f.sparse_group = k / 10;
    f.sparse[k % 10] = StringOr(&value, kEmpty);
  }
  f.thousandth = IntOr(doc.Find("thousandth"), 0);
  for (const auto& [key, value] : doc.members()) {
    f.keys.push_back(KeyId(key));
    if (value.is_null()) continue;
    f.cells += 1;
    f.cell_hash += ValueCellHash(key, value);
  }
  return f;
}

ReqClass ClassOf(int q) {
  if (q <= 4) return ReqClass::kProj;
  if (q <= 9) return ReqClass::kStar;
  return q == 10 ? ReqClass::kAgg : ReqClass::kJoin;
}

const char* ClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kStar:
      return "star";
    case ReqClass::kProj:
      return "proj";
    case ReqClass::kAgg:
      return "agg";
    case ReqClass::kJoin:
      return "join";
  }
  return "?";
}

Request MakeRequest(int q, const std::vector<DocFacts>& docs, uint64_t visible,
                    int64_t num_domain, sinew::Rng* rng) {
  Request r;
  r.q = q;
  auto range = [&](int64_t width) {
    r.lo = rng->UniformRange(0, num_domain - width);
    r.hi = r.lo + width;
  };
  const std::string from = " FROM nobench_main";
  switch (q) {
    case 1:
      r.sql = "SELECT str1, num" + from;
      break;
    case 2:
      r.sql = "SELECT \"nested_obj.str\", \"nested_obj.num\"" + from;
      break;
    case 3:
    case 4: {
      // Q3: two keys of one sparse group (they co-occur); Q4: keys of two
      // different groups (never co-occur).
      const int group = static_cast<int>(rng->Uniform(100));
      r.key_a = group * 10;
      r.key_b = q == 3 ? group * 10 + 9 : ((group + 11) % 100) * 10;
      r.sql = "SELECT " + SparseKey(r.key_a) + ", " + SparseKey(r.key_b) + from;
      break;
    }
    case 5:
      r.text = docs[rng->Uniform(visible)].str1;
      r.sql = "SELECT *" + from + " WHERE str1 = '" + r.text + "'";
      break;
    case 6:
      range(std::max<int64_t>(num_domain / 1000, 1));
      r.sql = "SELECT *" + from + " WHERE num BETWEEN " + std::to_string(r.lo) +
              " AND " + std::to_string(r.hi);
      break;
    case 7:
      // dyn1 integers are uniform in [0, 1000): a 20-wide range is ~1% of
      // the documents.
      r.lo = rng->UniformRange(0, 980);
      r.hi = r.lo + 19;
      r.sql = "SELECT *" + from + " WHERE dyn1 BETWEEN " +
              std::to_string(r.lo) + " AND " + std::to_string(r.hi);
      break;
    case 8: {
      const DocFacts* doc = &docs[rng->Uniform(visible)];
      while (doc->arr.empty()) doc = &docs[rng->Uniform(visible)];
      r.text = doc->arr[rng->Uniform(doc->arr.size())];
      r.sql = "SELECT *" + from + " WHERE array_contains(nested_arr, '" +
              r.text + "')";
      break;
    }
    case 9: {
      // Any of the 1000 sparse keys; the value is taken from a document of
      // the key's group so the lookup returns at least one row.
      r.key_a = static_cast<int>(rng->Uniform(1000));
      const uint64_t group = static_cast<uint64_t>(r.key_a / 10);
      const uint64_t per_group = (visible - group + 99) / 100;
      const DocFacts& doc = docs[group + 100 * rng->Uniform(per_group)];
      r.text = doc.sparse[r.key_a % 10];
      r.sql = "SELECT *" + from + " WHERE " + SparseKey(r.key_a) + " = '" +
              r.text + "'";
      break;
    }
    case 10:
      range(std::max<int64_t>(num_domain / 10, 1));
      r.sql = "SELECT thousandth, COUNT(*)" + from + " WHERE num BETWEEN " +
              std::to_string(r.lo) + " AND " + std::to_string(r.hi) +
              " GROUP BY thousandth";
      break;
    case 11:
      range(std::max<int64_t>(num_domain / 1000, 1));
      r.sql =
          "SELECT t1.num, t1.\"nested_obj.str\", t2.num FROM nobench_main t1, "
          "nobench_main t2 WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num "
          "BETWEEN " +
          std::to_string(r.lo) + " AND " + std::to_string(r.hi);
      break;
  }
  return r;
}

Digest Expected(const Request& req, const std::vector<DocFacts>& docs,
                uint64_t visible) {
  Digest d{};
  const int64_t n = static_cast<int64_t>(visible);
  switch (req.q) {
    case 1:
    case 2:
      d[0] = n;
      for (uint64_t i = 0; i < visible; ++i) {
        d[1] += req.q == 1 ? docs[i].num : docs[i].nested_num;
        d[2] += !(req.q == 1 ? docs[i].str1 : docs[i].nested_str).empty();
      }
      break;
    case 3:
    case 4:
      d[0] = n;
      for (uint64_t i = 0; i < visible; ++i) {
        d[1] += HasSparse(docs[i], req.key_a);
        d[2] += HasSparse(docs[i], req.key_b);
      }
      break;
    case 10: {
      std::set<int64_t> groups;
      for (uint64_t i = 0; i < visible; ++i) {
        const DocFacts& doc = docs[i];
        if (doc.num < req.lo || doc.num > req.hi) continue;
        groups.insert(doc.thousandth);
        d[1] += 1;
        d[2] += doc.thousandth;
      }
      d[0] = static_cast<int64_t>(groups.size());
      break;
    }
    case 11: {
      struct Side {
        int64_t count = 0, num_sum = 0;
      };
      std::unordered_map<std::string, Side> by_str1;
      for (uint64_t i = 0; i < visible; ++i) {
        Side& s = by_str1[docs[i].str1];
        s.count += 1;
        s.num_sum += docs[i].num;
      }
      for (uint64_t i = 0; i < visible; ++i) {
        const DocFacts& t1 = docs[i];
        if (t1.num < req.lo || t1.num > req.hi) continue;
        auto it = by_str1.find(t1.nested_str);
        if (it == by_str1.end()) continue;
        d[0] += it->second.count;
        d[1] += it->second.count * t1.num;
        d[2] += it->second.num_sum;
      }
      break;
    }
    default: {  // SELECT * lookups
      // Rows, non-null cells, the sum of their cell hashes, then the column
      // count and the sum of the column names' hashes. The columns are the
      // top-level keys of every document loaded so far.
      uint64_t cell_hash = 0;
      std::vector<bool> seen(KeyNames().size(), false);
      for (uint64_t i = 0; i < visible; ++i) {
        for (uint16_t k : docs[i].keys) seen[k] = true;
        if (!StarMatches(req, docs[i])) continue;
        d[0] += 1;
        d[1] += docs[i].cells;
        cell_hash += docs[i].cell_hash;
      }
      uint64_t name_hash = 0;
      for (size_t k = 0; k < seen.size(); ++k) {
        if (!seen[k]) continue;
        d[3] += 1;
        name_hash += Fnv1a(KeyNames()[k]);
      }
      d[2] = AsInt64(cell_hash);
      d[4] = AsInt64(name_hash);
      break;
    }
  }
  return d;
}

Digest Observed(const Request& req, const sinew::engine::QueryResult& result,
                bool* ok) {
  Digest d{};
  d[0] = static_cast<int64_t>(result.rows.size());
  *ok = true;
  const std::vector<std::string>& names = result.column_names;
  if (ClassOf(req.q) == ReqClass::kStar) {
    uint64_t cell_hash = 0, name_hash = 0;
    for (const sinew::engine::DatumRow& row : result.rows) {
      if (row.size() != names.size()) {
        *ok = false;
        return d;
      }
      for (size_t c = 0; c < row.size(); ++c) {
        if (row[c].is_null()) continue;
        d[1] += 1;
        cell_hash += DatumCellHash(names[c], row[c]);
      }
    }
    for (const std::string& name : names) name_hash += Fnv1a(name);
    d[2] = AsInt64(cell_hash);
    d[3] = static_cast<int64_t>(names.size());
    d[4] = AsInt64(name_hash);
    return d;
  }
  const size_t expected_cols = req.q <= 4 ? 2 : req.q == 10 ? 2 : 3;
  if (names.size() != expected_cols) {
    *ok = false;
    return d;
  }
  for (const sinew::engine::DatumRow& row : result.rows) {
    switch (req.q) {
      case 1:
      case 2:
        d[1] += CellInt(row[1]);
        d[2] += !row[0].is_null();
        break;
      case 3:
      case 4:
        d[1] += !row[0].is_null();
        d[2] += !row[1].is_null();
        break;
      case 10:
        d[1] += CellInt(row[1]);
        d[2] += CellInt(row[0]) * CellInt(row[1]);
        break;
      default:  // 11
        d[1] += CellInt(row[0]);
        d[2] += CellInt(row[2]);
        break;
    }
  }
  return d;
}

std::string DigestString(const Digest& d) {
  std::string out = "[";
  for (size_t i = 0; i < d.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(d[i]);
  }
  return out + "]";
}

}  // namespace perfbench
