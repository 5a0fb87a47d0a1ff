// Request generation and the answer oracle of the Sinew benchmark.
//
// Every request is a NoBench query shape (src/workloads/nobench/runners.cc
// numbers them Q1..Q11) with literals drawn from the workload seed. The
// oracle is independent of Sinew: it answers each request from compact facts
// pulled out of the generated documents, and compares a small digest of the
// answer with the same digest taken from Sinew's result. For projections,
// aggregation and the join the digest is the row count plus column sums or
// non-null counts; for SELECT * lookups it covers the whole row: the column
// count and set, the number of non-null cells, and a hash of every cell.

#ifndef SINEW_PERFBENCH_ORACLE_H_
#define SINEW_PERFBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "engine/exec.h"

namespace perfbench {

/// The attributes of one generated NoBench document the oracle needs.
struct DocFacts {
  std::string str1;
  int64_t num = 0;
  std::string nested_str;
  int64_t nested_num = 0;
  bool dyn1_is_int = false;
  int64_t dyn1 = 0;
  std::vector<std::string> arr;
  int sparse_group = 0;                  // keys sparse_{10g} .. sparse_{10g+9}
  std::array<std::string, 10> sparse{};  // their values
  int64_t thousandth = 0;
  // The whole document as SELECT * should return it: its top-level keys
  // (ids into a name table shared by all documents), and the number and
  // order-independent hash of its (key, value) cells.
  std::vector<uint16_t> keys;
  int64_t cells = 0;
  uint64_t cell_hash = 0;
};

DocFacts FactsOf(const sinew::Value& doc);

/// Request classes, for reporting.
enum class ReqClass { kStar, kProj, kAgg, kJoin };
ReqClass ClassOf(int q);
const char* ClassName(ReqClass c);

struct Request {
  int q = 0;  // NoBench query number, 1..11
  std::string sql;
  std::string text;        // Q5 str1, Q8 array element, Q9 value
  int64_t lo = 0, hi = 0;  // Q6/Q7/Q10/Q11 range (inclusive)
  int key_a = 0, key_b = 0;  // sparse key numbers (Q3/Q4 columns, Q9 key)
};

/// A request of shape `q` with fresh literals. Literals are drawn so that
/// each equality/containment predicate hits at least one of docs[0, visible)
/// and ranges cover the selectivity NoBench specifies for the num domain
/// [0, num_domain).
Request MakeRequest(int q, const std::vector<DocFacts>& docs, uint64_t visible,
                    int64_t num_domain, sinew::Rng* rng);

/// Row count, then up to four figures that depend on the request class.
using Digest = std::array<int64_t, 5>;

/// The digest of the correct answer of `req` over docs[0, visible).
Digest Expected(const Request& req, const std::vector<DocFacts>& docs,
                uint64_t visible);

/// The same digest taken from Sinew's result. `ok` is false if the result
/// has an unexpected shape.
Digest Observed(const Request& req, const sinew::engine::QueryResult& result,
                bool* ok);

std::string DigestString(const Digest& d);

}  // namespace perfbench

#endif  // SINEW_PERFBENCH_ORACLE_H_
