// Sinew benchmark: runs one workload with one seed and prints its metrics as
// one JSON object on the last line of standard output.
//
//   sinew_perfbench --workload <lookup_hot|analytics_cold|ingest_mixed>
//                   --seed N --seconds S --trace 0|1 --dir DIR
//                   [--trace-out FILE]
//
// Steadiness comes from fixed work: every run executes an op list that is
// generated from the seed before any timer starts (its length scales with
// --seconds, never with elapsed time), issued by this one thread in a fixed
// order against Sinew at its defaults (DurableDb over SinewDb: parallelism 1,
// batch size 256, bytecode and typed kernels on, a WAL fsync on every commit,
// 8 MB memtable, no background maintenance). Timers cover only the calls
// into Sinew; the answer of every request is checked afterwards against an
// oracle computed from the generated documents (oracle.h).
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same op list
// twice on two identical set-ups: once untraced (the overhead baseline) and
// once split into the public seams of each layer,
//   read:   engine::ParseSql -> QueryRewriter::Rewrite ->
//           Database::PlanStatement -> engine::ExecutePlan
//   commit: json::ParseLines -> DurableDb::LoadDocuments
// with one span per seam call under a request span, and reports per-layer
// metrics (times, and counter deltas of metrics::GetCounter around the
// calls) plus the tracing overhead.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "engine/parser.h"
#include "json/json.h"
#include "oracle.h"
#include "sinew/durable_db.h"
#include "spans.h"
#include "workloads/nobench/generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sinew::DurableDb;
using sinew::Status;

constexpr const char* kTable = "nobench_main";

// ------------------------------------------------------------- workloads

// Sizes are for --seconds 10 on a 4-core x86 machine; the op counts scale
// linearly with --seconds.
struct WorkloadSpec {
  const char* name;
  uint64_t setup_docs;   // committed during set-up, in setup_batch batches
  uint64_t setup_batch;
  bool flush_setup;      // Flush() at the end of set-up: the data is cold
  uint64_t ingest_docs;  // committed in the timed phase, in ingest_batch
  uint64_t ingest_batch;
  uint64_t read_every;   // ingest: run one read cycle after every Nth commit
  uint64_t reads;        // read-only workloads: timed requests
  std::vector<int> cycle;  // NoBench query shapes, issued round-robin
  int setups;              // set-ups per untraced run; setup_s is the median
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Selective SELECT * lookups over hot, row-form data: rewrite (the
      // ~1000-attribute universal relation) and planning dominate.
      {"lookup_hot", 8000, 1000, false, 0, 0, 0, 400, {5, 6, 7, 8, 9}, 9},
      // Projections, aggregation and a self-join over cold data that a
      // flush analyzed, materialized and shredded into strips: execution
      // dominates.
      {"analytics_cold", 32000, 1000, true, 0, 0, 0, 420,
       {1, 2, 3, 4, 10, 11}, 3},
      // Small commits with inline flushes, and reads of the growing tail.
      {"ingest_mixed", 16000, 1000, true, 32000, 100, 6, 0, {5, 10}, 5},
  };
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

// ------------------------------------------------------------ op list

struct Op {
  bool commit = false;
  size_t index = 0;  // into Inputs::ingest_batches or Inputs::requests
};

struct Inputs {
  std::vector<DocFacts> facts;
  std::vector<std::string> setup_batches;   // JSON lines
  std::vector<std::string> ingest_batches;  // JSON lines
  uint64_t setup_bytes = 0, ingest_bytes = 0;
  std::vector<Request> warmup;    // one per query shape, untimed
  std::vector<Request> requests;  // timed reads
  // Traced runs only: the untraced overhead baseline's reads, of the same
  // shapes and at the same points as `requests` but with other literals, so
  // the traced pass does not repeat SQL the database has already run.
  std::vector<Request> baseline_requests;
  std::vector<uint64_t> visible;  // documents committed when request i runs
  std::vector<Op> ops;
};

std::string RenderBatch(const std::vector<sinew::Value>& docs, uint64_t begin,
                        uint64_t end) {
  std::string text;
  for (uint64_t i = begin; i < end; ++i) {
    text += sinew::json::Write(docs[i]);
    text += '\n';
  }
  return text;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Args& args) {
  const double scale = args.seconds / 10.0;
  Inputs in;
  const uint64_t batch = std::max<uint64_t>(spec.ingest_batch, 1);
  const uint64_t commits =
      static_cast<uint64_t>(std::llround(spec.ingest_docs * scale / batch));
  const uint64_t ingest_docs = commits * spec.ingest_batch;
  const uint64_t total = spec.setup_docs + ingest_docs;
  sinew::workloads::nobench::Config config;
  config.num_records = total;
  config.seed = args.seed;
  const std::vector<sinew::Value> docs =
      sinew::workloads::nobench::Generate(config);
  in.facts.reserve(total);
  for (const sinew::Value& doc : docs) in.facts.push_back(FactsOf(doc));
  for (uint64_t b = 0; b < spec.setup_docs; b += spec.setup_batch) {
    in.setup_batches.push_back(RenderBatch(
        docs, b, std::min(spec.setup_docs, b + spec.setup_batch)));
    in.setup_bytes += in.setup_batches.back().size();
  }

  sinew::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  sinew::Rng baseline_rng(args.seed * 0x9E3779B97F4A7C15ull + 0xBA5E);
  const int64_t domain = static_cast<int64_t>(total);
  for (size_t i = 0; i < spec.cycle.size(); ++i) {
    const int q = spec.cycle[i];
    if (std::find(spec.cycle.begin(), spec.cycle.begin() + i, q) !=
        spec.cycle.begin() + i) {
      continue;
    }
    in.warmup.push_back(
        MakeRequest(q, in.facts, spec.setup_docs, domain, &rng));
  }
  auto add_read_cycle = [&](uint64_t visible) {
    for (int q : spec.cycle) {
      in.ops.push_back(Op{false, in.requests.size()});
      in.requests.push_back(MakeRequest(q, in.facts, visible, domain, &rng));
      if (args.trace) {
        in.baseline_requests.push_back(
            MakeRequest(q, in.facts, visible, domain, &baseline_rng));
      }
      in.visible.push_back(visible);
    }
  };
  if (commits == 0) {
    const auto scaled = static_cast<uint64_t>(std::llround(spec.reads * scale));
    const uint64_t reads = std::max<uint64_t>(spec.cycle.size(), scaled);
    const uint64_t cycles = (reads + spec.cycle.size() - 1) / spec.cycle.size();
    for (uint64_t c = 0; c < cycles; ++c) add_read_cycle(spec.setup_docs);
  }
  for (uint64_t c = 0; c < commits; ++c) {
    const uint64_t begin = spec.setup_docs + c * batch;
    in.ingest_batches.push_back(RenderBatch(docs, begin, begin + batch));
    in.ingest_bytes += in.ingest_batches.back().size();
    in.ops.push_back(Op{true, c});
    if ((c + 1) % spec.read_every == 0) add_read_cycle(begin + batch);
  }
  return in;
}

// ------------------------------------------------------------ measuring

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The reference kernel, timed right before every timed op.
//
// The hosts this benchmark runs on share memory bandwidth and caches with
// other tenants, and Sinew's request latency drifts with that contention by
// up to 2x over tens of seconds, while pure ALU speed stays flat. A kernel
// with Sinew's own mix of memory-bound work -- hash-table inserts and probes
// at random addresses, formatting numbers as strings, and a sort of those
// strings -- drifts the same way. The end-to-end latencies are therefore also
// reported relative to the kernel's duration around each op (unit "ref", see
// Runner::Normalize), beside the raw time.
//
// The kernel must not move with the program it normalizes, so it does fixed
// work on fixed inputs in buffers it allocates once, before set-up: no
// malloc while it runs (Sinew's heap state cannot reach it), and a 2 MB hash
// table, larger than the L2 cache, so it reads from the shared cache whatever
// the op before it left in the private ones.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : slots_(kSlots), text_(kKeys * kKeyBytes), order_(kKeys) {}

  double RunMs() {
    const uint64_t t0 = sinew::metrics::NowNanos();
    ++epoch_;  // empties the table without touching it
    sinew::Rng rng(0x5EF);
    for (uint32_t i = 0; i < kKeys; ++i) {
      const uint64_t k = rng.Next();
      Slot* slot = Find(k);
      *slot = Slot{k, epoch_, i};
      char* text = &text_[i * kKeyBytes];
      const auto end = std::to_chars(text + 1, text + kKeyBytes, k).ptr;
      text[0] = static_cast<char>(end - text - 1);
      order_[i] = i;
    }
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      const char* x = &text_[a * kKeyBytes];
      const char* y = &text_[b * kKeyBytes];
      return std::string_view(x + 1, static_cast<size_t>(x[0])) <
             std::string_view(y + 1, static_cast<size_t>(y[0]));
    });
    uint64_t h = 0;
    for (uint32_t i : order_) {
      h += (Find(rng.Next())->epoch == epoch_) + text_[i * kKeyBytes];
    }
    sink_ = sink_ + h;
    return Millis(sinew::metrics::NowNanos() - t0);
  }

 private:
  static constexpr uint32_t kKeys = 8000;
  static constexpr size_t kSlots = size_t{1} << 17;  // 16 B each: 2 MB
  static constexpr size_t kKeyBytes = 24;            // length byte + digits

  struct Slot {
    uint64_t key = 0;
    uint32_t epoch = 0;
    uint32_t value = 0;
  };

  // The slot holding `key`, or the empty slot where it would go (linear
  // probing; the table is never more than 7% full).
  Slot* Find(uint64_t key) {
    size_t i = (key * 0x9E3779B97F4A7C15ull) >> (64 - 17);
    while (slots_[i].epoch == epoch_ && slots_[i].key != key) {
      i = (i + 1) & (kSlots - 1);
    }
    return &slots_[i];
  }

  std::vector<Slot> slots_;
  std::vector<char> text_;
  std::vector<uint32_t> order_;
  uint32_t epoch_ = 0;
  volatile uint64_t sink_ = 0;
};

// Process-level figures from /proc.
uint64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}
uint64_t WrittenChars() { return ProcField("/proc/self/io", "wchar:"); }
uint64_t RssKb() { return ProcField("/proc/self/status", "VmRSS:"); }
uint64_t PeakRssKb() { return ProcField("/proc/self/status", "VmHWM:"); }

// Returns freed heap to the system and restarts the peak-RSS count (VmHWM)
// from the current RSS, which it returns: memory in use from here on is
// measured against this baseline.
uint64_t ResetPeakRssKb() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return RssKb();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// The engine counters the per-layer metrics are deltas of, plus the sum of
// the reservoir.attrs_per_decode histogram as "reservoir.attrs".
class Counters {
 public:
  static constexpr const char* kNames[] = {
      "rewriter.virtual_refs_total",
      "rewriter.physical_refs_total",
      "bytecode.programs_total",
      "reservoir.decodes",
      "extract.columnar_hits",
      "eval.typed_lanes",
      "eval.boxed_lanes",
      "strips.skipped_by_zonemap",
      "wal.fsyncs_total",
      "loader.reservoir_bytes_total",
      "loader.load_ns_total",
      "persist.table_images_saved_total",
      "strips.written",
      "materializer.rows_backfilled_total",
      "env.bytes_written_total",
      "env.fsyncs_total",
      "reservoir.attrs",
  };
  static constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);

  static Counters Now() {
    static const std::vector<sinew::metrics::Counter*> counters = [] {
      std::vector<sinew::metrics::Counter*> v;
      for (size_t i = 0; i + 1 < kCount; ++i) {
        v.push_back(sinew::metrics::GetCounter(kNames[i]));
      }
      return v;
    }();
    static sinew::metrics::Histogram* attrs =
        sinew::metrics::GetHistogram("reservoir.attrs_per_decode");
    Counters c;
    for (size_t i = 0; i + 1 < kCount; ++i) c.v_[i] = counters[i]->value();
    c.v_[kCount - 1] = attrs->sum();
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    for (size_t i = 0; i < kCount; ++i) v_[i] += after.v_[i] - before.v_[i];
  }
  double Get(std::string_view name) const {
    for (size_t i = 0; i < kCount; ++i) {
      if (name == kNames[i]) return static_cast<double>(v_[i]);
    }
    std::cerr << "unknown counter " << name << "\n";
    std::abort();
  }

 private:
  uint64_t v_[kCount] = {};
};

struct Metric {
  double value;
  std::string unit;
};

// ------------------------------------------------------------ one database

// What one pass over the op list (or a set-up) observed.
struct PassResult {
  uint64_t setup_ns = 0;
  // Timed phase.
  uint64_t phase_ns = 0;            // sum of timed call durations
  std::vector<double> op_ms;        // per op
  std::vector<double> kernel_ms;    // reference kernel before each op, and
                                    // once after the last
  std::vector<double> read_ms;      // per read
  std::vector<size_t> read_op;      // op index of each read
  std::vector<int> read_q;          // query shape of each read
  std::vector<double> commit_ms;    // commits that did not flush
  std::vector<double> flush_ms;     // calls that flushed
  uint64_t flushes = 0;
  uint64_t stall_ns = 0;            // time in commits that flushed
  uint64_t commits = 0;
  uint64_t rows_out = 0;
  std::vector<Digest> observed;     // per request
  std::vector<bool> shape_ok;
  uint64_t errors = 0;         // failed calls, reads and commits
  uint64_t commit_errors = 0;  // failed commits
  std::vector<std::string> error_text;
  // Traced pass only.
  std::vector<double> parse_ms, rewrite_ms, plan_ms, execute_ms;
  std::vector<double> request_ms;  // request span
  std::vector<double> seams_ms;    // Rewrite + plan + execute
  // Latencies relative to the reference kernel (Normalize()).
  double phase_ref = 0;
  std::vector<double> read_ref, seams_ref;
  double json_parse_ms = 0;
  uint64_t json_docs = 0;
  std::vector<double> setup_commit_ms;
  double analyze_materialize_ms = 0;
  uint64_t setup_commits = 0;
  uint64_t root_ns = 0, seam_ns = 0;  // coverage of request spans by seams
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Inputs& in, SpanRecorder* spans,
         ReferenceKernel* kernel)
      : spec_(spec), in_(in), spans_(spans), kernel_(kernel) {}

  Status Open(const std::string& dir) {
    dir_ = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) return Status::IOError("cannot create ", dir, ": ", ec.message());
    auto db = DurableDb::Open(dir);
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    return Status::OK();
  }

  // Set-up: open, commit the set-up batches, analyze + materialize, and for
  // cold workloads flush (shred into strips + persist a generation image).
  Status Setup(const std::string& dir, bool traced, PassResult* out) {
    const uint64_t t0 = sinew::metrics::NowNanos();
    RETURN_NOT_OK(Open(dir));
    for (const std::string& batch : in_.setup_batches) {
      bool flushed = false;
      uint64_t load_ns = 0;
      RETURN_NOT_OK(Commit(batch, traced, out, &flushed, &load_ns));
      (flushed ? out->flush_ms : out->setup_commit_ms)
          .push_back(Millis(load_ns));
      ++out->setup_commits;
    }
    const uint64_t a0 = sinew::metrics::NowNanos();
    RETURN_NOT_OK(db_->db()->AnalyzeAndMaterialize(kTable));
    out->analyze_materialize_ms = Millis(sinew::metrics::NowNanos() - a0);
    if (spec_.flush_setup) {
      const uint64_t f0 = sinew::metrics::NowNanos();
      RETURN_NOT_OK(db_->Flush());
      out->flush_ms.push_back(Millis(sinew::metrics::NowNanos() - f0));
    }
    out->setup_ns = sinew::metrics::NowNanos() - t0;
    return Status::OK();
  }

  // Runs each query shape once, untimed.
  Status Warmup() {
    for (const Request& req : in_.warmup) {
      auto r = db_->Query(req.sql);
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  }

  // Runs the op list, with `requests` as its reads.
  void RunOps(const std::vector<Request>& requests, bool traced,
              PassResult* out) {
    out->observed.assign(requests.size(), Digest{});
    out->shape_ok.assign(requests.size(), false);
    for (const Op& op : in_.ops) {
      out->kernel_ms.push_back(kernel_->RunMs());
      if (op.commit) {
        bool flushed = false;
        uint64_t load_ns = 0;
        const uint64_t t0 = sinew::metrics::NowNanos();
        Status st = Commit(in_.ingest_batches[op.index], traced, out, &flushed,
                           &load_ns);
        const uint64_t dt = sinew::metrics::NowNanos() - t0;
        out->phase_ns += dt;
        out->op_ms.push_back(Millis(dt));
        ++out->commits;
        if (!st.ok()) {
          ++out->commit_errors;
          Fail(out, st.ToString());
          continue;
        }
        if (flushed) {
          ++out->flushes;
          out->stall_ns += dt;
          out->flush_ms.push_back(Millis(load_ns));
        } else {
          out->commit_ms.push_back(Millis(load_ns));
        }
        continue;
      }
      const Request& req = requests[op.index];
      std::optional<sinew::engine::QueryResult> result;
      const uint64_t t0 = sinew::metrics::NowNanos();
      Status st =
          traced ? TracedRead(req, out, &result) : Read(req, &result);
      const uint64_t dt = sinew::metrics::NowNanos() - t0;
      out->phase_ns += dt;
      out->read_op.push_back(out->op_ms.size());
      out->read_q.push_back(req.q);
      out->op_ms.push_back(Millis(dt));
      out->read_ms.push_back(Millis(dt));
      if (!st.ok()) {
        Fail(out, req.sql + ": " + st.ToString());
        continue;
      }
      bool ok = false;
      out->observed[op.index] = Observed(req, *result, &ok);
      out->shape_ok[op.index] = ok;
      out->rows_out += result->rows.size();
    }
    out->kernel_ms.push_back(kernel_->RunMs());
    Normalize(out);
  }

  DurableDb* db() { return db_.get(); }
  const std::string& dir() const { return dir_; }

  Status Close() {
    if (db_ == nullptr) return Status::OK();
    Status st = db_->Close();
    db_.reset();
    return st;
  }

  Counters request_counters;  // traced reads: counter deltas

 private:
  static void Fail(PassResult* out, std::string text) {
    ++out->errors;
    if (out->error_text.size() < 5) out->error_text.push_back(std::move(text));
  }

  Status Read(const Request& req,
              std::optional<sinew::engine::QueryResult>* result) {
    auto r = db_->Query(req.sql);
    if (!r.ok()) return r.status();
    result->emplace(std::move(*r));
    return Status::OK();
  }

  // The same read through the layer seams, one span each.
  // Divides each op's latency by the reference kernel's median over the
  // samples around the op (three before it, three after), which follows
  // host drift on the scale of seconds while smoothing single-sample jitter;
  // averaging over samples after the op matters for long ops (flushes).
  static void Normalize(PassResult* out) {
    const size_t n = out->op_ms.size();
    std::vector<double> op_ref(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t lo = i >= 2 ? i - 2 : 0;
      const size_t hi = std::min(i + 4, out->kernel_ms.size());
      const std::vector<double> window(out->kernel_ms.begin() + lo,
                                       out->kernel_ms.begin() + hi);
      op_ref[i] = out->op_ms[i] / Median(window);
      out->phase_ref += op_ref[i];
    }
    for (size_t r = 0; r < out->read_op.size(); ++r) {
      const size_t i = out->read_op[r];
      out->read_ref.push_back(op_ref[i]);
      if (r < out->seams_ms.size()) {
        out->seams_ref.push_back(out->seams_ms[r] * op_ref[i] / out->op_ms[i]);
      }
    }
  }

  Status TracedRead(const Request& req, PassResult* out,
                    std::optional<sinew::engine::QueryResult>* result) {
    sinew::SinewDb* sdb = db_->db();
    const Counters before = Counters::Now();
    const size_t root = spans_->BeginRoot("request");
    size_t s = spans_->BeginChild(root, "engine.parse");
    auto parsed = sinew::engine::ParseSql(req.sql);
    const uint64_t parse_ns = spans_->End(s);
    if (!parsed.ok()) return parsed.status();
    s = spans_->BeginChild(root, "sinew.rewrite");
    auto stmt = sdb->rewriter().Rewrite(req.sql);
    const uint64_t rewrite_ns = spans_->End(s);
    if (!stmt.ok()) return stmt.status();
    s = spans_->BeginChild(root, "engine.plan");
    auto plan = sdb->engine()->PlanStatement(*stmt->select);
    const uint64_t plan_ns = spans_->End(s);
    if (!plan.ok()) return plan.status();
    s = spans_->BeginChild(root, "engine.execute");
    auto r = sinew::engine::ExecutePlan(**plan, sdb->engine()->udfs());
    const uint64_t exec_ns = spans_->End(s);
    const uint64_t root_ns = spans_->End(root);
    request_counters.AddDelta(before, Counters::Now());
    if (!r.ok()) return r.status();
    result->emplace(std::move(*r));
    out->parse_ms.push_back(Millis(parse_ns));
    out->rewrite_ms.push_back(
        Millis(rewrite_ns > parse_ns ? rewrite_ns - parse_ns : 0));
    out->plan_ms.push_back(Millis(plan_ns));
    out->execute_ms.push_back(Millis(exec_ns));
    const uint64_t seams = parse_ns + rewrite_ns + plan_ns + exec_ns;
    out->request_ms.push_back(Millis(root_ns));
    out->seams_ms.push_back(Millis(rewrite_ns + plan_ns + exec_ns));
    out->root_ns += root_ns;
    out->seam_ns += seams;
    return Status::OK();
  }

  // One commit of JSON lines. `load_ns` is the time of the call into the
  // durable store (LoadJsonLines untraced; LoadDocuments traced).
  Status Commit(const std::string& text, bool traced, PassResult* out,
                bool* flushed, uint64_t* load_ns) {
    const uint64_t flushes_before = db_->flush_count();
    if (!traced) {
      const uint64_t t0 = sinew::metrics::NowNanos();
      auto r = db_->LoadJsonLines(kTable, text);
      *load_ns = sinew::metrics::NowNanos() - t0;
      *flushed = db_->flush_count() != flushes_before;
      return r.status();
    }
    const size_t root = spans_->BeginRoot("commit");
    size_t s = spans_->BeginChild(root, "json.parse_lines");
    auto docs = sinew::json::ParseLines(text);
    const uint64_t parse_ns = spans_->End(s);
    if (!docs.ok()) {
      spans_->End(root);
      return docs.status();
    }
    s = spans_->BeginChild(root, "durable_db.load_documents");
    auto r = db_->LoadDocuments(kTable, *docs);
    *load_ns = spans_->End(s);
    const uint64_t root_ns = spans_->End(root);
    out->json_parse_ms += Millis(parse_ns);
    out->json_docs += docs->size();
    out->root_ns += root_ns;
    out->seam_ns += parse_ns + *load_ns;
    *flushed = db_->flush_count() != flushes_before;
    return r.status();
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  SpanRecorder* spans_;
  ReferenceKernel* kernel_;
  std::string dir_;
  std::unique_ptr<DurableDb> db_;
};

// ------------------------------------------------------------ main flow

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> counts;  // must repeat exactly per seed
  std::map<std::string, double> detail;  // informational, not compared
  std::vector<std::string> errors;
};

void Note(Report* rep, const std::string& text) {
  if (rep->errors.size() < 10) rep->errors.push_back(text);
}

// Compares every read's answer with the oracle; returns mismatches.
uint64_t CheckAnswers(const Inputs& in, const std::vector<Request>& requests,
                      const PassResult& pass, Report* rep) {
  uint64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i >= pass.observed.size()) break;
    const Digest want = Expected(requests[i], in.facts, in.visible[i]);
    if (!pass.shape_ok[i] || pass.observed[i] != want) {
      ++mismatches;
      Note(rep, "wrong answer for " + requests[i].sql + ": got " +
                    DigestString(pass.observed[i]) + ", want " +
                    DigestString(want));
    }
  }
  return mismatches;
}

// Reopens `dir` through crash recovery (WAL replay over the last flushed
// generation) and checks that it holds exactly `acked` documents.
Status CheckReopen(const std::string& dir, uint64_t acked) {
  auto db = DurableDb::Open(dir);
  if (!db.ok()) return db.status();
  auto count = (*db)->Query("SELECT COUNT(*) FROM nobench_main");
  RETURN_NOT_OK((*db)->Close());
  if (!count.ok()) return count.status();
  const int64_t found = count->rows.size() == 1 && count->rows[0].size() == 1
                            ? count->rows[0][0].int_value()
                            : -1;
  if (found != static_cast<int64_t>(acked)) {
    return Status::Internal("reopen found ", found, " of ", acked,
                            " acknowledged documents");
  }
  return Status::OK();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void PrintReport(const Args& args, const Report& rep) {
  std::ostringstream o;
  o.precision(12);
  o << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"correct\": " << (rep.correct ? "true" : "false")
    << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}, \"counts\": {";
  first = true;
  for (const auto& [name, v] : rep.counts) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  o << "}, \"detail\": {";
  first = true;
  for (const auto& [name, v] : rep.detail) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  o << "}, \"errors\": [";
  for (size_t i = 0; i < rep.errors.size(); ++i) {
    o << (i ? ", " : "") << "\"" << JsonEscape(rep.errors[i]) << "\"";
  }
  o << "]}";
  std::cout << o.str() << std::endl;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Specs()) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Inputs in = MakeInputs(*spec, args);
  SpanRecorder spans;
  ReferenceKernel kernel;
  Report rep;
  // Memory the benchmark itself holds for the whole run (documents, their
  // JSON text, request SQL, the kernel's buffers) is in the baseline, so
  // rss_mb is Sinew's share: the peak over set-ups and the timed phase.
  const uint64_t rss_base_kb = ResetPeakRssKb();
  auto die = [&](const Status& st) {
    std::cerr << "run failed: " << st.ToString() << "\n";
    return 1;
  };

  // Untraced runs set up spec->setups times (setup_s is the median; the
  // short, fsync-bound set-ups repeat more often) and measure the last
  // set-up. Traced runs need an untraced pass of the same op list as the
  // overhead baseline: read-only workloads run it on the traced set-up before
  // the traced pass; ingest needs a set-up of its own for it.
  const bool read_only = in.ingest_batches.empty();
  const int setups = !args.trace ? spec->setups : read_only ? 1 : 2;
  std::vector<double> setup_s;
  PassResult kept, baseline_pass;
  Counters run_counters;  // kept set-up + measured pass
  uint64_t wchar0 = 0;
  std::unique_ptr<Runner> runner;
  for (int k = 0; k < setups; ++k) {
    auto r = std::make_unique<Runner>(*spec, in, &spans, &kernel);
    const bool last = k == setups - 1;
    wchar0 = WrittenChars();
    const Counters before = Counters::Now();
    PassResult setup;
    Status st = r->Setup(args.dir + "/db" + std::to_string(k),
                         args.trace && last, &setup);
    if (!st.ok()) return die(st);
    setup_s.push_back(Seconds(setup.setup_ns));
    if (last) {
      run_counters.AddDelta(before, Counters::Now());
      kept = std::move(setup);
      runner = std::move(r);
      break;
    }
    if (args.trace) {
      if (Status ws = r->Warmup(); !ws.ok()) return die(ws);
      r->RunOps(in.baseline_requests, false, &baseline_pass);
    }
    const std::string dir = r->dir();
    if (Status cs = r->Close(); !cs.ok()) return die(cs);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  if (Status st = runner->Warmup(); !st.ok()) return die(st);
  if (args.trace && read_only) {
    runner->RunOps(in.baseline_requests, false, &baseline_pass);
  }
  PassResult& pass = kept;
  const Counters before = Counters::Now();
  runner->RunOps(in.requests, args.trace, &pass);
  const uint64_t peak_rss_kb = PeakRssKb();
  run_counters.AddDelta(before, Counters::Now());
  const double user_bytes =
      static_cast<double>(in.setup_bytes + in.ingest_bytes);
  const uint64_t wchar = WrittenChars() - wchar0;
  const uint64_t space = DirBytes(runner->dir());

  // Lookups over hot data never flush; the traced run flushes once after
  // measuring so the flush layer is measured on every workload.
  if (args.trace && pass.flush_ms.empty()) {
    const uint64_t f0 = sinew::metrics::NowNanos();
    if (Status st = runner->db()->Flush(); !st.ok()) return die(st);
    pass.flush_ms.push_back(Millis(sinew::metrics::NowNanos() - f0));
  }

  // Correctness: every answer against the oracle; a clean Close, and for
  // ingest a reopen through recovery that finds every acknowledged document.
  rep.attempted = in.requests.size() + pass.commits;
  rep.failed = pass.errors + CheckAnswers(in, in.requests, pass, &rep);
  for (const std::string& e : pass.error_text) Note(&rep, e);
  if (args.trace) {
    // Hold the baseline pass's answers to the oracle too, as further
    // attempts.
    rep.attempted += in.baseline_requests.size() + baseline_pass.commits;
    rep.failed += baseline_pass.errors +
                  CheckAnswers(in, in.baseline_requests, baseline_pass, &rep);
    for (const std::string& e : baseline_pass.error_text) Note(&rep, e);
  }
  ++rep.attempted;
  const std::string dir = runner->dir();
  Status closed = runner->Close();
  if (closed.ok() && pass.commits > 0) {
    const uint64_t acked =
        spec->setup_docs +
        (pass.commits - pass.commit_errors) * spec->ingest_batch;
    closed = CheckReopen(dir, acked);
  }
  if (!closed.ok()) {
    ++rep.failed;
    Note(&rep, closed.ToString());
  }

  // Per-seed exact counts (the determinism self-check compares them).
  const double reads = static_cast<double>(in.requests.size());
  rep.counts["requests"] = reads;
  for (const Request& r : in.requests) {
    rep.counts[std::string("requests.") + ClassName(ClassOf(r.q))] += 1;
  }
  rep.counts["commits"] = static_cast<double>(pass.commits);
  rep.counts["rows_out"] = static_cast<double>(pass.rows_out);
  rep.counts["flushes"] = static_cast<double>(pass.flushes);
  rep.counts["user_bytes"] = user_bytes;
  for (const char* name : Counters::kNames) {
    if (std::string_view(name).ends_with("_ns_total")) continue;  // a clock
    rep.counts[std::string("counter.") + name] = run_counters.Get(name);
  }

  std::map<std::string, std::vector<double>> by_shape_ms;
  for (size_t i = 0; i < pass.read_ms.size(); ++i) {
    by_shape_ms["q" + std::to_string(pass.read_q[i])].push_back(
        pass.read_ms[i]);
  }
  for (const auto& [name, ms] : by_shape_ms) {
    rep.detail[name + "_p50_ms"] = Median(ms);
  }
  rep.detail["commit_p50_ms"] = Median(pass.commit_ms);
  rep.detail["run_s"] = Seconds(pass.phase_ns);
  rep.detail["read_p50_ms"] = Median(pass.read_ms);
  rep.detail["read_p90_ms"] = Quantile(pass.read_ms, 0.90);
  rep.detail["kernel_p50_ms"] = Median(pass.kernel_ms);
  rep.detail["stall_s"] = Seconds(pass.stall_ns);
  double reads_ref = 0;
  for (double v : pass.read_ref) reads_ref += v;
  rep.detail["reads_ref"] = reads_ref;
  rep.detail["commits_ref"] = pass.phase_ref - reads_ref;
  rep.detail["flush_ms_max"] =
      pass.flush_ms.empty()
          ? 0
          : *std::max_element(pass.flush_ms.begin(), pass.flush_ms.end());
  rep.detail["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  rep.detail["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());

  if (!args.trace) {
    auto& m = rep.metrics;
    m["setup_s"] = {Median(setup_s), "s"};
    rep.detail["rss_base_mb"] = static_cast<double>(rss_base_kb) / 1024.0;
    rep.detail["rss_peak_mb"] = static_cast<double>(peak_rss_kb) / 1024.0;
    m["run_ref"] = {pass.phase_ref, "ref"};
    // Per-shape medians, combined by geometric mean: a median over the mixed
    // shapes would sit on the boundary between two shapes' latency bands.
    std::map<int, std::vector<double>> by_shape;
    for (size_t i = 0; i < pass.read_ref.size(); ++i) {
      by_shape[pass.read_q[i]].push_back(pass.read_ref[i]);
    }
    double log_sum = 0;
    for (const auto& [q, refs] : by_shape) log_sum += std::log(Median(refs));
    m["read_p50_ref"] = {
        std::exp(log_sum / static_cast<double>(by_shape.size())), "ref"};
    m["read_p90_ref"] = {Quantile(pass.read_ref, 0.90), "ref"};
    m["write_amp"] = {static_cast<double>(wchar) / user_bytes, "ratio"};
    m["space_amp"] = {static_cast<double>(space) / user_bytes, "ratio"};
    m["rss_mb"] = {static_cast<double>(peak_rss_kb - rss_base_kb) / 1024.0,
                   "MB"};
    rep.counts["space_bytes"] = static_cast<double>(space);
  } else {
    const Counters& rc = runner->request_counters;
    const double rows = static_cast<double>(pass.rows_out);
    const double commits =
        static_cast<double>(pass.commits + pass.setup_commits);
    const double kernel_ms = Median(pass.kernel_ms);
    auto& m = rep.metrics;
    m["parser.parse_ms"] = {Median(pass.parse_ms), "ms"};
    m["rewriter.rewrite_ms"] = {Median(pass.rewrite_ms), "ms"};
    m["rewriter.virtual_refs"] = {
        Ratio(rc.Get("rewriter.virtual_refs_total"), reads), "count"};
    m["rewriter.physical_refs"] = {
        Ratio(rc.Get("rewriter.physical_refs_total"), reads), "count"};
    m["planner.plan_ms"] = {Median(pass.plan_ms), "ms"};
    m["bytecode.programs"] = {Ratio(rc.Get("bytecode.programs_total"), reads),
                              "count"};
    m["exec.execute_ms"] = {Median(pass.execute_ms), "ms"};
    m["exec.rows_out"] = {Ratio(rows, reads), "count"};
    m["reservoir.decodes_per_row_out"] = {
        Ratio(rc.Get("reservoir.decodes"), rows), "ratio"};
    const double hits = rc.Get("extract.columnar_hits");
    m["extract.strip_share"] = {Ratio(hits, hits + rc.Get("reservoir.attrs")),
                                "share"};
    const double typed = rc.Get("eval.typed_lanes");
    m["eval.typed_share"] = {Ratio(typed, typed + rc.Get("eval.boxed_lanes")),
                             "share"};
    m["strips.zone_skips"] = {
        Ratio(rc.Get("strips.skipped_by_zonemap"), reads), "count"};
    // Query() minus the seams it wraps. The two medians come from different
    // passes, so they are compared in ref units and converted back to ms at
    // the traced pass's median kernel time.
    m["sinew_db.query_overhead_ms"] = {
        (Median(baseline_pass.read_ref) - Median(pass.seams_ref)) * kernel_ms,
        "ms"};
    m["json.parse_ms_per_kdoc"] = {
        Ratio(pass.json_parse_ms * 1000, static_cast<double>(pass.json_docs)),
        "ms/kdoc"};
    m["durable_db.commit_ms"] = {
        Median(pass.commit_ms.empty() ? pass.setup_commit_ms : pass.commit_ms),
        "ms"};
    m["wal.fsyncs_per_commit"] = {
        Ratio(run_counters.Get("wal.fsyncs_total"), commits), "count"};
    m["loader.reservoir_bytes_per_user_byte"] = {
        Ratio(run_counters.Get("loader.reservoir_bytes_total"), user_bytes),
        "ratio"};
    m["durable_db.flush_ms"] = {Median(pass.flush_ms), "ms"};
    m["durable_db.flushes"] = {static_cast<double>(pass.flushes), "count"};
    m["durable_db.stall_share"] = {
        Ratio(static_cast<double>(pass.stall_ns),
              static_cast<double>(pass.phase_ns)),
        "share"};
    m["persist.images_saved"] = {
        run_counters.Get("persist.table_images_saved_total"), "count"};
    m["strips.written"] = {run_counters.Get("strips.written"), "count"};
    m["materializer.rows_backfilled"] = {
        run_counters.Get("materializer.rows_backfilled_total"), "count"};
    m["materializer.analyze_materialize_s"] = {
        pass.analyze_materialize_ms / 1000, "s"};
    m["loader.load_s"] = {run_counters.Get("loader.load_ns_total") / 1e9, "s"};
    m["env.bytes_written_per_user_byte"] = {
        Ratio(run_counters.Get("env.bytes_written_total"), user_bytes),
        "ratio"};
    m["env.fsyncs"] = {run_counters.Get("env.fsyncs_total"), "count"};
    // Traced against untraced pass of the same ops, in ref units so host
    // drift between the two passes does not count as overhead.
    m["trace.overhead_pct"] = {
        (Ratio(pass.phase_ref, baseline_pass.phase_ref) - 1) * 100, "%"};
    const double coverage = Ratio(static_cast<double>(pass.seam_ns),
                                  static_cast<double>(pass.root_ns));
    m["trace.seam_coverage"] = {coverage, "share"};
    m["trace.fixed_cost_share"] = {
        Ratio(Median(pass.rewrite_ms) + Median(pass.plan_ms),
              Median(pass.request_ms)),
        "share"};
    if (coverage < 0.9) {
      rep.correct = false;
      Note(&rep, "seam spans cover only " + std::to_string(coverage) +
                     " of their request spans");
    }
    if (!args.trace_out.empty()) {
      if (Status st = spans.WriteChromeTrace(args.trace_out); !st.ok()) {
        return die(st);
      }
    }
  }
  if (rep.failed != 0) rep.correct = false;
  PrintReport(args, rep);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  if (args.workload.empty() || args.dir.empty() || args.seconds <= 0) {
    std::cerr << "usage: sinew_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--trace-out FILE]\n";
    return 2;
  }
  return perfbench::Run(args);
}
