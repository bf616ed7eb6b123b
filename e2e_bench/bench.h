// Shared types of the end-to-end benchmark: the seeded operation plan a
// workload generates, the workload interface, in-memory spans, and the
// small statistics helpers every pass uses. See README.md.
#ifndef SOPR_E2E_BENCH_H_
#define SOPR_E2E_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/evaluator.h"

namespace sopr {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: a fixed, portable generator, so a seed names the same
/// operation sequence on every compiler and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

enum class OpKind : uint8_t { kWrite, kRead };

/// One client operation: a write script (kExecute) or a snapshot read
/// (kQuery). The server only ever sees `sql`; the other fields are the
/// client's model, used to check the response.
struct Op {
  uint32_t id = 0;  // position in the generated sequence, across connections
  OpKind kind = OpKind::kWrite;
  /// Writes: last script of a pipelined burst (the client sends a burst
  /// in one write and then reads its responses one by one).
  bool burst_end = true;
  std::string sql;
  /// Reads: the expected count(*) (-1 = not checked) and, when
  /// `check_sum` is set, the expected sum; `shape` groups the reads whose
  /// sum a workload checks for monotonicity.
  int64_t want_count = -1;
  bool check_sum = false;
  double want_sum = 0;
  int shape = 0;
  /// Reads: when not empty, the exact result as sorted canonical rows.
  std::vector<std::string> want_rows;
  /// Workload-specific operands (transfers: from, to, amount; branch
  /// reads: the id).
  int64_t a = 0, b = 0, c = 0;
};

/// A query whose full, order-insensitive result the final check compares.
struct FinalCheck {
  std::string sql;
  std::vector<std::string> rows;  // canonical rows, sorted
};

/// The seeded work of one run. `conns[k]` is connection k's operations in
/// issue order; ops [0, warmup[k]) are the untimed warm-up.
struct Plan {
  std::vector<std::vector<Op>> conns;
  std::vector<size_t> warmup;
  /// Expected final state when every write commits.
  std::vector<FinalCheck> final_checks;
  /// FNV-1a over every script, in id order: the determinism self-test
  /// compares it across seeds.
  uint64_t digest = 0;
  uint64_t seed = 0;

  size_t num_ops() const {
    size_t n = 0;
    for (const auto& c : conns) n += c.size();
    return n;
  }
  /// Every op of every connection, ordered by id: the sequential replay
  /// the in-process passes execute.
  std::vector<const Op*> Sequential() const;
};

/// Per-reader state for monotonicity checks (one per connection).
struct ReadState {
  std::vector<double> last_sum;
};

using QueryFn = std::function<Result<QueryResult>(const std::string&)>;

/// Canonical text of a row: values joined by '|', doubles printed with
/// every digit so exact model comparisons stay exact.
std::string CanonicalRow(const Row& row);

class Workload {
 public:
  virtual ~Workload() = default;
  /// The table the workload's reads and writes concentrate on.
  virtual const char* hot_table() const = 0;
  virtual size_t connections() const = 0;
  /// Schema, data load and rule DDL, as the scripts a client sends.
  virtual std::vector<std::string> SetupScripts(uint64_t seed) const = 0;
  /// The seeded operation sequence; `seconds` scales its size (each
  /// workload's nominal rate times `seconds`, rounded to whole cycles).
  virtual Plan MakePlan(uint64_t seed, double seconds) const = 0;
  /// Checks one read's result against the client's model.
  virtual Status CheckRead(const Op& op, const QueryResult& result,
                           ReadState* state) const;
  /// Checks the final state. `committed[k][i]` says whether connection
  /// k's op i committed (ops never run count as not committed).
  virtual Status CheckFinal(const Plan& plan,
                            const std::vector<std::vector<bool>>& committed,
                            const QueryFn& query) const;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Compares every FinalCheck of `checks` through `query`.
Status RunFinalChecks(const std::vector<FinalCheck>& checks,
                      const QueryFn& query);

// --- Spans ---------------------------------------------------------------

/// One timed call into a layer. Spans live in memory (one vector per
/// thread) and are written out when the benchmark ends.
struct Span {
  const char* name = nullptr;  // static string: "sql.parse", "rules.process"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same vector; -1 = root
  uint32_t op = 0;      // Op::id
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }
  /// Opens a span and returns its index.
  int32_t Open(const char* name, uint32_t op, int32_t parent = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  /// Records an already-timed span.
  void Add(const char* name, uint32_t op, int64_t start, int64_t end,
           int32_t parent = -1) {
    spans_.push_back(Span{name, start, end, parent, op});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a child span of `parent`.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, uint32_t op, int32_t parent,
           Fn&& fn) {
  const int32_t s = log->Open(name, op, parent);
  auto result = fn();
  log->Close(s);
  return result;
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap in this benchmark).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// --- Statistics ----------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; NaN for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace e2e
}  // namespace sopr

#endif  // SOPR_E2E_BENCH_H_
