// In-memory spans recorded from the benchmark's own code around calls into
// each layer of gdlog. Nothing inside the program is instrumented: a span
// brackets a public-API call made by the benchmark.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
int64_t NowNs();

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder (-1 for an op's root); every span of one op shares `op`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t op = 0;
};

/// Collects spans in memory until the run ends. Begin/End nest per
/// recorder: a span begun while another is open becomes its child. Safe to
/// call from several threads, but nesting is only meaningful when one
/// thread records a given op.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span (or as a root when none
  /// is open) and returns its index.
  int Begin(const std::string& name, uint64_t op);
  void End(int index);
  /// Records an already-measured interval under `parent` (-1 = root).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int parent, uint64_t op);

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, uint64_t op)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent, overlaps counted once). Indexed like `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Where one op's time went: its root's wall time, the summed self time
/// of its spans by name, and the remainder — the root's own self time,
/// which no layer span accounts for. By construction the self times of
/// all spans of the op add up to `wall_ns` when children do not overlap.
struct OpBreakdown {
  uint64_t op = 0;
  std::string root;
  int64_t wall_ns = 0;
  int64_t remainder_ns = 0;
  std::map<std::string, int64_t> self_ns;  ///< by span name, root included
};
std::vector<OpBreakdown> BreakDownOps(const std::vector<Span>& spans);

/// One JSON object per line: name, start_ns, end_ns, parent, op, self_ns.
std::string SpansToJsonLines(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
