#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/json.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, uint64_t op) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  spans_[index].end_ns = now;
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

void SpanRecorder::Add(const std::string& name, int64_t start_ns,
                       int64_t end_ns, int parent, uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[span.parent];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

std::vector<OpBreakdown> BreakDownOps(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<OpBreakdown> ops;
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    index_of[spans[i].op] = ops.size();
    OpBreakdown op;
    op.op = spans[i].op;
    op.root = spans[i].name;
    op.wall_ns = spans[i].end_ns - spans[i].start_ns;
    op.remainder_ns = self[i];
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index_of.find(spans[i].op);
    if (it == index_of.end()) continue;
    ops[it->second].self_ns[spans[i].name] += self[i];
  }
  return ops;
}

std::string SpansToJsonLines(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::string out;
  for (size_t i = 0; i < spans.size(); ++i) {
    gdlog::JsonWriter json;
    json.BeginObject();
    json.KV("name", spans[i].name);
    json.KV("start_ns", static_cast<long long>(spans[i].start_ns));
    json.KV("end_ns", static_cast<long long>(spans[i].end_ns));
    json.KV("parent", static_cast<long long>(spans[i].parent));
    json.KV("op", static_cast<long long>(spans[i].op));
    json.KV("self_ns", static_cast<long long>(self[i]));
    json.EndObject();
    out += json.str();
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
