// A Grounder decorator that times Ground/Extend from outside the grounder.
#ifndef PERFBENCH_TIMED_GROUNDER_H_
#define PERFBENCH_TIMED_GROUNDER_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "gdatalog/chase.h"
#include "gdatalog/engine.h"
#include "gdatalog/grounder.h"
#include "spans.h"

namespace perfbench {

/// Forwards every call to the wrapped grounder and counts calls, wall time
/// and compiled-join bindings. With a recorder, each call also becomes a
/// "ground" or "ground.extend" span under whatever span is open. The
/// wrapped grounder must outlive this one.
class TimedGrounder : public gdlog::Grounder {
 public:
  TimedGrounder(const gdlog::Grounder* inner, SpanRecorder* spans,
                uint64_t op)
      : inner_(inner), spans_(spans), op_(op) {}

  std::string_view name() const override { return inner_->name(); }
  gdlog::Status Ground(const gdlog::ChoiceSet& choices,
                       gdlog::GroundRuleSet* out,
                       gdlog::MatchStats* stats = nullptr) const override;
  bool SupportsIncremental() const override {
    return inner_->SupportsIncremental();
  }
  gdlog::Status Extend(const gdlog::ChoiceSet& choices,
                       const gdlog::GroundAtom& new_active,
                       gdlog::GroundRuleSet* out) const override;

  uint64_t ground_calls() const { return ground_calls_.load(); }
  uint64_t extend_calls() const { return extend_calls_.load(); }
  uint64_t busy_ns() const { return busy_ns_.load(); }
  /// Bindings enumerated by Ground() (Extend() reports none).
  uint64_t bindings() const { return bindings_.load(); }

 private:
  const gdlog::Grounder* inner_;
  SpanRecorder* spans_;
  uint64_t op_;
  mutable std::atomic<uint64_t> ground_calls_{0};
  mutable std::atomic<uint64_t> extend_calls_{0};
  mutable std::atomic<uint64_t> busy_ns_{0};
  mutable std::atomic<uint64_t> bindings_{0};
};

/// A chase engine over `engine`'s own translated program and database
/// whose grounder is `grounder` — how the benchmark runs the engine's
/// chase with a decorated grounder. `engine` and `grounder` must outlive
/// the result.
inline gdlog::ChaseEngine DecoratedChase(const gdlog::GDatalog& engine,
                                         const gdlog::Grounder* grounder) {
  return gdlog::ChaseEngine(&engine.translated(), &engine.database(),
                            grounder);
}

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_GROUNDER_H_
