#include "timed_grounder.h"

namespace perfbench {

gdlog::Status TimedGrounder::Ground(const gdlog::ChoiceSet& choices,
                                    gdlog::GroundRuleSet* out,
                                    gdlog::MatchStats* stats) const {
  ScopedSpan span(spans_, "ground", op_);
  gdlog::MatchStats local;
  const int64_t start = NowNs();
  gdlog::Status status = inner_->Ground(choices, out, &local);
  busy_ns_ += static_cast<uint64_t>(NowNs() - start);
  ground_calls_ += 1;
  bindings_ += local.bindings;
  if (stats != nullptr) stats->Add(local);
  return status;
}

gdlog::Status TimedGrounder::Extend(const gdlog::ChoiceSet& choices,
                                    const gdlog::GroundAtom& new_active,
                                    gdlog::GroundRuleSet* out) const {
  ScopedSpan span(spans_, "ground.extend", op_);
  const int64_t start = NowNs();
  gdlog::Status status = inner_->Extend(choices, new_active, out);
  busy_ns_ += static_cast<uint64_t>(NowNs() - start);
  extend_calls_ += 1;
  return status;
}

}  // namespace perfbench
