#include "gdatalog/export.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"

namespace gdlog {

void WriteProbJson(JsonWriter& json, const Prob& prob) {
  json.BeginObject();
  json.KV("value", prob.value());
  json.Key("rational");
  if (prob.exact()) {
    json.String(prob.ToString());
  } else {
    json.Null();
  }
  json.EndObject();
}

namespace {

// ---------------------------------------------------------------------------
// Lossless partial-space encoding (PartialSpaceToJson / FromJson). Unlike
// the reporting export above, every field must round-trip exactly: rationals
// as numerator/denominator, inexact masses and double constants as hex-float
// strings (%a renders the significand bits verbatim; strtod restores them).
// ---------------------------------------------------------------------------

constexpr const char* kPartialFormat = "gdlog.partial.v1";

std::string HexDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

void WriteExactProb(JsonWriter& json, const Prob& prob) {
  json.BeginObject();
  if (prob.exact()) {
    json.KV("n", static_cast<long long>(prob.rational().numerator()));
    json.KV("d", static_cast<long long>(prob.rational().denominator()));
  } else {
    json.KV("x", HexDouble(prob.value()));
  }
  json.EndObject();
}

void WriteValue(JsonWriter& json, const Value& value,
                const Interner* interner) {
  json.BeginObject();
  switch (value.kind()) {
    case Value::Kind::kBool:
      json.KV("t", "b").KV("v", value.bool_value());
      break;
    case Value::Kind::kInt:
      json.KV("t", "i").KV("v", static_cast<long long>(value.int_value()));
      break;
    case Value::Kind::kDouble:
      json.KV("t", "d").KV("v", HexDouble(value.double_value()));
      break;
    case Value::Kind::kSymbol:
      json.KV("t", "s").KV("v", interner->Name(value.symbol_id()));
      break;
  }
  json.EndObject();
}

void WriteAtom(JsonWriter& json, const GroundAtom& atom,
               const Interner* interner) {
  json.BeginObject();
  json.KV("p", interner->Name(atom.predicate));
  json.Key("a").BeginArray();
  for (const Value& arg : atom.args) WriteValue(json, arg, interner);
  json.EndArray();
  json.EndObject();
}

void WriteChoices(JsonWriter& json, const ChoiceSet& choices,
                  const Interner* interner) {
  json.BeginArray();
  for (const auto& [active, outcome] : choices.entries()) {
    json.BeginObject();
    json.Key("active");
    WriteAtom(json, active, interner);
    json.Key("outcome");
    WriteValue(json, outcome, interner);
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace

std::string OutcomeSpaceToJson(const OutcomeSpace& space,
                               const TranslatedProgram& translated,
                               const Interner* interner,
                               const JsonExportOptions& options) {
  JsonWriter json;
  json.BeginObject();
  json.KV("complete", space.complete);
  json.KV("num_outcomes", static_cast<long long>(space.outcomes.size()));
  json.Key("finite_mass");
  WriteProbJson(json, space.finite_mass);
  json.Key("residual_mass");
  WriteProbJson(json, space.residual_mass());
  json.Key("prob_consistent");
  WriteProbJson(json, space.ProbConsistent());
  json.Key("prob_inconsistent");
  WriteProbJson(json, space.ProbInconsistent());
  json.KV("depth_truncated_paths",
          static_cast<long long>(space.depth_truncated_paths));
  json.KV("pruned_paths", static_cast<long long>(space.pruned_paths));

  if (options.include_outcomes) {
    json.Key("outcomes").BeginArray();
    for (const PossibleOutcome& outcome : space.outcomes) {
      json.BeginObject();
      json.Key("prob");
      WriteProbJson(json, outcome.prob);
      json.KV("num_models", static_cast<long long>(outcome.models.size()));
      json.Key("choices").BeginArray();
      for (const auto& [active, value] : outcome.choices.entries()) {
        json.BeginObject();
        json.KV("active", active.ToString(interner));
        json.KV("outcome", value.ToString(interner));
        json.EndObject();
      }
      json.EndArray();
      if (options.include_models) {
        json.Key("models").BeginArray();
        for (const StableModel& model : outcome.models) {
          json.BeginArray();
          for (const GroundAtom& atom :
               OutcomeSpace::StripAuxiliary(model, translated)) {
            json.String(atom.ToString(interner));
          }
          json.EndArray();
        }
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();
  }

  if (options.include_events) {
    std::map<StableModelSet, Prob> events = space.Events();
    std::map<StableModelSet, size_t> outcome_counts;
    for (const PossibleOutcome& outcome : space.outcomes) {
      ++outcome_counts[outcome.models];
    }
    json.Key("events").BeginArray();
    for (const auto& [models, mass] : events) {
      json.BeginObject();
      json.Key("mass");
      WriteProbJson(json, mass);
      json.KV("num_models", static_cast<long long>(models.size()));
      json.KV("num_outcomes",
              static_cast<long long>(outcome_counts[models]));
      json.EndObject();
    }
    json.EndArray();
  }

  json.EndObject();
  return json.str();
}

std::string PartialSpaceToJson(const PartialSpace& partial,
                               const ShardPartialMeta& meta,
                               const Interner* interner) {
  JsonWriter json;
  json.BeginObject();
  json.KV("format", kPartialFormat);
  json.KV("num_shards", static_cast<long long>(meta.num_shards));
  json.KV("shard_index", static_cast<long long>(meta.shard_index));
  json.KV("prefix_depth", static_cast<long long>(meta.prefix_depth));
  json.KV("assignment", ShardAssignmentName(meta.assignment));
  json.KV("max_outcomes", static_cast<long long>(meta.max_outcomes));
  json.KV("max_depth", static_cast<long long>(meta.max_depth));
  json.KV("support_limit", static_cast<long long>(meta.support_limit));
  // As a string: a shuffle seed is a full uint64, which a JSON number
  // read back through int64 could not represent.
  json.KV("trigger_shuffle_seed", std::to_string(meta.trigger_shuffle_seed));
  json.KV("min_path_prob", HexDouble(meta.min_path_prob));
  json.KV("budget_hit", partial.budget_hit);
  json.KV("depth_truncated_paths",
          static_cast<long long>(partial.depth_truncated_paths));
  json.KV("pruned_paths", static_cast<long long>(partial.pruned_paths));

  json.Key("outcomes").BeginArray();
  for (const PossibleOutcome& outcome : partial.outcomes) {
    json.BeginObject();
    json.Key("prob");
    WriteExactProb(json, outcome.prob);
    json.Key("choices");
    WriteChoices(json, outcome.choices, interner);
    json.Key("models").BeginArray();
    for (const StableModel& model : outcome.models) {
      json.BeginArray();
      for (const GroundAtom& atom : model) WriteAtom(json, atom, interner);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("truncations").BeginArray();
  for (const auto& [choices, mass] : partial.truncations) {
    json.BeginObject();
    json.Key("choices");
    WriteChoices(json, choices, interner);
    json.Key("mass");
    WriteExactProb(json, mass);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

namespace {

// ---------------------------------------------------------------------------
// Single-pass partial decoding: the gdlog.partial.v1 grammar read straight
// off a JsonReader into PartialSpace / ShardPartialMeta, with no document
// tree and no per-key strings. Members may come in any order; unknown
// members are skipped (after full JSON validation); the first of duplicate
// keys wins and later copies are skipped. Every field is checked before it
// is trusted: a partial crosses a process boundary.
// ---------------------------------------------------------------------------

using Kind = JsonReader::Kind;

Status FieldError(const std::string& what) {
  return Status::InvalidArgument("partial space: " + what);
}

/// A scalar held until the member that says how to read it arrives (a
/// constant's payload before its tag). Containers and null keep only
/// their kind: no tag accepts them.
struct Scalar {
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string_view text;  ///< string contents or number text
};

/// Top-level members, indexing kTopMembers.
enum TopMember : size_t {
  kFormat, kNumShards, kShardIndex, kPrefixDepth, kAssignment,
  kMaxOutcomes, kMaxDepth, kSupportLimit, kSeed, kMinPathProb,
  kBudgetHit, kDepthTruncated, kPruned, kOutcomes, kTruncations,
  kNumTopMembers,
};
constexpr std::string_view kTopMembers[kNumTopMembers] = {
    "format",        "num_shards",   "shard_index",
    "prefix_depth",  "assignment",   "max_outcomes",
    "max_depth",     "support_limit", "trigger_shuffle_seed",
    "min_path_prob", "budget_hit",   "depth_truncated_paths",
    "pruned_paths",  "outcomes",     "truncations",
};

/// True the first time it sees `seen` unset: the first of duplicate keys
/// is read, later copies are skipped.
bool Once(bool& seen) { return !std::exchange(seen, true); }

class PartialDecoder {
 public:
  PartialDecoder(std::string_view text, const Interner& interner)
      : reader_(text, TrustedStrings()), interner_(interner) {}

  Result<PartialSpace> Decode(ShardPartialMeta* meta);

 private:
  // Partials come from a JsonWriter in a sibling worker process, which
  // copies symbol-name bytes verbatim — and the surface lexer admits
  // arbitrary bytes in string constants — so strings here must read back
  // exactly as written rather than pass the untrusted-wire UTF-8 checks.
  static JsonParseOptions TrustedStrings() {
    JsonParseOptions options;
    options.strict_strings = false;
    return options;
  }

  /// `read`'s status, a failure reported as a malformed `what`.
  static Status In(const char* what, Status read) {
    if (read.ok()) return read;
    return FieldError(std::string(what) + " (" + read.message() + ")");
  }

  /// Runs on_member(key) for each member of the object that is the next
  /// value; on_member must consume the member's value.
  template <typename F>
  Status Members(const char* what, F&& on_member) {
    GDLOG_RETURN_IF_ERROR(In(what, reader_.BeginObject()));
    std::string_view key;
    for (;;) {
      GDLOG_ASSIGN_OR_RETURN(bool more, reader_.NextMember(&key));
      if (!more) return Status::OK();
      GDLOG_RETURN_IF_ERROR(on_member(key));
    }
  }

  /// Runs on_element() for each element of the array that is the next
  /// value; on_element must consume the element.
  template <typename F>
  Status Elements(const char* what, F&& on_element) {
    GDLOG_RETURN_IF_ERROR(In(what, reader_.BeginArray()));
    for (;;) {
      GDLOG_ASSIGN_OR_RETURN(bool more, reader_.NextElement());
      if (!more) return Status::OK();
      GDLOG_RETURN_IF_ERROR(on_element());
    }
  }

  Status ReadString(const char* what, std::string_view* out) {
    return In(what, reader_.ReadString(out));
  }

  Status ReadScalar(Scalar* out);
  Status ReadSize(std::string_view name, size_t* out);
  /// Parses a full hex-float (or decimal) double; rejects trailing garbage.
  Result<double> ParseDouble(std::string_view text);
  Status ReadProb(Prob* out);
  Status ConstantFromScalar(char tag, const Scalar& payload, Value* out);
  Status ReadConstant(Value* out);
  Status ReadAtom(GroundAtom* out);
  Status ReadChoices(ChoiceSet* out);
  Status ReadOutcome(PossibleOutcome* out);
  Status ReadTruncation(std::pair<ChoiceSet, Prob>* out);

  JsonReader reader_;
  const Interner& interner_;
  /// Growth buffers reused across atoms and models, so each decoded
  /// vector is allocated once at its final size.
  Tuple args_;
  StableModel model_;
  /// A constant's payload string read before its tag.
  std::string held_;
  /// NUL-terminated copies for strtod / strtoull.
  std::string cstr_;
};

Status PartialDecoder::ReadScalar(Scalar* out) {
  GDLOG_ASSIGN_OR_RETURN(out->kind, reader_.Peek());
  switch (out->kind) {
    case Kind::kString: return reader_.ReadString(&out->text);
    case Kind::kNumber: return reader_.ReadNumber(&out->text);
    case Kind::kBool: return reader_.ReadBool(&out->boolean);
    default: return reader_.SkipValue();
  }
}

Status PartialDecoder::ReadSize(std::string_view name, size_t* out) {
  Scalar number;
  GDLOG_RETURN_IF_ERROR(ReadScalar(&number));
  if (number.kind != Kind::kNumber) {
    return FieldError("missing numeric field '" + std::string(name) + "'");
  }
  GDLOG_ASSIGN_OR_RETURN(long long value, JsonNumberToInt(number.text));
  if (value < 0) return FieldError("negative '" + std::string(name) + "'");
  *out = static_cast<size_t>(value);
  return Status::OK();
}

Result<double> PartialDecoder::ParseDouble(std::string_view text) {
  if (text.empty()) return FieldError("empty floating-point literal");
  cstr_.assign(text);
  char* end = nullptr;
  double d = std::strtod(cstr_.c_str(), &end);
  if (end != cstr_.c_str() + cstr_.size()) {
    return FieldError("malformed floating-point literal '" + cstr_ + "'");
  }
  return d;
}

Status PartialDecoder::ReadProb(Prob* out) {
  // An inexact mass ("x") takes precedence; "n"/"d" are then ignored.
  bool has_x = false, has_n = false, has_d = false;
  double x = 0.0;
  Scalar num, den;  // number text: views into the input
  GDLOG_RETURN_IF_ERROR(Members("malformed probability", [&](auto key) {
    if (key == "x" && Once(has_x)) {
      std::string_view text;
      GDLOG_RETURN_IF_ERROR(ReadString("malformed inexact mass", &text));
      GDLOG_ASSIGN_OR_RETURN(x, ParseDouble(text));
      // A corrupt partial must not smuggle in an out-of-range
      // "probability" that silently skews the merged masses.
      if (!(x >= 0.0) || !(x <= 1.0)) {
        return FieldError("mass outside [0, 1]: " + std::string(text));
      }
      return Status::OK();
    }
    if (key == "n" && Once(has_n)) return ReadScalar(&num);
    if (key == "d" && Once(has_d)) return ReadScalar(&den);
    return reader_.SkipValue();
  }));
  if (has_x) {
    *out = Prob(Rational::Approx(x));
    return Status::OK();
  }
  if (num.kind != Kind::kNumber || den.kind != Kind::kNumber) {
    return FieldError("malformed rational mass");
  }
  GDLOG_ASSIGN_OR_RETURN(long long n, JsonNumberToInt(num.text));
  GDLOG_ASSIGN_OR_RETURN(long long d, JsonNumberToInt(den.text));
  if (d <= 0) return FieldError("non-positive denominator");
  if (n < 0 || n > d) return FieldError("rational mass outside [0, 1]");
  *out = Prob(Rational(n, d));
  return Status::OK();
}

Status PartialDecoder::ConstantFromScalar(char tag, const Scalar& payload,
                                          Value* out) {
  switch (tag) {
    case 'b':
      if (payload.kind != Kind::kBool) {
        return FieldError("malformed bool constant");
      }
      *out = Value::Bool(payload.boolean);
      return Status::OK();
    case 'i': {
      if (payload.kind != Kind::kNumber) {
        return FieldError("malformed int constant");
      }
      GDLOG_ASSIGN_OR_RETURN(long long i, JsonNumberToInt(payload.text));
      *out = Value::Int(i);
      return Status::OK();
    }
    case 'd': {
      if (payload.kind != Kind::kString) {
        return FieldError("malformed double constant");
      }
      GDLOG_ASSIGN_OR_RETURN(double d, ParseDouble(payload.text));
      *out = Value::Double(d);
      return Status::OK();
    }
    default: {  // 's'
      if (payload.kind != Kind::kString) {
        return FieldError("malformed symbol constant");
      }
      uint32_t id = interner_.Lookup(payload.text);
      if (id == Interner::kNotFound) {
        return FieldError("unknown symbol '" + std::string(payload.text) +
                          "' (partial produced by a different program?)");
      }
      *out = Value::Symbol(id);
      return Status::OK();
    }
  }
}

Status PartialDecoder::ReadConstant(Value* out) {
  char tag = 0;  // 0 until "t" is read
  bool has_payload = false, held = false;
  Scalar payload;
  GDLOG_RETURN_IF_ERROR(Members("malformed constant", [&](auto key) {
    if (key == "t" && tag == 0) {
      std::string_view text;
      GDLOG_RETURN_IF_ERROR(ReadString("malformed constant", &text));
      if (text != "b" && text != "i" && text != "d" && text != "s") {
        return FieldError("unknown constant tag '" + std::string(text) + "'");
      }
      tag = text[0];
      return Status::OK();
    }
    if (key != "v" || !Once(has_payload)) return reader_.SkipValue();
    GDLOG_RETURN_IF_ERROR(ReadScalar(&payload));
    // The writer puts the tag first; otherwise hold the payload (a string
    // must outlive the reader's scratch buffer) until the tag arrives.
    if (tag != 0) return ConstantFromScalar(tag, payload, out);
    held = true;
    if (payload.kind == Kind::kString) {
      held_.assign(payload.text);
      payload.text = held_;
    }
    return Status::OK();
  }));
  if (tag == 0 || !has_payload) return FieldError("malformed constant");
  return held ? ConstantFromScalar(tag, payload, out) : Status::OK();
}

Status PartialDecoder::ReadAtom(GroundAtom* out) {
  bool has_pred = false, has_args = false;
  GDLOG_RETURN_IF_ERROR(Members("malformed atom", [&](auto key) {
    if (key == "p" && Once(has_pred)) {
      std::string_view name;
      GDLOG_RETURN_IF_ERROR(ReadString("malformed atom", &name));
      out->predicate = interner_.Lookup(name);
      if (out->predicate == Interner::kNotFound) {
        return FieldError("unknown predicate '" + std::string(name) +
                          "' (partial produced by a different program?)");
      }
      return Status::OK();
    }
    if (key == "a" && Once(has_args)) {
      args_.clear();
      GDLOG_RETURN_IF_ERROR(Elements("malformed atom", [&] {
        args_.emplace_back();
        return ReadConstant(&args_.back());
      }));
      out->args.assign(args_.begin(), args_.end());
      return Status::OK();
    }
    return reader_.SkipValue();
  }));
  if (!has_pred || !has_args) return FieldError("malformed atom");
  return Status::OK();
}

Status PartialDecoder::ReadChoices(ChoiceSet* out) {
  return Elements("malformed choice set", [&] {
    GroundAtom active;
    Value outcome;
    bool has_active = false, has_outcome = false;
    GDLOG_RETURN_IF_ERROR(Members("malformed choice entry", [&](auto key) {
      if (key == "active" && Once(has_active)) return ReadAtom(&active);
      if (key == "outcome" && Once(has_outcome)) {
        return ReadConstant(&outcome);
      }
      return reader_.SkipValue();
    }));
    if (!has_active || !has_outcome) {
      return FieldError("malformed choice entry");
    }
    if (!out->Assign(std::move(active), outcome)) {
      return FieldError("functionally inconsistent serialized choice set");
    }
    return Status::OK();
  });
}

Status PartialDecoder::ReadOutcome(PossibleOutcome* out) {
  bool has_prob = false, has_choices = false, has_models = false;
  auto read_model = [&] {
    model_.clear();
    GDLOG_RETURN_IF_ERROR(Elements("malformed model", [&] {
      model_.emplace_back();
      return ReadAtom(&model_.back());
    }));
    out->models.emplace(std::make_move_iterator(model_.begin()),
                        std::make_move_iterator(model_.end()));
    return Status::OK();
  };
  GDLOG_RETURN_IF_ERROR(Members("malformed outcome", [&](auto key) {
    if (key == "prob" && Once(has_prob)) return ReadProb(&out->prob);
    if (key == "choices" && Once(has_choices)) {
      return ReadChoices(&out->choices);
    }
    if (key == "models" && Once(has_models)) {
      return Elements("malformed outcome", read_model);
    }
    return reader_.SkipValue();
  }));
  if (!has_prob || !has_choices || !has_models) {
    return FieldError("malformed outcome");
  }
  return Status::OK();
}

Status PartialDecoder::ReadTruncation(std::pair<ChoiceSet, Prob>* out) {
  bool has_choices = false, has_mass = false;
  GDLOG_RETURN_IF_ERROR(Members("malformed truncation", [&](auto key) {
    if (key == "choices" && Once(has_choices)) {
      return ReadChoices(&out->first);
    }
    if (key == "mass" && Once(has_mass)) return ReadProb(&out->second);
    return reader_.SkipValue();
  }));
  if (!has_choices || !has_mass) return FieldError("malformed truncation");
  return Status::OK();
}

Result<PartialSpace> PartialDecoder::Decode(ShardPartialMeta* meta) {
  PartialSpace partial;
  bool seen[kNumTopMembers] = {};
  GDLOG_RETURN_IF_ERROR(Members("document is not an object", [&](auto key) {
    size_t member = 0;
    while (member < kNumTopMembers && kTopMembers[member] != key) ++member;
    if (member == kNumTopMembers || !Once(seen[member])) {
      return reader_.SkipValue();
    }
    const std::string_view name = kTopMembers[member];
    std::string_view text;
    switch (static_cast<TopMember>(member)) {
      case kFormat: {
        Scalar format;
        GDLOG_RETURN_IF_ERROR(ReadScalar(&format));
        if (format.kind != Kind::kString || format.text != kPartialFormat) {
          return FieldError(std::string("expected format '") +
                            kPartialFormat + "'");
        }
        return Status::OK();
      }
      case kNumShards: return ReadSize(name, &meta->num_shards);
      case kShardIndex: return ReadSize(name, &meta->shard_index);
      case kPrefixDepth: return ReadSize(name, &meta->prefix_depth);
      case kAssignment: {
        GDLOG_RETURN_IF_ERROR(ReadString("missing 'assignment'", &text));
        auto parsed = ParseShardAssignment(text);
        if (!parsed.ok()) return FieldError("malformed 'assignment'");
        meta->assignment = *parsed;
        return Status::OK();
      }
      case kMaxOutcomes: return ReadSize(name, &meta->max_outcomes);
      case kMaxDepth: return ReadSize(name, &meta->max_depth);
      case kSupportLimit: return ReadSize(name, &meta->support_limit);
      case kSeed: {  // a full uint64, hence a string
        GDLOG_RETURN_IF_ERROR(
            ReadString("missing 'trigger_shuffle_seed'", &text));
        cstr_.assign(text);
        errno = 0;
        char* end = nullptr;
        meta->trigger_shuffle_seed = std::strtoull(cstr_.c_str(), &end, 10);
        if (errno == ERANGE || cstr_.empty() ||
            end != cstr_.c_str() + cstr_.size()) {
          return FieldError("malformed 'trigger_shuffle_seed'");
        }
        return Status::OK();
      }
      case kMinPathProb: {
        GDLOG_RETURN_IF_ERROR(ReadString("missing 'min_path_prob'", &text));
        GDLOG_ASSIGN_OR_RETURN(meta->min_path_prob, ParseDouble(text));
        return Status::OK();
      }
      case kBudgetHit:
        return In("missing 'budget_hit'",
                  reader_.ReadBool(&partial.budget_hit));
      case kDepthTruncated:
        return ReadSize(name, &partial.depth_truncated_paths);
      case kPruned: return ReadSize(name, &partial.pruned_paths);
      case kOutcomes:
        return Elements("missing 'outcomes'", [&] {
          partial.outcomes.emplace_back();
          return ReadOutcome(&partial.outcomes.back());
        });
      default:  // kTruncations
        return Elements("missing 'truncations'", [&] {
          partial.truncations.emplace_back();
          return ReadTruncation(&partial.truncations.back());
        });
    }
  }));
  GDLOG_RETURN_IF_ERROR(reader_.Finish());
  for (size_t member = 0; member < kNumTopMembers; ++member) {
    if (!seen[member]) {
      return FieldError("missing '" + std::string(kTopMembers[member]) +
                        "'");
    }
  }
  // Mergers size per-shard bookkeeping by num_shards.
  if (meta->num_shards < 1 || meta->num_shards > kMaxShards ||
      meta->shard_index >= meta->num_shards) {
    return FieldError("shard coordinates out of range");
  }
  return partial;
}

}  // namespace

Result<PartialSpace> PartialSpaceFromJson(std::string_view json_text,
                                          const Interner& interner,
                                          ShardPartialMeta* meta) {
  return PartialDecoder(json_text, interner).Decode(meta);
}

}  // namespace gdlog
