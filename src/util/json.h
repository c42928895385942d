#ifndef GDLOG_UTIL_JSON_H_
#define GDLOG_UTIL_JSON_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gdlog {

/// A minimal streaming JSON writer — enough to export engine results for
/// scripting (the CLI's --json mode). Handles escaping and comma placement;
/// callers are responsible for balanced Begin/End calls (asserted).
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key (must be inside an object).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(long long value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Convenience: Key + value. The const char* overload exists because a
  /// string literal would otherwise convert to bool (a standard pointer
  /// conversion, which overload resolution prefers over the user-defined
  /// conversion to string_view) and silently serialize as `true`.
  JsonWriter& KV(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, const char* value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, double value) {
    return Key(key).Number(value);
  }
  JsonWriter& KV(std::string_view key, long long value) {
    return Key(key).Int(value);
  }
  JsonWriter& KV(std::string_view key, bool value) {
    return Key(key).Bool(value);
  }

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void Escape(std::string_view s);

  std::string out_;
  /// Stack of "needs comma before next element" flags per nesting level.
  std::string stack_;
  bool pending_key_ = false;
};

struct JsonParseOptions {
  /// Enforce RFC 8259 strings in full: escaped control characters only,
  /// paired surrogate escapes, shortest-form UTF-8 — what untrusted wire
  /// input (the gdlogd request path) requires. Disable only for input a
  /// JsonWriter in this process family produced: the writer copies raw
  /// bytes >= 0x20 verbatim, and program string constants may carry
  /// arbitrary bytes (the surface lexer does not restrict them), so the
  /// shard partial-space IPC must read back exactly what was written.
  bool strict_strings = true;
};

class JsonReader;

/// A JSON number's text as an int64: exact for any int64;
/// kInvalidArgument on fractions, exponents or overflow.
Result<long long> JsonNumberToInt(std::string_view text);

/// A parsed JSON document — the read-side counterpart of JsonWriter, used
/// by request handlers and by any tooling that consumes the CLI's --json
/// output. Built by a JsonReader, so it accepts exactly the reader's
/// grammar. Numbers keep their source text so callers can parse int64s and
/// hex-float doubles exactly instead of round-tripping through a lossy
/// double.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// content rejected). Depth-limited; ParseError carries the byte offset.
  static Result<JsonValue> Parse(std::string_view text);
  static Result<JsonValue> Parse(std::string_view text,
                                 const JsonParseOptions& options);

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  /// The number's source text, verbatim (e.g. "1e-3", "-42").
  const std::string& number_text() const { return scalar_; }
  double NumberAsDouble() const;
  /// Exact for any int64; kInvalidArgument on fractions or overflow.
  Result<long long> NumberAsInt() const;
  const std::string& string_value() const { return scalar_; }

  const std::vector<JsonValue>& array() const { return array_; }
  /// Object members in document order (duplicate keys are preserved;
  /// Find returns the first).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// The value of `key`, or nullptr when absent.
  const JsonValue* Find(std::string_view key) const;

 private:
  /// Reads one value (recursively) from `reader` into `out`.
  static Status Build(JsonReader& reader, JsonValue* out);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< number text or string payload
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// A pull reader over one JSON document: the project's single JSON lexer.
/// Callers walk the document value by value — JsonValue::Parse builds a
/// tree from it, while hot-path decoders (PartialSpaceFromJson) read
/// straight into their own structures without one. Strings come back as
/// views: into the input when the string has no escapes, otherwise into
/// one scratch buffer the reader reuses, so a view stays valid only until
/// the next string or key is read. Numbers come back as their source text.
///
/// Usage: every value is consumed by exactly one call, usually picked by
/// Peek(): BeginObject/BeginArray (then NextMember/NextElement until they
/// return false), ReadString, ReadNumber, ReadBool, ReadNull or
/// SkipValue. Finish() then checks that only whitespace follows.
/// Every error is a ParseError carrying the byte offset.
class JsonReader {
 public:
  using Kind = JsonValue::Kind;

  /// A value nested inside more containers than this is rejected, whether
  /// it is read or skipped (so attacker-sized nesting never turns into
  /// stack exhaustion in a recursive consumer).
  static constexpr size_t kMaxDepth = 96;

  explicit JsonReader(std::string_view text,
                      const JsonParseOptions& options = JsonParseOptions{})
      : text_(text), options_(options) {}

  /// The kind of the next value, without consuming it. Any byte that does
  /// not open another kind is reported as kNumber; ReadNumber rejects it.
  Result<Kind> Peek() {
    if (depth_ > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return Kind::kObject;
      case '[': return Kind::kArray;
      case '"': return Kind::kString;
      case 't':
      case 'f': return Kind::kBool;
      case 'n': return Kind::kNull;
      default: return Kind::kNumber;
    }
  }

  /// Enters the object (array) that is the next value.
  Status BeginObject() { return Begin(Kind::kObject, "expected object"); }
  Status BeginArray() { return Begin(Kind::kArray, "expected array"); }

  /// Advances to the current object's next member and stores its key, or
  /// consumes the closing '}' and returns false. The caller must consume
  /// the member's value before calling again.
  Result<bool> NextMember(std::string_view* key) {
    SkipWhitespace();
    if (Consume('}')) return Close();
    if (!first_ && !Consume(',')) return Error("expected ',' or '}'");
    first_ = false;
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected object key");
    }
    GDLOG_RETURN_IF_ERROR(ScanString(key));
    SkipWhitespace();
    if (!Consume(':')) return Error("expected ':'");
    return true;
  }

  /// Advances to the current array's next element, or consumes the
  /// closing ']' and returns false.
  Result<bool> NextElement() {
    SkipWhitespace();
    if (Consume(']')) return Close();
    if (!first_ && !Consume(',')) return Error("expected ',' or ']'");
    first_ = false;
    return true;
  }

  Status ReadString(std::string_view* out) {
    GDLOG_ASSIGN_OR_RETURN(Kind kind, Peek());
    if (kind != Kind::kString) return Error("expected string");
    return ScanString(out);
  }

  /// The number's source text, checked against the RFC 8259 grammar.
  Status ReadNumber(std::string_view* text);
  Status ReadBool(bool* out);
  Status ReadNull();
  /// Consumes the next value of any kind, validating it as strictly as a
  /// read would. Iterative: nesting costs no stack, and a value deeper
  /// than kMaxDepth is rejected.
  Status SkipValue();

  /// Succeeds iff only whitespace remains after the document.
  Status Finish();

 private:
  /// A ParseError for `what` at the current offset.
  Status Error(std::string_view what) const;

  // The hot loops below scan with local indices: a char load may alias
  // any member, so stepping pos_ itself would reload and store it per byte.
  void SkipWhitespace() {
    size_t pos = pos_;
    while (pos < text_.size()) {
      char c = text_[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
    pos_ = pos;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word);

  Status Begin(Kind kind, const char* what) {
    GDLOG_ASSIGN_OR_RETURN(Kind next, Peek());
    if (next != kind) return Error(what);
    ++pos_;
    ++depth_;
    first_ = true;
    return Status::OK();
  }

  /// Leaves the innermost container; always false (no further member).
  bool Close() {
    --depth_;
    // The enclosing container (if any) already passed its first element.
    first_ = false;
    return false;
  }

  /// Reads the string whose opening quote is at pos_. The common case — no
  /// escapes, and in strict mode nothing outside printable ASCII — is a
  /// view into the input; anything else takes ScanStringSlow.
  Status ScanString(std::string_view* out) {
    const char* data = text_.data();
    const size_t size = text_.size();
    const bool strict = options_.strict_strings;
    const size_t start = pos_ + 1;
    for (size_t pos = start; pos < size; ++pos) {
      unsigned char c = static_cast<unsigned char>(data[pos]);
      if (c == '"') {
        *out = std::string_view(data + start, pos - start);
        pos_ = pos + 1;
        return Status::OK();
      }
      if (c == '\\' || (strict && (c < 0x20 || c >= 0x80))) break;
    }
    return ScanStringSlow(start, out);
  }
  Status ScanStringSlow(size_t start, std::string_view* out);
  Status ReadHex4(unsigned* code);

  std::string_view text_;
  JsonParseOptions options_;
  size_t pos_ = 0;
  /// Containers currently open.
  size_t depth_ = 0;
  /// True until the innermost open container's first Next* call.
  bool first_ = false;
  /// Decoded contents of the last string that carried escapes.
  std::string scratch_;
};

}  // namespace gdlog

#endif  // GDLOG_UTIL_JSON_H_
