#include "util/json.h"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace gdlog {

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!stack_.empty()) {
    if (stack_.back() == '1') out_ += ',';
    stack_.back() = '1';
  }
}

void JsonWriter::Escape(std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty());
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty());
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  MaybeComma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// JsonReader — the pull lexer every JSON consumer shares.
// ---------------------------------------------------------------------------

Status JsonReader::Error(std::string_view what) const {
  return Status::ParseError("json: " + std::string(what) + " at offset " +
                            std::to_string(pos_));
}

bool JsonReader::ConsumeWord(std::string_view word) {
  if (text_.substr(pos_, word.size()) == word) {
    pos_ += word.size();
    return true;
  }
  return false;
}

Status JsonReader::ReadBool(bool* out) {
  GDLOG_ASSIGN_OR_RETURN(Kind kind, Peek());
  if (kind != Kind::kBool) return Error("expected boolean");
  if (ConsumeWord("true")) {
    *out = true;
  } else if (ConsumeWord("false")) {
    *out = false;
  } else {
    return Error("bad literal");
  }
  return Status::OK();
}

Status JsonReader::ReadNull() {
  GDLOG_ASSIGN_OR_RETURN(Kind kind, Peek());
  if (kind != Kind::kNull) return Error("expected null");
  if (!ConsumeWord("null")) return Error("bad literal");
  return Status::OK();
}

Status JsonReader::SkipValue() {
  // One flag per container opened below the starting depth; Peek's depth
  // check bounds how many can be open at once.
  bool in_object[kMaxDepth + 1] = {};
  size_t open = 0;
  std::string_view ignored;
  for (;;) {
    GDLOG_ASSIGN_OR_RETURN(Kind kind, Peek());
    switch (kind) {
      case Kind::kObject:
        GDLOG_RETURN_IF_ERROR(BeginObject());
        in_object[open++] = true;
        break;
      case Kind::kArray:
        GDLOG_RETURN_IF_ERROR(BeginArray());
        in_object[open++] = false;
        break;
      case Kind::kString:
        GDLOG_RETURN_IF_ERROR(ReadString(&ignored));
        break;
      case Kind::kNumber:
        GDLOG_RETURN_IF_ERROR(ReadNumber(&ignored));
        break;
      case Kind::kBool: {
        bool b = false;
        GDLOG_RETURN_IF_ERROR(ReadBool(&b));
        break;
      }
      case Kind::kNull:
        GDLOG_RETURN_IF_ERROR(ReadNull());
        break;
    }
    // Close every finished container; stop at the next value to skip.
    for (;;) {
      if (open == 0) return Status::OK();
      bool more = false;
      if (in_object[open - 1]) {
        GDLOG_ASSIGN_OR_RETURN(more, NextMember(&ignored));
      } else {
        GDLOG_ASSIGN_OR_RETURN(more, NextElement());
      }
      if (more) break;
      --open;
    }
  }
}

Status JsonReader::Finish() {
  assert(depth_ == 0);
  SkipWhitespace();
  if (pos_ != text_.size()) return Error("trailing content");
  return Status::OK();
}

/// Four hex digits at pos_; advances past them.
Status JsonReader::ReadHex4(unsigned* code) {
  if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
  *code = 0;
  for (int i = 0; i < 4; ++i) {
    char h = text_[pos_ + i];
    *code <<= 4;
    if (h >= '0' && h <= '9') *code |= unsigned(h - '0');
    else if (h >= 'a' && h <= 'f') *code |= unsigned(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') *code |= unsigned(h - 'A' + 10);
    else return Error("bad \\u escape");
  }
  pos_ += 4;
  return Status::OK();
}

namespace {

void EncodeUtf8(unsigned cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

// Strings arrive over the wire from untrusted clients (the gdlogd request
// path), so by default the grammar is enforced in full: raw control
// characters must be escaped (RFC 8259 §7), \u surrogates must pair, and
// raw bytes must be valid, shortest-form UTF-8 — overlong encodings are
// the classic smuggling vector for "../" and NUL. With strict_strings off
// (trusted JsonWriter output), raw non-escape bytes pass through verbatim
// instead, matching what the writer emits.
//
// A string without escapes is still returned as a view into the input;
// the first escape copies the prefix into scratch_ and decoding continues
// there.
Status JsonReader::ScanStringSlow(size_t start, std::string_view* out) {
  pos_ = start;
  bool decoded = false;  // true once scratch_ holds the string so far
  while (pos_ < text_.size()) {
    unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      *out = decoded ? std::string_view(scratch_)
                     : text_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    if (c < 0x20 && options_.strict_strings) {
      return Error("unescaped control character in string");
    }
    if (c == '\\') {
      if (!decoded) {
        scratch_.assign(text_.data() + start, pos_ - start);
        decoded = true;
      }
      if (++pos_ >= text_.size()) break;
      char esc = text_[pos_];
      ++pos_;
      switch (esc) {
        case '"': scratch_ += '"'; continue;
        case '\\': scratch_ += '\\'; continue;
        case '/': scratch_ += '/'; continue;
        case 'b': scratch_ += '\b'; continue;
        case 'f': scratch_ += '\f'; continue;
        case 'n': scratch_ += '\n'; continue;
        case 'r': scratch_ += '\r'; continue;
        case 't': scratch_ += '\t'; continue;
        case 'u': {
          unsigned code = 0;
          GDLOG_RETURN_IF_ERROR(ReadHex4(&code));
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate escape");
            }
            pos_ += 2;
            unsigned low = 0;
            GDLOG_RETURN_IF_ERROR(ReadHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("unpaired high surrogate escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          EncodeUtf8(code, &scratch_);
          continue;
        }
        default:
          --pos_;
          return Error("bad escape");
      }
    }
    if (c < 0x80 || !options_.strict_strings) {
      if (decoded) scratch_ += static_cast<char>(c);
      ++pos_;
      continue;
    }
    // Raw multi-byte UTF-8.
    size_t len;
    unsigned cp, min_cp;
    if ((c & 0xE0) == 0xC0) {
      len = 2; cp = c & 0x1Fu; min_cp = 0x80;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3; cp = c & 0x0Fu; min_cp = 0x800;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4; cp = c & 0x07u; min_cp = 0x10000;
    } else {
      return Error("invalid UTF-8 byte");
    }
    if (pos_ + len > text_.size()) {
      return Error("truncated UTF-8 sequence");
    }
    for (size_t i = 1; i < len; ++i) {
      unsigned char b = static_cast<unsigned char>(text_[pos_ + i]);
      if ((b & 0xC0) != 0x80) return Error("invalid UTF-8 continuation");
      cp = (cp << 6) | (b & 0x3Fu);
    }
    if (cp < min_cp) return Error("overlong UTF-8 encoding");
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      return Error("UTF-8-encoded surrogate");
    }
    if (cp > 0x10FFFF) return Error("code point out of range");
    if (decoded) scratch_.append(text_.data() + pos_, len);
    pos_ += len;
  }
  return Error("unterminated string");
}

// RFC 8259 number grammar: -?int frac? exp?, where int is "0" or a
// nonzero-led digit run. strtod would also accept "+1", "01", ".5",
// "0x1p3" — forms other JSON tooling rejects, so scan the grammar
// explicitly and hand callers the raw text.
Status JsonReader::ReadNumber(std::string_view* text) {
  GDLOG_ASSIGN_OR_RETURN(Kind kind, Peek());
  if (kind != Kind::kNumber) return Error("expected number");
  size_t start = pos_;
  Consume('-');
  auto digits = [&]() -> size_t {
    size_t n = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++n;
    }
    return n;
  };
  if (Consume('0')) {
    // A leading zero stands alone ("0", "0.5"); "01" is not JSON.
  } else if (digits() == 0) {
    return Error("bad value");
  }
  if (Consume('.') && digits() == 0) return Error("bad number");
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (!Consume('+')) Consume('-');
    if (digits() == 0) return Error("bad number");
  }
  *text = text_.substr(start, pos_ - start);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// JsonValue — a tree built over the reader.
// ---------------------------------------------------------------------------

Status JsonValue::Build(JsonReader& reader, JsonValue* out) {
  GDLOG_ASSIGN_OR_RETURN(Kind kind, reader.Peek());
  out->kind_ = kind;
  std::string_view text;
  switch (kind) {
    case Kind::kObject: {
      GDLOG_RETURN_IF_ERROR(reader.BeginObject());
      std::string_view key;
      for (;;) {
        GDLOG_ASSIGN_OR_RETURN(bool more, reader.NextMember(&key));
        if (!more) return Status::OK();
        out->members_.emplace_back(std::string(key), JsonValue());
        GDLOG_RETURN_IF_ERROR(Build(reader, &out->members_.back().second));
      }
    }
    case Kind::kArray: {
      GDLOG_RETURN_IF_ERROR(reader.BeginArray());
      for (;;) {
        GDLOG_ASSIGN_OR_RETURN(bool more, reader.NextElement());
        if (!more) return Status::OK();
        out->array_.emplace_back();
        GDLOG_RETURN_IF_ERROR(Build(reader, &out->array_.back()));
      }
    }
    case Kind::kString:
      GDLOG_RETURN_IF_ERROR(reader.ReadString(&text));
      out->scalar_ = std::string(text);
      return Status::OK();
    case Kind::kNumber:
      GDLOG_RETURN_IF_ERROR(reader.ReadNumber(&text));
      out->scalar_ = std::string(text);
      return Status::OK();
    case Kind::kBool:
      return reader.ReadBool(&out->bool_);
    case Kind::kNull:
      return reader.ReadNull();
  }
  return Status::OK();
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parse(text, JsonParseOptions{});
}

Result<JsonValue> JsonValue::Parse(std::string_view text,
                                   const JsonParseOptions& options) {
  JsonReader reader(text, options);
  JsonValue value;
  GDLOG_RETURN_IF_ERROR(Build(reader, &value));
  GDLOG_RETURN_IF_ERROR(reader.Finish());
  return value;
}

double JsonValue::NumberAsDouble() const {
  return std::strtod(scalar_.c_str(), nullptr);
}

Result<long long> JsonNumberToInt(std::string_view text) {
  long long value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("json number out of int64 range: " +
                                   std::string(text));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("json number is not an integer: " +
                                   std::string(text));
  }
  return value;
}

Result<long long> JsonValue::NumberAsInt() const {
  return JsonNumberToInt(scalar_);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace gdlog
