#include "server/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "common/string_util.h"

namespace acquire {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Raw(std::string dumped) {
  JsonValue v;
  v.kind_ = Kind::kRaw;
  v.string_ = std::move(dumped);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::Append(JsonValue value) {
  assert(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

namespace {

// The escape a byte needs inside a JSON string, or nullptr for none.
// Other control bytes are written \u00XX.
const char* ShortEscape(unsigned char c) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    case '\b':
      return "\\b";
    case '\f':
      return "\\f";
    default:
      return nullptr;
  }
}

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  const char* run = s.data();  // start of the bytes not yet appended
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(run, p);
    run = p + 1;
    if (const char* escape = ShortEscape(c)) {
      *out += escape;
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
      out->append(code, sizeof(code));
    }
  }
  out->append(run, end);
  out->push_back('"');
}

// Writes `d` as %.0f when it is integral with |d| < 1e15, otherwise as the
// first of %.15g, %.16g and %.17g that reads back exactly. std::to_chars
// with a precision is defined as printf with that precision, so each form
// is one call.
void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no infinity/NaN; the engine's unreachable sentinels reach
    // the wire as null.
    *out += "null";
    return;
  }
  using std::chars_format;
  char buf[32];
  char* const end = buf + sizeof(buf);
  double integral;
  if (std::modf(d, &integral) == 0.0 && std::fabs(d) < 1e15) {
    out->append(buf, std::to_chars(buf, end, d, chars_format::fixed, 0).ptr);
    return;
  }
  for (int precision = 15; precision <= 16; ++precision) {
    char* const last =
        std::to_chars(buf, end, d, chars_format::general, precision).ptr;
    double parsed = 0.0;
    if (std::from_chars(buf, last, parsed).ec == std::errc() && parsed == d) {
      out->append(buf, last);
      return;
    }
  }
  out->append(buf, std::to_chars(buf, end, d, chars_format::general, 17).ptr);
}

}  // namespace

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      AppendNumber(number_, out);
      break;
    case Kind::kString:
      AppendEscaped(string_, out);
      break;
    case Kind::kRaw:
      *out += string_;
      break;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendEscaped(members_[i].first, out);
        out->push_back(':');
        members_[i].second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser. `pos` tracks the byte offset for error
/// messages; depth is bounded so hostile input cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Run() {
    JsonValue v;
    ACQ_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError(
        StringFormat("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("expected '") + literal + "'");
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        ACQ_RETURN_IF_ERROR(Expect("null"));
        *out = JsonValue::Null();
        return Status::OK();
      case 't':
        ACQ_RETURN_IF_ERROR(Expect("true"));
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        ACQ_RETURN_IF_ERROR(Expect("false"));
        *out = JsonValue::Bool(false);
        return Status::OK();
      case '"': {
        std::string s;
        ACQ_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue elem;
      ACQ_RETURN_IF_ERROR(ParseValue(&elem, depth + 1));
      out->Append(std::move(elem));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      ACQ_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      ACQ_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      // Append the run of plain bytes up to the next quote, backslash or
      // control byte in one call.
      size_t run_end = pos_;
      while (run_end < text_.size()) {
        const unsigned char b = static_cast<unsigned char>(text_[run_end]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++run_end;
      }
      out->append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ == text_.size()) break;
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Error("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          uint32_t cp = 0;
          ACQ_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            ACQ_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
      // sign consumed; digits must follow
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid value");
    }
    if (text_[pos_] == '0') {
      // RFC 8259: no leading zeros ("0" is fine, "01" is not).
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      return Error("leading zero in number");
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The token is validated JSON, so from_chars reads all of it. Out of
    // range it leaves the value unset, and strtod gives +-inf on overflow
    // (1e999, which the SUBMIT gamma and timeout_ms checks refuse) and a
    // signed 0 on underflow (1e-400).
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result read = std::from_chars(first, last, value);
    if (read.ec == std::errc::result_out_of_range) {
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).Run();
}

}  // namespace acquire
