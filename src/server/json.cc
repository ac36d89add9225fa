#include "server/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no infinity/NaN; the engine's unreachable sentinels reach
    // the wire as null.
    *out += "null";
    return;
  }
  double integral;
  if (std::modf(d, &integral) == 0.0 && std::fabs(d) < 1e15) {
    *out += StringFormat("%.0f", d);
    return;
  }
  // Shortest representation that round-trips a double.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == d) {
    char shorter[32];
    for (int prec = 15; prec <= 16; ++prec) {
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
      if (std::strtod(shorter, nullptr) == d) {
        *out += shorter;
        return;
      }
    }
  }
  *out += buf;
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
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
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
    *out = JsonValue::Number(
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr));
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
