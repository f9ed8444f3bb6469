#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace fsda::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_string(const std::string& s) {
  // Quoted in place, not as `"\"" + std::string`: GCC 12's -O3 -Wrestrict
  // misfires on that form.
  std::string out = json_escape(s);
  out.insert(out.begin(), '"');
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf, end);
}

std::string json_number(std::uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Parsing

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::Number) ? v->number : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::String) ? v->string
                                                   : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::String;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::Bool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.type = JsonValue::Type::Bool;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.type = JsonValue::Type::Null;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Object;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) return false;
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::Array;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Encode as UTF-8 (surrogate pairs are passed through as two
          // 3-byte sequences; our emitters only escape control chars).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_) return false;
    out.type = JsonValue::Type::Number;
    out.number = value;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace fsda::obs
