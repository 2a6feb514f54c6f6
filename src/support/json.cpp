#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace feam::support {

namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

// Length of the valid UTF-8 sequence starting at s[i], or 0 when the lead
// byte, a continuation byte, or the codepoint range (overlongs, surrogates,
// > U+10FFFF) is invalid. Strings reaching the writer are not guaranteed to
// be UTF-8 — synthetic ELF .comment sections and fault-injected shell
// output carry arbitrary bytes — and emitting those raw would make the
// JSONL/trace output unparseable.
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char lead = byte(i);
  std::size_t len;
  unsigned char lo = 0x80, hi = 0xbf;  // valid range for the second byte
  if (lead < 0x80) return 1;
  if (lead >= 0xc2 && lead <= 0xdf) {
    len = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    len = 3;
    if (lead == 0xe0) lo = 0xa0;        // reject overlong
    if (lead == 0xed) hi = 0x9f;        // reject surrogates
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    len = 4;
    if (lead == 0xf0) lo = 0x90;        // reject overlong
    if (lead == 0xf4) hi = 0x8f;        // reject > U+10FFFF
  } else {
    return 0;  // stray continuation byte or 0xc0/0xc1/0xf5..0xff
  }
  if (i + len > s.size()) return 0;
  if (byte(i + 1) < lo || byte(i + 1) > hi) return 0;
  for (std::size_t k = 2; k < len; ++k) {
    if ((byte(i + k) & 0xc0) != 0x80) return 0;
  }
  return len;
}

// A \uXXXX escape of `code` in lowercase hex, as "\\u%04x" prints it.
void append_u_escape(std::string& out, unsigned code) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char escape[6] = {'\\', 'u', kHex[(code >> 12) & 0xf],
                          kHex[(code >> 8) & 0xf], kHex[(code >> 4) & 0xf],
                          kHex[code & 0xf]};
  out.append(escape, sizeof escape);
}

// Bytes that need no escaping: printable ASCII other than '"' and '\\'.
bool is_plain(unsigned char byte) {
  return byte >= 0x20 && byte < 0x80 && byte != '"' && byte != '\\';
}

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    return number();
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            const auto hex4 = [&]() -> std::optional<unsigned> {
              if (pos_ + 4 > text_.size()) return std::nullopt;
              unsigned code = 0;
              for (int i = 0; i < 4; ++i) {
                const char h = text_[pos_++];
                code <<= 4;
                if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                else return std::nullopt;
              }
              return code;
            };
            const auto high = hex4();
            if (!high) return std::nullopt;
            unsigned code = *high;
            if (code >= 0xd800 && code <= 0xdbff) {
              // High surrogate: must pair with an immediately following
              // \uDC00..\uDFFF escape; together they name one non-BMP
              // codepoint.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return std::nullopt;
              }
              pos_ += 2;
              const auto low = hex4();
              if (!low || *low < 0xdc00 || *low > 0xdfff) return std::nullopt;
              code = 0x10000 + ((code - 0xd800) << 10) + (*low - 0xdc00);
            } else if (code >= 0xdc00 && code <= 0xdfff) {
              return std::nullopt;  // lone low surrogate
            }
            // Encode the codepoint as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xf0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    double v = 0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) return std::nullopt;
    return Json(v);
  }

  std::optional<Json> array() {
    if (!consume('[')) return std::nullopt;
    Json::Array items;
    skip_ws();
    if (consume(']')) return Json(std::move(items));
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      if (consume(']')) return Json(std::move(items));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> object() {
    if (!consume('{')) return std::nullopt;
    Json::Object fields;
    skip_ws();
    if (consume('}')) return Json(std::move(fields));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      fields.emplace(std::move(*key), std::move(*v));
      if (consume('}')) return Json(std::move(fields));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t i = 0;
  while (i < s.size()) {
    // Copy the plain run up to the next byte that needs attention in one
    // append; records are mostly paths and identifiers.
    std::size_t run = i;
    while (run < s.size() && is_plain(static_cast<unsigned char>(s[run]))) {
      ++run;
    }
    out.append(s.data() + i, run - i);
    i = run;
    if (i == s.size()) break;

    const unsigned char byte = static_cast<unsigned char>(s[i]);
    switch (byte) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      default: break;
    }
    if (byte < 0x20) {
      append_u_escape(out, byte);
      ++i;
    } else if (const std::size_t len = utf8_sequence_length(s, i); len > 0) {
      if (len == 4) {
        // Non-BMP codepoint: escape as a UTF-16 surrogate pair. Passing
        // the 4-byte sequence raw is valid JSON, but consumers with
        // BMP-only \u decoders (including older versions of our own
        // parser) mangle it on a re-escape round trip.
        const auto cont = [&](std::size_t k) {
          return static_cast<unsigned>(s[i + k]) & 0x3fu;
        };
        const unsigned code =
            ((static_cast<unsigned>(byte) & 0x07u) << 18) |
            (cont(1) << 12) | (cont(2) << 6) | cont(3);
        const unsigned v = code - 0x10000;
        append_u_escape(out, 0xd800 + (v >> 10));
        append_u_escape(out, 0xdc00 + (v & 0x3ff));
      } else {
        out.append(s.data() + i, len);
      }
      i += len;
    } else {
      // Invalid byte: escape as its Latin-1 codepoint so the document
      // stays valid JSON and the byte value survives in the escape.
      append_u_escape(out, byte);
      ++i;
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double n) {
  char buf[32];
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    const auto end = std::to_chars(buf, buf + sizeof buf,
                                   static_cast<std::int64_t>(n)).ptr;
    out.append(buf, end);
  } else {
    const int len = std::snprintf(buf, sizeof buf, "%.17g", n);
    out.append(buf, static_cast<std::size_t>(len));
  }
}

const Json& Json::operator[](std::string_view key) const {
  if (type_ == Type::kObject) {
    const auto it = object_.find(key);
    if (it != object_.end()) return it->second;
  }
  return null_json();
}

void Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  object_.insert_or_assign(std::move(key), std::move(value));
}

bool Json::has(std::string_view key) const {
  return type_ == Type::kObject && object_.find(key) != object_.end();
}

std::string Json::get_string(std::string_view key, std::string_view fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.as_string() : std::string(fallback);
}

std::int64_t Json::get_int(std::string_view key, std::int64_t fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.as_int() : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.as_bool() : fallback;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_json_number(out, number_); break;
    case Type::kString: append_json_string(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) { out += "[]"; break; }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (indent > 0) out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) { out += "{}"; break; }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        if (indent > 0) out += pad;
        append_json_string(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
        if (++i < object_.size()) out += ',';
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace feam::support
