#pragma once

// Minimal JSON support shared by the RunReport, Chrome-trace and checkpoint
// writers and readers:
//  - json_num: the one number formatter — shortest round-trip %.17g, with
//    non-finite values written as null (strict JSON has no NaN/Inf and
//    chrome://tracing rejects them);
//  - json_parse / JsonValue: a recursive-descent parser into a small ordered
//    DOM. Deliberately strict (RFC 8259 grammar: no trailing commas, no
//    comments, no NaN/Inf; a depth cap against pathological nesting), so a
//    document it accepts also loads in chrome://tracing / Perfetto. Object
//    members keep insertion order and numbers keep their raw source token,
//    so parse -> re-emit can reproduce the input byte-for-byte.

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace dftfe::obs {

namespace json_detail {

struct Cursor {
  const char* p;
  const char* end;
  int depth = 0;
  bool eof() const { return p >= end; }
  char peek() const { return *p; }
};

inline void skip_ws(Cursor& c) {
  while (!c.eof() && (*c.p == ' ' || *c.p == '\t' || *c.p == '\n' || *c.p == '\r')) ++c.p;
}

inline bool parse_literal(Cursor& c, const char* lit) {
  while (*lit) {
    if (c.eof() || *c.p != *lit) return false;
    ++c.p;
    ++lit;
  }
  return true;
}

inline bool parse_string(Cursor& c) {
  if (c.eof() || *c.p != '"') return false;
  ++c.p;
  while (!c.eof()) {
    const unsigned char ch = static_cast<unsigned char>(*c.p);
    if (ch == '"') {
      ++c.p;
      return true;
    }
    if (ch < 0x20) return false;  // raw control characters must be escaped
    if (ch == '\\') {
      ++c.p;
      if (c.eof()) return false;
      const char esc = *c.p;
      if (esc == 'u') {
        ++c.p;
        for (int i = 0; i < 4; ++i, ++c.p)
          if (c.eof() || !std::isxdigit(static_cast<unsigned char>(*c.p))) return false;
        continue;
      }
      if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' && esc != 'n' &&
          esc != 'r' && esc != 't')
        return false;
    }
    ++c.p;
  }
  return false;
}

inline bool parse_number(Cursor& c) {
  if (!c.eof() && *c.p == '-') ++c.p;
  if (c.eof() || !std::isdigit(static_cast<unsigned char>(*c.p))) return false;
  if (*c.p == '0') {
    ++c.p;
  } else {
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  }
  if (!c.eof() && *c.p == '.') {
    ++c.p;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(*c.p))) return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  }
  if (!c.eof() && (*c.p == 'e' || *c.p == 'E')) {
    ++c.p;
    if (!c.eof() && (*c.p == '+' || *c.p == '-')) ++c.p;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(*c.p))) return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  }
  return true;
}

}  // namespace json_detail

/// JSON number: shortest round-trip form; non-finite values become null.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered JSON DOM node. Numbers keep the raw source token (`num_raw`) so a
/// value that round-trips through the DOM can be re-emitted exactly; as_num /
/// as_int interpret it on demand.
struct JsonValue {
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool b = false;
  std::string num_raw;  // untouched number token, e.g. "-1.5e-3"
  std::string str;      // decoded string payload
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order

  bool is_null() const { return kind == Kind::null; }
  bool is_object() const { return kind == Kind::object; }
  bool is_array() const { return kind == Kind::array; }

  /// First member with the given key, or nullptr.
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }

  double as_num() const {
    if (kind != Kind::number) return 0.0;
    return std::strtod(num_raw.c_str(), nullptr);
  }
  std::int64_t as_int() const {
    if (kind != Kind::number) return 0;
    return std::strtoll(num_raw.c_str(), nullptr, 10);
  }
  const std::string& as_str() const { return str; }
};

namespace json_detail {

inline bool build_value(Cursor& c, JsonValue& out);

inline bool build_string(Cursor& c, std::string& out) {
  const char* start = c.p;
  if (!parse_string(c)) return false;
  // Decode between the quotes. parse_string already validated escapes.
  out.clear();
  for (const char* p = start + 1; p < c.p - 1; ++p) {
    if (*p != '\\') {
      out.push_back(*p);
      continue;
    }
    ++p;
    switch (*p) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 1; i <= 4; ++i)
          code = code * 16 +
                 static_cast<unsigned>(
                     std::isdigit(static_cast<unsigned char>(p[i]))
                         ? p[i] - '0'
                         : std::tolower(static_cast<unsigned char>(p[i])) - 'a' + 10);
        p += 4;
        // UTF-8 encode the BMP code point (surrogate pairs are not combined;
        // the exporters never emit them).
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: return false;
    }
  }
  return true;
}

inline bool build_array(Cursor& c, JsonValue& out) {
  out.kind = JsonValue::Kind::array;
  ++c.p;  // consume '['
  skip_ws(c);
  if (!c.eof() && *c.p == ']') {
    ++c.p;
    return true;
  }
  while (true) {
    JsonValue elem;
    if (!build_value(c, elem)) return false;
    out.arr.push_back(std::move(elem));
    skip_ws(c);
    if (c.eof()) return false;
    if (*c.p == ']') {
      ++c.p;
      return true;
    }
    if (*c.p != ',') return false;
    ++c.p;
    skip_ws(c);
  }
}

inline bool build_object(Cursor& c, JsonValue& out) {
  out.kind = JsonValue::Kind::object;
  ++c.p;  // consume '{'
  skip_ws(c);
  if (!c.eof() && *c.p == '}') {
    ++c.p;
    return true;
  }
  while (true) {
    skip_ws(c);
    std::string key;
    if (!build_string(c, key)) return false;
    skip_ws(c);
    if (c.eof() || *c.p != ':') return false;
    ++c.p;
    JsonValue val;
    if (!build_value(c, val)) return false;
    out.obj.emplace_back(std::move(key), std::move(val));
    skip_ws(c);
    if (c.eof()) return false;
    if (*c.p == '}') {
      ++c.p;
      return true;
    }
    if (*c.p != ',') return false;
    ++c.p;
  }
}

inline bool build_value(Cursor& c, JsonValue& out) {
  if (++c.depth > 256) return false;
  skip_ws(c);
  if (c.eof()) return false;
  bool ok = false;
  switch (*c.p) {
    case '{': ok = build_object(c, out); break;
    case '[': ok = build_array(c, out); break;
    case '"':
      out.kind = JsonValue::Kind::string;
      ok = build_string(c, out.str);
      break;
    case 't':
      ok = parse_literal(c, "true");
      out.kind = JsonValue::Kind::boolean;
      out.b = true;
      break;
    case 'f':
      ok = parse_literal(c, "false");
      out.kind = JsonValue::Kind::boolean;
      out.b = false;
      break;
    case 'n':
      ok = parse_literal(c, "null");
      out.kind = JsonValue::Kind::null;
      break;
    default: {
      const char* start = c.p;
      ok = parse_number(c);
      if (ok) {
        out.kind = JsonValue::Kind::number;
        out.num_raw.assign(start, static_cast<std::size_t>(c.p - start));
      }
      break;
    }
  }
  --c.depth;
  return ok;
}

}  // namespace json_detail

/// Parse one JSON value into a DOM. Returns false (and leaves `out`
/// unspecified) on any syntax error or trailing garbage.
inline bool json_parse(const std::string& text, JsonValue& out) {
  json_detail::Cursor c{text.data(), text.data() + text.size()};
  if (!json_detail::build_value(c, out)) return false;
  json_detail::skip_ws(c);
  return c.eof();
}

}  // namespace dftfe::obs
