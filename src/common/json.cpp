#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <system_error>

#include "common/error.hpp"

namespace rrf::json {

namespace {

void indent_to(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_value(const Value& v, std::string& out, int indent, int depth);

void dump_array(const Array& a, std::string& out, int indent, int depth) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (indent > 0) indent_to(out, indent, depth + 1);
    dump_value(a[i], out, indent, depth + 1);
  }
  if (indent > 0) indent_to(out, indent, depth);
  out.push_back(']');
}

void dump_object(const Object& o, std::string& out, int indent, int depth) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out.push_back('{');
  for (std::size_t i = 0; i < o.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (indent > 0) indent_to(out, indent, depth + 1);
    out += escape(o[i].first);
    out.push_back(':');
    if (indent > 0) out.push_back(' ');
    dump_value(o[i].second, out, indent, depth + 1);
  }
  if (indent > 0) indent_to(out, indent, depth);
  out.push_back('}');
}

void dump_value(const Value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_number());
  } else if (v.is_string()) {
    out += escape(v.as_string());
  } else if (v.is_array()) {
    dump_array(v.as_array(), out, indent, depth);
  } else {
    dump_object(v.as_object(), out, indent, depth);
  }
}

/// Strict recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw DomainError("json parse error at byte " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return Value(parse_number());
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [existing, value] : members) {
        (void)value;
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return value;
  }

  /// UTF-8 encode a BMP codepoint (surrogate pairs are passed through as
  /// two 3-byte sequences; good enough for report tooling).
  static void append_codepoint(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0u | (cp >> 6)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    } else {
      out.push_back(static_cast<char>(0xE0u | (cp >> 12)));
      out.push_back(static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu)));
      out.push_back(static_cast<char>(0x80u | (cp & 0x3Fu)));
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("bad number exponent");
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec == std::errc::result_out_of_range) {
      pos_ = start;
      fail("number out of range");
    }
    if (ec != std::errc() || end != text_.data() + pos_) fail("bad number");
    return value;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  std::to_chars_result printed{};
  // Integral values within the exactly-representable range print as plain
  // integers: the shortest form of 1e15 is "1e+15", which does not read
  // (or diff) like the integer counters and window counts these usually
  // are.  (-0.0 takes the shortest path so the sign survives.)
  if (d == std::floor(d) && std::fabs(d) <= 9007199254740992.0 &&
      !(d == 0.0 && std::signbit(d))) {  // determinism-lint: allow(float-eq)
    printed = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    printed = std::to_chars(buf, buf + sizeof(buf), d);  // shortest round-trip
  }
  out.append(buf, printed.ptr);
}

bool Value::as_bool() const {
  if (!is_bool()) throw DomainError("json value is not a bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) throw DomainError("json value is not a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw DomainError("json value is not a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) throw DomainError("json value is not an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) throw DomainError("json value is not an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

[[noreturn]] void raise(Fail fail, const std::string& message) {
  fail(message);
  throw DomainError(message);  // `fail` must throw; never fall through
}

[[noreturn]] void raise_type(Fail fail, const char* key, const char* type) {
  raise(fail, std::string("field '") + key + "' is not " + type);
}

}  // namespace

const Value& field(const Value& object, const char* key, Fail fail) {
  const Value* v = object.find(key);
  if (v == nullptr) raise(fail, std::string("missing field '") + key + "'");
  return *v;
}

double num_field(const Value& object, const char* key, Fail fail) {
  const Value& v = field(object, key, fail);
  if (!v.is_number()) raise_type(fail, key, "a number");
  return v.as_number();
}

std::size_t size_field(const Value& object, const char* key, Fail fail) {
  const double d = num_field(object, key, fail);
  if (!(d >= 0.0 && d <= 9007199254740992.0 && d == std::floor(d))) {
    raise_type(fail, key, "a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

std::int32_t int_field(const Value& object, const char* key, Fail fail) {
  const double d = num_field(object, key, fail);
  if (!(d >= -2147483648.0 && d <= 2147483647.0 && d == std::floor(d))) {
    raise_type(fail, key, "a 32-bit integer");
  }
  return static_cast<std::int32_t>(d);
}

const std::string& str_field(const Value& object, const char* key,
                             Fail fail) {
  const Value& v = field(object, key, fail);
  if (!v.is_string()) raise_type(fail, key, "a string");
  return v.as_string();
}

bool bool_field(const Value& object, const char* key, Fail fail) {
  const Value& v = field(object, key, fail);
  if (!v.is_bool()) raise_type(fail, key, "a bool");
  return v.as_bool();
}

const Array& array_field(const Value& object, const char* key, Fail fail) {
  const Value& v = field(object, key, fail);
  if (!v.is_array()) raise_type(fail, key, "an array");
  return v.as_array();
}

std::size_t write_line(std::ostream& out, const Value& value, Fail fail) {
  const std::string line = value.dump();
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.put('\n');
  out.flush();
  if (!out) raise(fail, "write failed");
  return line.size() + 1;
}

Value check_header(const Value& header, std::string_view schema,
                   int version, Fail fail) {
  if (!header.is_object()) raise(fail, "header is not an object");
  const std::string& tag = str_field(header, "schema", fail);
  if (tag != schema) {
    raise(fail, "schema tag '" + tag + "' is not '" + std::string(schema) +
                    "'");
  }
  const double found = num_field(header, "version", fail);
  if (found != static_cast<double>(version)) {
    raise(fail, "unsupported version " + Value(found).dump() +
                    " (this build reads " + std::to_string(version) + ")");
  }
  const Value* build = header.find("build");
  if (build == nullptr) return Value();
  if (!build->is_object()) raise_type(fail, "build", "an object");
  return *build;
}

void RecordWriter::write(const Value& record) {
  if (closed_) raise(fail_, "record after the close line");
  bytes_ += write_line(out_, record, fail_);
}

bool RecordWriter::close(const Value& close_line) {
  if (closed_) return false;
  closed_ = true;  // set first: a failed close write is not retried
  if (bytes_ == 0) return false;
  bytes_ += write_line(out_, close_line, fail_);
  return true;
}

bool read_lines(
    std::istream& in, Fail fail,
    const std::function<void(const Value&)>& on_header,
    const std::function<bool(std::size_t, const Value&)>& on_record) {
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  bool closed = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto where = [&] { return "line " + std::to_string(line_no); };
    if (closed) raise(fail, where() + ": record after the close line");
    Value value;
    try {
      value = Value::parse(line);
    } catch (const DomainError& e) {
      // getline sets eof only on a final line that lacks its newline.
      if (have_header && in.eof()) return true;
      raise(fail, where() + ": " + e.what());
    }
    try {
      if (have_header) {
        closed = on_record(line_no, value);
      } else {
        on_header(value);
        have_header = true;
      }
    } catch (const DomainError& e) {
      throw DomainError(std::string(e.what()) + " at " + where());
    }
  }
  if (!have_header) raise(fail, "empty stream (no header line)");
  return false;
}

}  // namespace rrf::json
