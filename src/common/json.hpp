// The one JSON text codec: an ordered-object value tree with a writer
// (dump) and a strict recursive-descent parser, plus the JSON Lines
// ("JSONL", one value per line) record-stream framing that the flight
// recorder and the telemetry journal share.
//
// Numbers print with std::to_chars (shortest round-trip, locale-free) and
// parse with std::from_chars, so every finite double survives a dump/parse
// cycle bit for bit.  Object keys keep insertion order so emitted reports
// diff cleanly across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rrf::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered object (duplicate keys are rejected by the parser).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}  // NOLINT(runtime/explicit)
  Value(bool b) : v_(b) {}                // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}              // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<double>(i)) {}  // NOLINT(runtime/explicit)
  Value(std::size_t u)                          // NOLINT(runtime/explicit)
      : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(Array a) : v_(std::move(a)) {}          // NOLINT(runtime/explicit)
  Value(Object o) : v_(std::move(o)) {}         // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw DomainError on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Serialize.  `indent > 0` pretty-prints with that many spaces per
  /// level; `indent == 0` emits the compact single-line form.  Non-finite
  /// numbers render as null (JSON has no NaN/Inf).
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete document (trailing garbage is an error).
  /// Throws DomainError with a byte offset on malformed input, including
  /// a number no double can hold: "number out of range" covers overflow
  /// (1e999) and underflow to zero (1e-400).
  static Value parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Convenience: quote + escape a string literal as JSON.
std::string escape(std::string_view s);

/// Appends `d` as dump() prints a number: shortest round-trip digits, an
/// integral value up to 2^53 as a plain integer, a non-finite one as null.
void append_number(std::string& out, double d);

/// Typed member readers shared by the JSON loaders.  `fail` is the
/// loader's own error function: it throws with the loader's prefix
/// ("flightrec: ", "journal: ", ...) and must not return.
using Fail = void (*)(const std::string& message);

/// The member `key`; fails when absent.
const Value& field(const Value& object, const char* key, Fail fail);
double num_field(const Value& object, const char* key, Fail fail);
/// A non-negative integer no larger than 2^53, so the cast to size_t is
/// defined and every value in range is exact.
std::size_t size_field(const Value& object, const char* key, Fail fail);
/// An integer in the int32 range.
std::int32_t int_field(const Value& object, const char* key, Fail fail);
const std::string& str_field(const Value& object, const char* key,
                             Fail fail);
bool bool_field(const Value& object, const char* key, Fail fail);
const Array& array_field(const Value& object, const char* key, Fail fail);

// ---- JSON Lines record streams ----
//
// The flight recorder and the telemetry journal share one framing:
//   line 1    — a header object carrying "schema" (the format's tag),
//               "version" and, optionally, the producer's "build" stamp;
//   lines 2.. — one compact record per line, flushed as it is written,
//               so a killed writer loses at most the line in flight;
//   last line — one close line (the flight trailer, the journal's end
//               record), written once on a clean shutdown.  Nothing may
//               follow it; its absence marks a run that did not finish.
// The kill rule: every line the writer finished ends in a newline, so a
// final line without one that does not parse is the record a killed
// writer left half written.  The reader drops it and reports it (the
// loaders' `truncated_tail`).  Any other line that does not parse,
// including a cut header, fails the load.

/// Writes `value` as one compact line (dump + '\n') and flushes it.
/// Calls `fail("write failed")` when the stream is bad afterwards (a full
/// disk, a closed pipe).  Returns the bytes written.
std::size_t write_line(std::ostream& out, const Value& value, Fail fail);

/// Checks a header's (or a whole document's) "schema" tag and "version",
/// and returns its build stamp: the "build" object, or null when there is
/// none (files written before the stamp existed).
Value check_header(const Value& header, std::string_view schema,
                   int version, Fail fail);

/// The writing side of a record stream over `out` (not owned).
class RecordWriter {
 public:
  RecordWriter(std::ostream& out, Fail fail) : out_(out), fail_(fail) {}

  /// Writes one record line (the first one is the header).  Fails with
  /// "record after the close line" once the stream is closed.
  void write(const Value& record);
  /// Ends the stream with `close_line`; a stream without a header gets
  /// none.  Later calls do nothing.  Returns true when it wrote the line.
  /// Owners call it from an idempotent finish() that their destructors
  /// call, swallowing a failed write.
  bool close(const Value& close_line);

  bool closed() const { return closed_; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::ostream& out_;
  Fail fail_;
  std::uint64_t bytes_{0};
  bool closed_{false};
};

/// Reads a record stream: `on_header` gets the first non-empty line and
/// `on_record(line_no, value)` each later one (lines numbered from 1),
/// returning true for the close line.  An error either one throws is
/// rethrown naming its line.  Fails on an empty stream, on a line that is
/// not JSON ("line N: json parse error ...") and on a record after the
/// close line, except that it drops the kill rule's cut final line.
/// Returns true when it dropped one.
bool read_lines(
    std::istream& in, Fail fail,
    const std::function<void(const Value&)>& on_header,
    const std::function<bool(std::size_t, const Value&)>& on_record);

}  // namespace rrf::json
