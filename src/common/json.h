// Minimal JSON value + recursive-descent parser + writer.
//
// Covers the full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null) with object key order preserved. Originally a
// reader for files we or Perfetto-compatible tools produce; since the online
// scheduler service speaks length-prefixed JSON over a socket, Parse also
// accepts explicit limits for untrusted wire input: a document-size cap, a
// recursion-depth cap, and a defined duplicate-key policy. Values can also be
// built programmatically and serialized back with Dump() (the wire protocol's
// encoder), and Dump/Parse round-trips are exact for finite doubles.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace lyra {

// Parser limits for untrusted input. The default-constructed limits match the
// historical trusting behaviour except for the depth cap, which exists so no
// caller can be driven into stack exhaustion by "[[[[[...".
struct JsonParseLimits {
  // Maximum document size in bytes; 0 = unlimited.
  std::size_t max_bytes = 0;
  // Maximum nesting depth of arrays/objects.
  int max_depth = 256;
  // What to do when an object repeats a key. kKeepAll stores every pair in
  // order (lookup via Find is first-wins); kReject fails the parse.
  enum class DuplicateKeys { kKeepAll, kReject };
  DuplicateKeys duplicates = DuplicateKeys::kKeepAll;

  // The posture for wire input: 1 MiB cap, shallow nesting, duplicate keys
  // rejected (a duplicate key in a command is always a client bug).
  static JsonParseLimits Untrusted() {
    JsonParseLimits limits;
    limits.max_bytes = 1u << 20;
    limits.max_depth = 32;
    limits.duplicates = DuplicateKeys::kReject;
    return limits;
  }
};

// Escapes `raw` for embedding inside a JSON string literal (no surrounding
// quotes added). Control characters become \u00XX escapes.
std::string JsonEscape(const std::string& raw);

// Append-into-buffer variant of JsonEscape: no intermediate string. The
// serializer's hot path (every reply the service sends goes through it).
void JsonEscapeTo(const std::string& raw, std::string& out);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses one JSON document (trailing whitespace allowed, nothing else).
  static StatusOr<JsonValue> Parse(const std::string& text);
  static StatusOr<JsonValue> Parse(const std::string& text,
                                   const JsonParseLimits& limits);

  // Builders, for composing documents to Dump().
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; LYRA_CHECK on type mismatch. AsInt truncates toward
  // zero and saturates outside the int64 range.
  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  // Mutators; LYRA_CHECK on type mismatch. Set appends (first-wins lookup
  // means a repeated Set of the same key is shadowed, not replaced); Replace
  // overwrites the first occurrence of the key, appending when absent — the
  // mutator for rewriting a member of an existing document (the shard
  // router's job-id translation). All return *this so documents can be built
  // fluently.
  JsonValue& Set(std::string key, JsonValue value);
  JsonValue& Replace(const std::string& key, JsonValue value);
  JsonValue& Append(JsonValue value);

  // Object member lookup; nullptr when absent or not an object. With
  // duplicate keys (kKeepAll), the first occurrence wins.
  const JsonValue* Find(const std::string& key) const;

  // Convenience: Find(key) as a number/string/bool with a fallback.
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  std::string GetString(const std::string& key, std::string fallback = "") const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  // Serializes the value as compact JSON. Numbers print with enough digits
  // (%.17g) that Parse(Dump(v)) == v exactly; integral values in the int64
  // range print without an exponent or trailing ".0". All numbers must be
  // finite (JSON has no inf/nan; LYRA_CHECK enforces it).
  std::string Dump() const;

  // Appends the compact serialization to `out` without intermediate strings
  // (Dump is AppendTo into a buffer reserved at the estimated final size).
  // Callers assembling framed wire messages append directly into their send
  // buffer instead of concatenating Dump() results.
  void AppendTo(std::string& out) const;

  // Deep structural equality (numbers compare bit-exactly).
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Sets member `key` of the JSON object stored at `path` (a report such as
// BENCH_perf.json) to `section`, moving it last and keeping every other
// member as it was; a missing or unparsable file starts a fresh object.
// Writes with WriteFileAtomic, so a crash leaves the old report or the new
// one, never a truncated file.
Status MergeReportSection(const std::string& path, const std::string& key,
                          const JsonValue& section);

}  // namespace lyra

#endif  // SRC_COMMON_JSON_H_
