// Minimal JSON value, parser, and writer.
//
// FEAM's source phase bundles binary/library descriptions that must be
// copied between sites; the paper's implementation serialized them as flat
// files. We use JSON manifests so bundles are self-describing and the
// round-trip is testable. Supports the full JSON grammar: non-BMP code
// points write as \uXXXX surrogate pairs and parse back to UTF-8, so
// 4-byte sequences survive consumers whose \u decoders are BMP-only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace feam::support {

class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps key order deterministic for byte-stable bundle manifests.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : Json(static_cast<double>(n)) {}
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}
  Json(std::size_t n) : Json(static_cast<double>(n)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : Json(std::string(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(number_); }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  const Object& as_object() const { return object_; }
  Array& as_array() { return array_; }
  Object& as_object() { return object_; }

  // Object field access; returns a shared null for absent keys.
  const Json& operator[](std::string_view key) const;
  void set(std::string key, Json value);
  bool has(std::string_view key) const;

  // Convenience typed getters with defaults.
  std::string get_string(std::string_view key, std::string_view fallback = "") const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback = 0) const;
  bool get_bool(std::string_view key, bool fallback = false) const;

  // Serialization. indent == 0 -> compact one-line form.
  std::string dump(int indent = 0) const;

  // Parsing; nullopt on any syntax error.
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// The scalar writers Json::dump uses, for callers that serialize without
// building a tree (report::RunRecord::append_jsonl). Each appends exactly
// the bytes dump() gives for Json(s) / Json(n): one formatter, two paths.
// Strings escape '"', '\\' and control bytes, write non-BMP code points as
// surrogate pairs and invalid UTF-8 bytes as their Latin-1 \u escape.
void append_json_string(std::string& out, std::string_view s);
// Integral values of magnitude below 1e15 print as integers, the rest
// as %.17g.
void append_json_number(std::string& out, double n);

}  // namespace feam::support
