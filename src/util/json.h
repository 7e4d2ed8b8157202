// Minimal JSON value, parser and serializer.
//
// The PiCloud management plane speaks JSON over its RESTful API (paper
// §II-C: "a bespoke administration API supported by daemons on the pimaster
// and on individual Pi devices"), so the repo carries its own dependency-free
// implementation. Supports the full JSON data model except that numbers are
// stored as double (adequate for management payloads: counters, loads,
// sizes up to 2^53).
//
// Messages inside the simulation carry Json values, not their text; the
// encoder runs at the boundaries (/metrics, /trace, scenario and
// counterexample files) and in dump_size(), which the fabric charges.
#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace picloud::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys ordered -> deterministic serialization, which the
// tests rely on.
using JsonObject = std::map<std::string, Json>;

// A JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}                 // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}               // NOLINT
  // JSON cannot spell NaN or +-inf, and dump() writes -0 as 0, so those
  // enter as null and +0: every value equals the parse of its own dump.
  Json(double d)                                               // NOLINT
      : type_(std::isfinite(d) ? Type::kNumber : Type::kNull),
        num_(std::isfinite(d) && d != 0 ? d : 0.0) {}
  Json(int i) : type_(Type::kNumber), num_(i) {}               // NOLINT
  Json(unsigned u) : type_(Type::kNumber), num_(u) {}          // NOLINT
  Json(long long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}  // NOLINT
  Json(unsigned long long u) : type_(Type::kNumber), num_(static_cast<double>(u)) {}  // NOLINT
  Json(long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}       // NOLINT
  Json(unsigned long u) : type_(Type::kNumber), num_(static_cast<double>(u)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}       // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(JsonArray a);                                           // NOLINT
  Json(JsonObject o);                                          // NOLINT

  Json(const Json&);
  Json(Json&&) noexcept;
  Json& operator=(const Json&);
  Json& operator=(Json&&) noexcept;
  ~Json();

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors. as_bool/as_number/as_int/as_array/as_object return
  // false, 0 or an empty container on a value of another type. as_string
  // returns "" on null and aborts (PICLOUD_CHECK, every build) on any other
  // type, so check is_string() before reading a string from received data.
  // mutable_array/mutable_object turn null into an empty container and
  // abort on any other type.
  bool as_bool() const { return is_bool() ? bool_ : false; }
  double as_number() const { return is_number() ? num_ : 0.0; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(as_number()); }
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& mutable_array();
  JsonObject& mutable_object();

  // Object helpers. get() returns null Json for missing keys.
  bool has(const std::string& key) const;
  const Json& get(const std::string& key) const;
  // get_or with a typed default.
  double get_number(const std::string& key, double fallback = 0.0) const;
  std::string get_string(const std::string& key, std::string fallback = "") const;
  bool get_bool(const std::string& key, bool fallback = false) const;
  // Sets key -> value on an object (converts a null value to object first).
  Json& set(const std::string& key, Json value);
  // Appends to an array (converts a null value to array first).
  Json& push_back(Json value);

  size_t size() const;
  const Json& operator[](size_t i) const;  // array index

  // Serialization. dump() is compact; pretty() indents with two spaces.
  // dump_size() is dump().size(), computed without building the string.
  std::string dump() const;
  std::string pretty() const;
  size_t dump_size() const;

  // Parsing. Accepts strict JSON (RFC 8259 numbers: no '+', leading zeros,
  // or bare '.'); returns parse errors with position info.
  static Result<Json> parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // unique_ptr keeps Json small and breaks the recursive type.
  std::unique_ptr<JsonArray> arr_;
  std::unique_ptr<JsonObject> obj_;
};

}  // namespace picloud::util
