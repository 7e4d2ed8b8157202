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
//
// Representation. A Json is a tagged union of at most 40 bytes: null, bool
// and number sit in it directly, and so do a string, an array (a vector of
// Json) and an object (JsonObject), with no pointer hop in between. A
// JsonObject keeps its members in one vector, sorted by key in byte order
// (std::string::compare), which is the order dump() writes: the bytes do
// not depend on insertion order, and appending a key that sorts after the
// last one takes constant time. Copying an object with short keys and
// scalar values costs one allocation.
//
// Repeated keys. An initializer list keeps a key's *first* value, as
// std::map does: JsonObject{{"a", 1}, {"a", 2}} holds a = 1. Parsing keeps
// the *last*, as set() and insert_or_assign() do: {"a":1,"a":2} reads as
// a = 2.
//
// Lifetimes. Inserting a key into an object (operator[] on a missing key,
// insert_or_assign, Json::set) may move every member of that object, so it
// invalidates references and iterators into it, as push_back does for an
// array; std::map kept them valid. Do not hold a Json& from operator[],
// get() or mutable_object() across an insert into the same object.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace picloud::util {

class Json;
using JsonArray = std::vector<Json>;

// A JSON object: members in ascending byte-wise key order, each key once.
// Iteration and find() are read-only, so no caller can break the order;
// write through operator[] or insert_or_assign.
class JsonObject {
 public:
  using value_type = std::pair<std::string, Json>;
  using const_iterator = std::vector<value_type>::const_iterator;

  JsonObject() = default;
  // A repeated key keeps its first value.
  JsonObject(std::initializer_list<value_type> members);

  // Defined after Json, which they need complete.
  const_iterator begin() const;
  const_iterator end() const;
  size_t size() const;
  bool empty() const;

  const_iterator find(std::string_view key) const;
  size_t count(std::string_view key) const;
  // The value at `key`, inserted as null if missing.
  Json& operator[](std::string_view key);
  // Sets `key` to `value`; `.second` is true if the key was new.
  std::pair<const_iterator, bool> insert_or_assign(std::string key,
                                                   Json value);

  bool operator==(const JsonObject& other) const;

 private:
  // Index of the first member whose key is not less than `key`: O(1) when
  // `key` sorts after every member, a binary search otherwise.
  size_t lower_bound(std::string_view key) const;
  // Inserts before index `at`; the first insert reserves room for a small
  // message, so it does not regrow 1 -> 2 -> 4.
  void insert_at(size_t at, std::string&& key, Json&& value);

  std::vector<value_type> members_;
};

// A JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}                 // NOLINT
  Json(bool b) : bool_(b), type_(Type::kBool) {}               // NOLINT
  // JSON cannot spell NaN or +-inf, and dump() writes -0 as 0, so those
  // enter as null and +0: every value equals the parse of its own dump.
  Json(double d)                                               // NOLINT
      : num_(std::isfinite(d) && d != 0 ? d : 0.0),
        type_(std::isfinite(d) ? Type::kNumber : Type::kNull) {}
  Json(int i) : num_(i), type_(Type::kNumber) {}               // NOLINT
  Json(unsigned u) : num_(u), type_(Type::kNumber) {}          // NOLINT
  Json(long long i) : num_(static_cast<double>(i)), type_(Type::kNumber) {}  // NOLINT
  Json(unsigned long long u) : num_(static_cast<double>(u)), type_(Type::kNumber) {}  // NOLINT
  Json(long i) : num_(static_cast<double>(i)), type_(Type::kNumber) {}       // NOLINT
  Json(unsigned long u) : num_(static_cast<double>(u)), type_(Type::kNumber) {}  // NOLINT
  Json(const char* s) : str_(s), type_(Type::kString) {}       // NOLINT
  Json(std::string s) : str_(std::move(s)), type_(Type::kString) {}  // NOLINT
  Json(std::string_view s) : str_(s), type_(Type::kString) {}  // NOLINT
  Json(JsonArray a) : arr_(std::move(a)), type_(Type::kArray) {}     // NOLINT
  Json(JsonObject o) : obj_(std::move(o)), type_(Type::kObject) {}   // NOLINT

  Json(const Json& other) : type_(Type::kNull) { construct(other); }
  Json(Json&& other) noexcept : type_(Type::kNull) {
    construct(std::move(other));
  }
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json() {
    if (owns_memory()) destroy();
  }

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
  bool has(std::string_view key) const;
  const Json& get(std::string_view key) const;
  // get_or with a typed default.
  double get_number(std::string_view key, double fallback = 0.0) const;
  std::string get_string(std::string_view key, std::string fallback = "") const;
  bool get_bool(std::string_view key, bool fallback = false) const;
  // Sets key -> value on an object (converts a null value to object first).
  Json& set(std::string key, Json value);
  // Appends to an array (converts a null value to array first).
  Json& push_back(Json value);

  size_t size() const;
  const Json& operator[](size_t i) const;  // array index

  // Serialization. dump() is compact; pretty() indents with two spaces.
  // dump_size() is dump().size(), computed without building the string.
  std::string dump() const;
  std::string pretty() const;
  size_t dump_size() const;
  // Json(d).dump_size() and Json(s).dump_size(), from the same encoder and
  // without building a value: NaN and +-inf size as null, -0 as 0.
  static size_t number_size(double d);
  static size_t string_size(std::string_view s);

  // Parsing. Accepts strict JSON (RFC 8259 numbers: no '+', leading zeros,
  // or bare '.'); returns parse errors with position info.
  static Result<Json> parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  // Builds the member `other` holds in this value's storage, which holds
  // nothing (a null).
  void construct(const Json& other);
  void construct(Json&& other) noexcept;
  // construct() for a string, array or object, kept out of line: inlined,
  // GCC cannot see that a scalar never takes these branches and warns.
  void move_owned(Json&& other) noexcept;
  // A string, array or object member owns memory; the scalars do not.
  bool owns_memory() const {
    return type_ == Type::kString || type_ == Type::kArray ||
           type_ == Type::kObject;
  }
  // Ends the member's lifetime; the value is null afterwards.
  void destroy() noexcept;

  // The member `type_` names is the live one; null has none.
  union {
    bool bool_;
    double num_;
    std::string str_;
    JsonArray arr_;
    JsonObject obj_;
  };
  Type type_;
};

inline void Json::construct(Json&& other) noexcept {
  switch (other.type_) {
    case Type::kNull: break;
    case Type::kBool: bool_ = other.bool_; break;
    case Type::kNumber: num_ = other.num_; break;
    default: move_owned(std::move(other)); return;
  }
  type_ = other.type_;
}

inline Json& Json::operator=(Json&& other) noexcept {
  if (this != &other) {
    // `other` may live inside this array or object: keep the old value
    // alive until `other` has moved out.
    Json old;
    if (is_array() || is_object()) old.construct(std::move(*this));
    if (owns_memory()) destroy();
    construct(std::move(other));
  }
  return *this;
}

inline Json& Json::operator=(const Json& other) {
  if (this == &other) return *this;
  // Copy first if `other` may live inside this value.
  if (owns_memory()) return *this = Json(other);
  construct(other);
  return *this;
}

inline JsonObject::const_iterator JsonObject::begin() const {
  return members_.begin();
}
inline JsonObject::const_iterator JsonObject::end() const {
  return members_.end();
}
inline size_t JsonObject::size() const { return members_.size(); }
inline bool JsonObject::empty() const { return members_.empty(); }

inline size_t JsonObject::lower_bound(std::string_view key) const {
  if (members_.empty() || members_.back().first < key) return members_.size();
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), key,
      [](const value_type& m, std::string_view k) { return m.first < k; });
  return static_cast<size_t>(it - members_.begin());
}

inline JsonObject::const_iterator JsonObject::find(std::string_view key) const {
  const size_t i = lower_bound(key);
  if (i == members_.size() || members_[i].first != key) return end();
  return begin() + static_cast<std::ptrdiff_t>(i);
}

inline size_t JsonObject::count(std::string_view key) const {
  return find(key) != end();
}

inline Json& JsonObject::operator[](std::string_view key) {
  const size_t i = lower_bound(key);
  if (i == members_.size() || members_[i].first != key) {
    insert_at(i, std::string(key), Json());
  }
  return members_[i].second;
}

inline std::pair<JsonObject::const_iterator, bool> JsonObject::insert_or_assign(
    std::string key, Json value) {
  const size_t i = lower_bound(key);
  const bool inserted = i == members_.size() || members_[i].first != key;
  if (inserted) {
    insert_at(i, std::move(key), std::move(value));
  } else {
    members_[i].second = std::move(value);
  }
  return {begin() + static_cast<std::ptrdiff_t>(i), inserted};
}

}  // namespace picloud::util
