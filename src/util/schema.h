// Declarative message schemas: a struct declares its JSON members once, in a
// field table, and gets its encoded size, its Json value and its decoder
// from that one table.
//
//   struct Ping : util::JsonSchema<Ping> {
//     std::uint64_t id = 0;
//     std::optional<std::string> note;
//     static constexpr auto json_fields() {
//       return std::tuple{util::field("id", &Ping::id),
//                         util::field("note", &Ping::note)};
//     }
//   };
//
// The table lists keys in the byte order Json::dump writes an object's
// members (a table out of order does not compile), so to_json().dump() is
// the text the same value built as a Json object would dump to, and
// wire_size() is its length, computed member by member with the encoder's
// own number and string sizing (Json::number_size / Json::string_size) and
// without building anything.
//
// Member types: integers, double, bool, std::string, a small enum written
// as a string (see JsonEnum), a value written as the string its
// to_string() returns (see JsonText; an address is one), another schema'd
// struct written as a nested object, std::vector of any member type but
// std::optional written as an array, util::Json for a free-form body, and
// std::optional of any of these but Json. An optional member is written
// only when it holds a value, and a Json member only when it is not null;
// every other member is always written. A double follows Json(double):
// NaN and +-inf are written as null (and read back from null as NaN), -0
// as 0.
//
// from_json() reads an object: a member's key must hold a value of its
// type (a number in range for an integer, a string its parse() accepts for
// a JsonText value, an array whose every element reads as the element
// type), a missing key leaves an optional empty and a Json member null and
// fails for any other member, and keys outside the table are ignored.
#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/result.h"

namespace picloud::util {

// A small enum written as its name. The enum declares its names once, in
// value order, through a json_names() function found by argument-dependent
// lookup:
//
//   enum class Op : std::uint8_t { kGet, kPut };
//   constexpr std::array<std::string_view, 2> json_names(Op) {
//     return {"get", "put"};
//   }
template <typename E>
concept JsonEnum = std::is_enum_v<E> && requires(E e) {
  { json_names(e)[0] } -> std::convertible_to<std::string_view>;
};

// A value written as a JSON string: the text its to_string() returns, read
// back by a static parse() that returns std::nullopt for text it does not
// accept. net::Ipv4Addr is one.
template <typename V>
concept JsonText = requires(const V& v, const std::string& text) {
  { v.to_string() } -> std::same_as<std::string>;
  { V::parse(text) } -> std::same_as<std::optional<V>>;
};

template <typename T>
struct JsonSchema;

// One row of a field table: the JSON key and the member it holds.
template <typename T, typename M>
struct Field {
  std::string_view key;
  M T::*member;
};

template <typename T, typename M>
constexpr Field<T, M> field(std::string_view key, M T::*member) {
  return {key, member};
}

namespace schema_detail {

template <typename M>
struct Codec;

template <typename M>
  requires(std::integral<M> && !std::same_as<M, bool>)
struct Codec<M> {
  // Json stores every number as a double, so an integer is written as the
  // double it converts to.
  static bool present(const M&) { return true; }
  static size_t size(const M& v) {
    return Json::number_size(static_cast<double>(v));
  }
  static Json to_json(const M& v) { return Json(static_cast<double>(v)); }
  static bool from_json(const Json& j, M* out) {
    if (!j.is_number()) return false;
    // [min, max + 1) as doubles; both bounds are powers of two (or 0).
    constexpr double kLow = static_cast<double>(std::numeric_limits<M>::min());
    constexpr double kHigh =
        2.0 * static_cast<double>(std::numeric_limits<M>::max() / 2 + 1);
    const double d = j.as_number();
    if (!(d >= kLow && d < kHigh)) return false;
    *out = static_cast<M>(d);
    return true;
  }
};

template <>
struct Codec<double> {
  static bool present(double) { return true; }
  static size_t size(double v) { return Json::number_size(v); }
  static Json to_json(double v) { return Json(v); }
  static bool from_json(const Json& j, double* out) {
    if (j.is_null()) {  // what NaN and +-inf were written as
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    if (!j.is_number()) return false;
    *out = j.as_number();
    return true;
  }
};

template <>
struct Codec<bool> {
  static bool present(bool) { return true; }
  static size_t size(bool v) { return v ? 4 : 5; }
  static Json to_json(bool v) { return Json(v); }
  static bool from_json(const Json& j, bool* out) {
    if (!j.is_bool()) return false;
    *out = j.as_bool();
    return true;
  }
};

template <>
struct Codec<std::string> {
  static bool present(const std::string&) { return true; }
  static size_t size(const std::string& v) { return Json::string_size(v); }
  static Json to_json(const std::string& v) { return Json(v); }
  static Json to_json(std::string&& v) { return Json(std::move(v)); }
  static bool from_json(const Json& j, std::string* out) {
    if (!j.is_string()) return false;
    *out = j.as_string();
    return true;
  }
};

template <JsonEnum E>
struct Codec<E> {
  static std::string_view name(E v) {
    return json_names(v)[static_cast<size_t>(v)];
  }
  static bool present(E) { return true; }
  static size_t size(E v) { return Json::string_size(name(v)); }
  static Json to_json(E v) { return Json(name(v)); }
  static bool from_json(const Json& j, E* out) {
    if (!j.is_string()) return false;
    const auto names = json_names(E{});
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == j.as_string()) {
        *out = static_cast<E>(i);
        return true;
      }
    }
    return false;
  }
};

template <JsonText V>
struct Codec<V> {
  static bool present(const V&) { return true; }
  static size_t size(const V& v) { return Json::string_size(v.to_string()); }
  static Json to_json(const V& v) { return Json(v.to_string()); }
  static bool from_json(const Json& j, V* out) {
    if (!j.is_string()) return false;
    std::optional<V> parsed = V::parse(j.as_string());
    if (!parsed) return false;
    *out = *parsed;
    return true;
  }
};

// A nested schema'd struct, written as an object.
template <typename S>
  requires std::derived_from<S, JsonSchema<S>>
struct Codec<S> {
  static bool present(const S&) { return true; }
  static size_t size(const S& v) { return v.wire_size(); }
  static Json to_json(const S& v) { return v.to_json(); }
  static Json to_json(S&& v) { return std::move(v).to_json(); }
  static bool from_json(const Json& j, S* out) {
    Result<S> parsed = S::from_json(j);
    if (!parsed.ok()) return false;
    *out = std::move(parsed).value();
    return true;
  }
};

template <typename M>
constexpr bool kOptional = false;
template <typename M>
constexpr bool kOptional<std::optional<M>> = true;

template <typename M>
struct Codec<std::vector<M>> {
  static_assert(!kOptional<M>, "an array element is always written");
  static bool present(const std::vector<M>&) { return true; }
  // [a,b,c]: the brackets, each element, and a comma between two.
  static size_t size(const std::vector<M>& v) {
    size_t bytes = v.empty() ? 2 : 1 + v.size();
    for (const M& m : v) bytes += Codec<M>::size(m);
    return bytes;
  }
  static Json to_json(const std::vector<M>& v) {
    JsonArray out;
    out.reserve(v.size());
    for (const M& m : v) out.push_back(Codec<M>::to_json(m));
    return Json(std::move(out));
  }
  static bool from_json(const Json& j, std::vector<M>* out) {
    if (!j.is_array()) return false;
    std::vector<M> values(j.as_array().size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (!Codec<M>::from_json(j.as_array()[i], &values[i])) return false;
    }
    *out = std::move(values);
    return true;
  }
};

template <>
struct Codec<Json> {
  static bool present(const Json& v) { return !v.is_null(); }
  static size_t size(const Json& v) { return v.dump_size(); }
  static Json to_json(const Json& v) { return v; }
  static Json to_json(Json&& v) { return std::move(v); }
  static bool from_json(const Json& j, Json* out) {
    *out = j;
    return true;
  }
};

template <typename M>
struct Codec<std::optional<M>> {
  static_assert(!std::is_same_v<M, Json>,
                "a Json member is already absent when null");
  static bool present(const std::optional<M>& v) { return v.has_value(); }
  static size_t size(const std::optional<M>& v) { return Codec<M>::size(*v); }
  static Json to_json(const std::optional<M>& v) {
    return Codec<M>::to_json(*v);
  }
  static Json to_json(std::optional<M>&& v) {
    return Codec<M>::to_json(std::move(*v));
  }
  static bool from_json(const Json& j, std::optional<M>* out) {
    M value{};
    if (!Codec<M>::from_json(j, &value)) return false;
    *out = std::move(value);
    return true;
  }
};

// Keys strictly ascending in byte order (std::string::compare, which
// JsonObject sorts by) and written without escapes, so a key costs its
// length plus two quotes.
template <typename Fields>
constexpr bool keys_in_dump_order(const Fields& fields) {
  bool ok = true;
  std::string_view previous;
  bool first = true;
  std::apply(
      [&](const auto&... f) {
        (
            [&](std::string_view key) {
              for (char c : key) {
                if (static_cast<unsigned char>(c) < 0x20 || c == '"' ||
                    c == '\\') {
                  ok = false;
                }
              }
              if (!first && !(previous < key)) ok = false;
              previous = key;
              first = false;
            }(f.key),
            ...);
      },
      fields);
  return ok;
}

template <typename T>
constexpr void check_table() {
  static_assert(keys_in_dump_order(T::json_fields()),
                "field table keys must be unique, plain, and in the byte "
                "order Json::dump writes them");
}

}  // namespace schema_detail

// The schema'd message mixin: derive T from JsonSchema<T> and give T a
// static constexpr json_fields() returning a std::tuple of field() rows.
template <typename T>
struct JsonSchema {
  // to_json().dump_size(), without building the value.
  size_t wire_size() const {
    schema_detail::check_table<T>();
    const T& self = static_cast<const T&>(*this);
    size_t bytes = 2;  // {}
    size_t written = 0;
    std::apply(
        [&](const auto&... f) {
          (
              [&](const auto& row) {
                const auto& m = self.*(row.member);
                using C = schema_detail::Codec<
                    std::remove_cvref_t<decltype(m)>>;
                if (!C::present(m)) return;
                // [,]"key": value
                bytes += (written++ > 0 ? 1 : 0) + row.key.size() + 3 +
                         C::size(m);
              }(f),
              ...);
        },
        T::json_fields());
    return bytes;
  }

  Json to_json() const& { return build(static_cast<const T&>(*this)); }
  // Strings and Json members move into the value.
  Json to_json() && { return build(static_cast<T&&>(*this)); }

  static Result<T> from_json(const Json& j) {
    schema_detail::check_table<T>();
    if (!j.is_object()) {
      return Error::make("bad_message", "not a JSON object");
    }
    T out;
    std::string_view failed;
    bool missing = false;
    std::apply(
        [&](const auto&... f) {
          (
              [&](const auto& row) {
                if (!failed.empty()) return;
                auto& m = out.*(row.member);
                using M = std::remove_cvref_t<decltype(m)>;
                const auto it = j.as_object().find(row.key);
                if (it == j.as_object().end()) {
                  if constexpr (!schema_detail::kOptional<M> &&
                                !std::is_same_v<M, Json>) {
                    failed = row.key;
                    missing = true;
                  }
                  return;
                }
                if (!schema_detail::Codec<M>::from_json(it->second, &m)) {
                  failed = row.key;
                }
              }(f),
              ...);
        },
        T::json_fields());
    if (!failed.empty()) {
      return Error::make("bad_message",
                         std::string(missing ? "missing key \"" : "bad key \"")
                             .append(failed)
                             .append("\""));
    }
    return out;
  }

  bool operator==(const JsonSchema&) const = default;

 private:
  template <typename Self>
  static Json build(Self&& self) {
    schema_detail::check_table<T>();
    Json j = Json::object();
    JsonObject& members = j.mutable_object();
    std::apply(
        [&](const auto&... f) {
          (
              [&](const auto& row) {
                auto&& m = std::forward<Self>(self).*(row.member);
                using C = schema_detail::Codec<
                    std::remove_cvref_t<decltype(m)>>;
                if (!C::present(m)) return;
                // Keys arrive in order, so each insert is an append.
                members.insert_or_assign(
                    std::string(row.key),
                    C::to_json(std::forward<decltype(m)>(m)));
              }(f),
              ...);
        },
        T::json_fields());
    return j;
  }
};

}  // namespace picloud::util
