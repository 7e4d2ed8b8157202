// Body — what a net::Message carries: a schema'd struct (util/schema.h)
// held inline.
//
// Every protocol declares its messages as schemas and hands its struct
// across the fabric as is, so the receiver reads members instead of looking
// up keys, and nothing is built, copied or walked as a Json per message.
// The fabric charges wire_size(): the length of the JSON text the struct
// stands for, its schema's exact size.
//
// The struct sits in the body's own storage, so holding one allocates
// nothing; a type that does not fit (kCapacity) does not compile. The body
// knows its struct only through a table of functions made per type, so
// this header names no module above net.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/json.h"
#include "util/schema.h"

namespace picloud::net {

template <typename T>
concept BodyStruct = std::derived_from<T, util::JsonSchema<T>> &&
                     std::is_nothrow_move_constructible_v<T>;

class Body {
 public:
  // Room for the largest struct a message carries (the serving tier's
  // request).
  static constexpr size_t kCapacity = 128;

  // An empty body holds nothing: get<T>() is null for every T. It stands
  // for JSON null, so it sizes as 4 bytes and to_json() is null. A
  // moved-from body is empty.
  Body() = default;
  template <BodyStruct T>
  Body(T value) : ops_(&kOps<T>) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(T) <= kCapacity && alignof(T) <= kAlign,
                  "a message struct must fit Body's inline storage");
    new (storage_) T(std::move(value));
  }

  Body(const Body& other) : ops_(other.ops_) {
    ops_->copy(storage_, other.storage_);
  }
  Body(Body&& other) noexcept { take(other); }
  Body& operator=(const Body& other) {
    if (this != &other) *this = Body(other);
    return *this;
  }
  Body& operator=(Body&& other) noexcept {
    if (this != &other) {
      ops_->destroy(storage_);
      take(other);
    }
    return *this;
  }
  ~Body() { ops_->destroy(storage_); }

  // The length of the JSON text this body stands for.
  size_t wire_size() const { return ops_->wire_size(storage_); }

  // The struct, or null when the body holds another struct or nothing.
  template <BodyStruct T>
  const T* get() const {
    return ops_ == &kOps<T> ? std::launder(reinterpret_cast<const T*>(storage_))
                            : nullptr;
  }
  template <BodyStruct T>
  T* get() {
    return ops_ == &kOps<T> ? std::launder(reinterpret_cast<T*>(storage_))
                            : nullptr;
  }

  // The value the body stands for, built as a Json (tests and boundaries).
  util::Json to_json() const { return ops_->to_json(storage_); }

 private:
  static constexpr size_t kAlign = alignof(std::uint64_t);

  struct Ops {
    void (*copy)(void* to, const void* from);
    // Move-constructs at `to` and ends the lifetime of `from`.
    void (*move)(void* to, void* from) noexcept;
    void (*destroy)(void* p) noexcept;
    size_t (*wire_size)(const void* p);
    util::Json (*to_json)(const void* p);
  };

  template <typename T>
  static constexpr Ops kOps{
      [](void* to, const void* from) {
        new (to) T(*std::launder(static_cast<const T*>(from)));
      },
      [](void* to, void* from) noexcept {
        T* src = std::launder(static_cast<T*>(from));
        new (to) T(std::move(*src));
        src->~T();
      },
      [](void* p) noexcept { std::launder(static_cast<T*>(p))->~T(); },
      [](const void* p) {
        return std::launder(static_cast<const T*>(p))->wire_size();
      },
      [](const void* p) {
        return std::launder(static_cast<const T*>(p))->to_json();
      },
  };
  // The empty body's table: nothing to copy, move or destroy.
  static constexpr Ops kEmpty{
      [](void*, const void*) {},
      [](void*, void*) noexcept {},
      [](void*) noexcept {},
      [](const void*) -> size_t { return 4; },  // null
      [](const void*) { return util::Json(); },
  };

  // Moves what `other` holds into storage_, which holds nothing, and leaves
  // `other` empty.
  void take(Body& other) noexcept {
    ops_ = other.ops_;
    ops_->move(storage_, other.storage_);
    other.ops_ = &kEmpty;
  }

  const Ops* ops_ = &kEmpty;
  alignas(kAlign) unsigned char storage_[kCapacity];
};

}  // namespace picloud::net
