#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "util/check.h"
#include "util/strings.h"

namespace picloud::util {

namespace {
const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;
const Json kNullJson;
}  // namespace

static_assert(std::is_nothrow_move_constructible_v<JsonObject::value_type>,
              "vector growth must move members, not copy them");

JsonObject::JsonObject(std::initializer_list<value_type> members) {
  members_.reserve(members.size());
  for (const value_type& m : members) {
    const size_t i = lower_bound(m.first);
    if (i == members_.size() || members_[i].first != m.first) {
      members_.insert(members_.begin() + static_cast<std::ptrdiff_t>(i), m);
    }
  }
}

void JsonObject::insert_at(size_t at, std::string&& key, Json&& value) {
  constexpr size_t kFirstCapacity = 4;
  if (members_.capacity() == 0) members_.reserve(kFirstCapacity);
  members_.emplace(members_.begin() + static_cast<std::ptrdiff_t>(at),
                   std::move(key), std::move(value));
}

bool JsonObject::operator==(const JsonObject& other) const {
  return members_ == other.members_;
}

void Json::destroy() noexcept {
  switch (type_) {
    case Type::kString: str_.~basic_string(); break;
    case Type::kArray: arr_.~JsonArray(); break;
    case Type::kObject: obj_.~JsonObject(); break;
    default: break;
  }
  type_ = Type::kNull;
}

void Json::move_owned(Json&& other) noexcept {
  switch (other.type_) {
    case Type::kString: new (&str_) std::string(std::move(other.str_)); break;
    case Type::kArray: new (&arr_) JsonArray(std::move(other.arr_)); break;
    case Type::kObject: new (&obj_) JsonObject(std::move(other.obj_)); break;
    default: break;
  }
  type_ = other.type_;
}

void Json::construct(const Json& other) {
  switch (other.type_) {
    case Type::kNull: break;
    case Type::kBool: bool_ = other.bool_; break;
    case Type::kNumber: num_ = other.num_; break;
    case Type::kString: new (&str_) std::string(other.str_); break;
    case Type::kArray: new (&arr_) JsonArray(other.arr_); break;
    case Type::kObject: new (&obj_) JsonObject(other.obj_); break;
  }
  type_ = other.type_;
}

const std::string& Json::as_string() const {
  PICLOUD_CHECK(is_string() || is_null()) << "as_string on non-string Json";
  return is_string() ? str_ : kEmptyString;
}

const JsonArray& Json::as_array() const {
  return is_array() ? arr_ : kEmptyArray;
}

const JsonObject& Json::as_object() const {
  return is_object() ? obj_ : kEmptyObject;
}

JsonArray& Json::mutable_array() {
  if (!is_array()) {
    PICLOUD_CHECK(is_null()) << "mutable_array on non-array Json";
    new (&arr_) JsonArray();
    type_ = Type::kArray;
  }
  return arr_;
}

JsonObject& Json::mutable_object() {
  if (!is_object()) {
    PICLOUD_CHECK(is_null()) << "mutable_object on non-object Json";
    new (&obj_) JsonObject();
    type_ = Type::kObject;
  }
  return obj_;
}

bool Json::has(std::string_view key) const {
  return is_object() && obj_.count(key) > 0;
}

const Json& Json::get(std::string_view key) const {
  if (is_object()) {
    auto it = obj_.find(key);
    if (it != obj_.end()) return it->second;
  }
  return kNullJson;
}

double Json::get_number(std::string_view key, double fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_number() : fallback;
}

std::string Json::get_string(std::string_view key, std::string fallback) const {
  const Json& v = get(key);
  return v.is_string() ? v.as_string() : std::move(fallback);
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json& v = get(key);
  return v.is_bool() ? v.as_bool() : fallback;
}

Json& Json::set(std::string key, Json value) {
  mutable_object().insert_or_assign(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  mutable_array().push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  return 0;
}

const Json& Json::operator[](size_t i) const {
  if (is_array() && i < arr_.size()) return arr_[i];
  return kNullJson;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: return obj_ == other.obj_;
  }
  return false;
}

namespace {

// Where the encoder writes: the text itself (dump/pretty) or only its length
// (dump_size). One encoder feeds both, so the two cannot disagree.
struct TextSink {
  std::string* out;
  void put(char c) { out->push_back(c); }
  void put(std::string_view s) { out->append(s); }
  void fill(size_t n, char c) { out->append(n, c); }
};

struct SizeSink {
  size_t bytes = 0;
  void put(char) { ++bytes; }
  void put(std::string_view s) { bytes += s.size(); }
  void fill(size_t n, char) { bytes += n; }
};

template <typename Sink>
void encode_string(std::string_view s, Sink& out) {
  out.put('"');
  size_t run = 0;  // start of the pending run of characters written as-is
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    std::string_view escape;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.put(s.substr(run, i - run));
    if (!escape.empty()) {
      out.put(escape);
    } else {  // other control characters: \u00xx, lower-case hex
      static constexpr char kHex[] = "0123456789abcdef";
      const char code[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                           kHex[c & 0xF]};
      out.put(std::string_view(code, sizeof(code)));
    }
    run = i + 1;
  }
  out.put(s.substr(run));
  out.put('"');
}

// Integers below 2^53 print as %lld would, everything else as %.17g would:
// 17 significant digits, so the text parses back to the same double. `d` is
// finite: Json(double) stores NaN and +-inf as null.
template <typename Sink>
void encode_number(double d, Sink& out) {
  char buf[32];
  std::to_chars_result r;
  if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      17);
  }
  out.put(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
}

template <typename Sink>
void newline_indent(Sink& out, int indent, int depth) {
  if (indent <= 0) return;
  out.put('\n');
  out.fill(static_cast<size_t>(indent * depth), ' ');
}

template <typename Sink>
void encode(const Json& v, Sink& out, int indent, int depth) {
  switch (v.type()) {
    case Json::Type::kNull: out.put("null"); break;
    case Json::Type::kBool: out.put(v.as_bool() ? "true" : "false"); break;
    case Json::Type::kNumber: encode_number(v.as_number(), out); break;
    case Json::Type::kString: encode_string(v.as_string(), out); break;
    case Json::Type::kArray: {
      const JsonArray& a = v.as_array();
      if (a.empty()) {
        out.put("[]");
        break;
      }
      out.put('[');
      for (size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.put(',');
        newline_indent(out, indent, depth + 1);
        encode(a[i], out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.put(']');
      break;
    }
    case Json::Type::kObject: {
      const JsonObject& o = v.as_object();
      if (o.empty()) {
        out.put("{}");
        break;
      }
      out.put('{');
      bool first = true;
      for (const auto& [k, member] : o) {
        if (!first) out.put(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        encode_string(k, out);
        out.put(indent > 0 ? ": " : ":");
        encode(member, out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.put('}');
      break;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  TextSink sink{&out};
  encode(*this, sink, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  TextSink sink{&out};
  encode(*this, sink, /*indent=*/2, /*depth=*/0);
  return out;
}

size_t Json::dump_size() const {
  SizeSink sink;
  encode(*this, sink, /*indent=*/0, /*depth=*/0);
  return sink.bytes;
}

// ---------------------------------------------------------------------------
// Parser — recursive descent over a string_view with position tracking.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    skip_ws();
    Result<Json> v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return v;
  }

 private:
  Error error(const std::string& what) {
    return Error::make("json_parse",
                       format("%s at offset %zu", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value() {
    if (depth_ > kMaxDepth) return error("nesting too deep");
    if (pos_ >= text_.size()) return error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Result<std::string> s = parse_string();
      if (!s.ok()) return s.error();
      return Json(std::move(s).value());
    }
    if (eat_word("null")) return Json(nullptr);
    if (eat_word("true")) return Json(true);
    if (eat_word("false")) return Json(false);
    return parse_number();
  }

  Result<Json> parse_object() {
    ++depth_;
    eat('{');
    Json obj = Json::object();
    JsonObject& members = obj.mutable_object();
    skip_ws();
    if (eat('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!eat(':')) return error("expected ':'");
      skip_ws();
      Result<Json> value = parse_value();
      if (!value.ok()) return value;
      // A repeated key wins last. dump() writes keys in order, so each
      // insert on encoder output is an append.
      members.insert_or_assign(std::move(key).value(),
                               std::move(value).value());
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return error("expected ',' or '}'");
    }
    --depth_;
    return obj;
  }

  Result<Json> parse_array() {
    ++depth_;
    eat('[');
    Json arr = Json::array();
    skip_ws();
    if (eat(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      skip_ws();
      Result<Json> value = parse_value();
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) break;
      return error("expected ',' or ']'");
    }
    --depth_;
    return arr;
  }

  Result<std::string> parse_string() {
    eat('"');
    std::string out;
    while (true) {
      // Copy the run of plain characters up to the next quote or escape.
      size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' &&
             text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_.substr(pos_, stop - pos_));
      pos_ = stop;
      if (pos_ >= text_.size()) return error("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) return error("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad hex digit in \\u escape");
          }
          // UTF-8 encode (basic multilingual plane only; surrogate pairs
          // are passed through as replacement characters — management
          // payloads are ASCII in practice).
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
        default:
          return error("unknown escape");
      }
    }
  }

  bool eat_digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Result<Json> parse_number() {
    const size_t start = pos_;
    eat('-');
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return error(pos_ == start ? "expected value" : "bad number");
    }
    if (!eat('0')) eat_digits();
    if (eat('.') && !eat_digits()) return error("bad number");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!eat_digits()) return error("bad number");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double d = 0;
    if (std::from_chars(first, last, d).ec == std::errc::result_out_of_range) {
      // Overflow or underflow: take strtod's +-inf (stored as null) or +-0.
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return Json(d);
  }

  static constexpr int kMaxDepth = 128;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace picloud::util
