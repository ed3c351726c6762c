#include "io/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace lightnas::io {

namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

}  // namespace

Json::Json(std::string s)
    : type_(Type::kString), string_(new std::string(std::move(s))) {}

Json::Json(const Json& other) : type_(other.type_), number_(0.0) {
  switch (type_) {
    case Type::kNull: break;
    case Type::kBool: bool_ = other.bool_; break;
    case Type::kNumber: number_ = other.number_; break;
    case Type::kString: string_ = new std::string(*other.string_); break;
    case Type::kArray: array_ = new std::vector<Json>(*other.array_); break;
    case Type::kObject:
      object_ = new std::map<std::string, Json>(*other.object_);
      break;
  }
}

// The payload is trivially copyable whichever member is live, so a move
// copies the 8 bytes and leaves `other` null.
Json::Json(Json&& other) noexcept : type_(other.type_) {
  std::memcpy(&number_, &other.number_, sizeof(number_));
  other.type_ = Type::kNull;
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

Json& Json::operator=(Json&& other) noexcept {
  // Detach `other` before destroying this value: it may live inside it.
  Json taken(std::move(other));
  destroy();
  type_ = taken.type_;
  std::memcpy(&number_, &taken.number_, sizeof(number_));
  taken.type_ = Type::kNull;
  return *this;
}

Json::~Json() { destroy(); }

void Json::destroy() noexcept {
  switch (type_) {
    case Type::kString: delete string_; break;
    case Type::kArray: delete array_; break;
    case Type::kObject: delete object_; break;
    default: break;
  }
  type_ = Type::kNull;
}

void Json::check_type(Type expected) const {
  if (type_ != expected) {
    throw std::runtime_error(std::string("json: expected ") +
                             type_name(expected) + ", got " +
                             type_name(type_));
  }
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  j.array_ = new std::vector<Json>();
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  j.object_ = new std::map<std::string, Json>();
  return j;
}

bool Json::as_bool() const {
  check_type(Type::kBool);
  return bool_;
}

double Json::as_number() const {
  check_type(Type::kNumber);
  return number_;
}

const std::string& Json::as_string() const {
  check_type(Type::kString);
  return *string_;
}

const std::vector<Json>& Json::as_array() const {
  check_type(Type::kArray);
  return *array_;
}

const std::map<std::string, Json>& Json::as_object() const {
  check_type(Type::kObject);
  return *object_;
}

void Json::push_back(Json value) {
  check_type(Type::kArray);
  array_->push_back(std::move(value));
}

void Json::set(const std::string& key, Json value) {
  check_type(Type::kObject);
  (*object_)[key] = std::move(value);
}

bool Json::contains(const std::string& key) const {
  return as_object().count(key) != 0;
}

const Json& Json::at(const std::string& key) const {
  const auto& object = as_object();
  auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  const auto& array = as_array();
  if (index >= array.size()) {
    throw std::runtime_error("json: index out of range");
  }
  return array[index];
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_->size();
  if (type_ == Type::kObject) return object_->size();
  return 0;
}

namespace {

// The characters a JSON string cannot hold raw.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> escape{};
  for (int c = 0; c < 0x20; ++c) escape[c] = true;
  escape['"'] = escape['\\'] = true;
  return escape;
}();

// The first character in [p, end) that kNeedsEscape flags, or `end`.
// Tests eight bytes at a time, since a checkpoint's strings are
// megabytes of base64. Each test is exact: (x - 0x01..) & ~x & 0x80..
// is non-zero iff some byte of x is zero, and with 0x20 in place of
// 0x01 iff some byte is below 0x20.
const char* skip_plain(const char* p, const char* end) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = kOnes * 0x80;
  const auto has_below = [](std::uint64_t x, std::uint64_t n) {
    return (x - kOnes * n) & ~x & kHighs;
  };
  for (; end - p >= 8; p += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    if ((has_below(w, 0x20) | has_below(w ^ (kOnes * '"'), 1) |
         has_below(w ^ (kOnes * '\\'), 1)) != 0) {
      break;
    }
  }
  while (p != end && !kNeedsEscape[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

/// One-pass serializer. Appends to a buffer; with a file attached, hands
/// the buffer to the file every kFlushBytes, so writing a checkpoint
/// never holds more than one buffer of its text.
class Writer {
 public:
  explicit Writer(std::ofstream* file = nullptr) : file_(file) {}

  void value(const Json& v) {
    switch (v.type()) {
      case Json::Type::kNull: buf_ += "null"; break;
      case Json::Type::kBool: buf_ += v.as_bool() ? "true" : "false"; break;
      case Json::Type::kNumber: number(v.as_number()); break;
      case Json::Type::kString: string(v.as_string()); break;
      case Json::Type::kArray: {
        buf_ += '[';
        bool first = true;
        for (const Json& item : v.as_array()) {
          if (!first) buf_ += ',';
          first = false;
          value(item);
          maybe_flush();
        }
        buf_ += ']';
        break;
      }
      case Json::Type::kObject: {
        buf_ += '{';
        bool first = true;
        for (const auto& [key, item] : v.as_object()) {
          if (!first) buf_ += ',';
          first = false;
          string(key);
          buf_ += ':';
          value(item);
          maybe_flush();
        }
        buf_ += '}';
        break;
      }
    }
  }

  void flush() {
    file_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

  std::string take() { return std::move(buf_); }

 private:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

  void maybe_flush() {
    if (file_ != nullptr && buf_.size() >= kFlushBytes) flush();
  }

  // Runs of characters that need no escape go out with one append: a
  // checkpoint is mostly base64 tensor strings, millions of plain bytes.
  void string(const std::string& s) {
    buf_ += '"';
    const char* p = s.data();
    const char* const end = p + s.size();
    while (true) {
      const char* stop = skip_plain(p, end);
      buf_.append(p, stop);
      if (stop == end) break;
      p = stop + 1;
      switch (const char c = *stop) {
        case '"': buf_ += "\\\""; break;
        case '\\': buf_ += "\\\\"; break;
        case '\n': buf_ += "\\n"; break;
        case '\t': buf_ += "\\t"; break;
        case '\r': buf_ += "\\r"; break;
        default: {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          buf_ += esc;
        }
      }
    }
    buf_ += '"';
  }

  void number(double v) {
    // JSON has no literal for NaN/inf; "%g" would emit "nan"/"inf", which
    // our own parser (and every other one) rejects. Emit null instead;
    // readers map null back to NaN (Json::number_or_nan, to_doubles).
    if (!std::isfinite(v)) {
      buf_ += "null";
      return;
    }
    // 17 significant digits round-trip any IEEE double exactly — required
    // for bit-for-bit checkpoint restore (lambda, RNG-derived doubles).
    // to_chars with a precision is specified as printf's "%.0f" / "%.17g"
    // in the C locale: the same bytes, at a third of the cost.
    const bool integral = v == std::floor(v) && std::abs(v) < 1e15;
    char text[48];
    const auto result =
        integral ? std::to_chars(text, text + sizeof(text), v,
                                 std::chars_format::fixed, 0)
                 : std::to_chars(text, text + sizeof(text), v,
                                 std::chars_format::general, 17);
    buf_.append(text, result.ptr);
  }

  std::string buf_;
  std::ofstream* file_;
};

}  // namespace

std::string Json::dump() const {
  Writer writer;
  writer.value(*this);
  return writer.take();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
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

  bool try_consume(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  // `depth` counts the containers enclosing this value; recursion stops
  // at Json::kMaxDepth so no input can overflow the stack.
  Json parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == Json::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
      return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
    }
    if (c == '"') return Json(parse_string());
    if (try_consume("null")) return Json();
    if (try_consume("true")) return Json(true);
    if (try_consume("false")) return Json(false);
    return parse_number();
  }

  Json parse_object(std::size_t depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  // Copies each run of plain characters with one append; only escapes
  // and control characters go one at a time.
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char* run = text_.data() + pos_;
      const char* stop = skip_plain(run, text_.data() + text_.size());
      out.append(run, stop);
      pos_ = static_cast<std::size_t>(stop - text_.data());
      if (pos_ == text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {  // a raw control character, kept as it is
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          const unsigned code = hex4();
          // We only emit \u for control chars; decode BMP as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  // The four hex digits of a \u escape, exactly: no sign, space or
  // short form.
  unsigned hex4() {
    const char* first = text_.data() + pos_;
    const bool ok =
        pos_ + 4 <= text_.size() && std::all_of(first, first + 4, [](char c) {
          return std::isxdigit(static_cast<unsigned char>(c)) != 0;
        });
    if (!ok) fail("bad \\u escape");
    unsigned code = 0;
    std::from_chars(first, first + 4, code, 16);
    pos_ += 4;
    return code;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool is_number_char(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
           c == 'e' || c == 'E' || c == '+' || c == '-';
  }

  // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  // The token must match it whole and convert exactly: "1-2", "1e",
  // "1.2.3" and "01" are malformed, not their prefix. std::from_chars
  // parses subnormals exactly and reports overflow ("1e999") as an error.
  Json parse_number() {
    const std::size_t start = pos_;
    if (!is_number_char(peek())) fail("expected a value");
    consume('-');
    bool ok = consume('0') || digits();
    if (ok && consume('.')) ok = digits();
    if (ok && (consume('e') || consume('E'))) {
      if (!consume('+')) consume('-');
      ok = digits();
    }
    if (!ok || (pos_ < text_.size() && is_number_char(text_[pos_]))) {
      fail("malformed number");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) fail("malformed number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse();
}

Json Json::from_doubles(const std::vector<double>& values) {
  Json arr = Json::array();
  arr.array_->reserve(values.size());
  for (double v : values) arr.array_->emplace_back(v);
  return arr;
}

double Json::number_or_nan() const {
  if (type_ == Type::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return as_number();
}

std::vector<double> Json::to_doubles() const {
  std::vector<double> out;
  out.reserve(as_array().size());
  for (const Json& v : as_array()) out.push_back(v.number_or_nan());
  return out;
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  Writer writer(&out);
  writer.value(value);
  writer.flush();
  out.close();
  if (out.fail()) throw std::runtime_error("write failed: " + path);
}

void write_json_file_atomic(const std::string& path, const Json& value) {
  // Write-temp-then-rename so a crash mid-write never leaves a torn
  // artifact at `path` — essential for checkpoints a resume depends on.
  const std::string tmp = path + ".tmp";
  write_json_file(tmp, value);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("atomic rename failed for: " + path);
  }
}

Json read_json_file(const std::string& path) {
  // One string sized from the file length: no stream-buffer copy.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("read failed: " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) {
    throw std::runtime_error("read failed: " + path);
  }
  return Json::parse(text);
}

}  // namespace lightnas::io
