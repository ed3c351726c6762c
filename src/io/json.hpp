#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lightnas::io {

/// Minimal JSON document model — enough to persist predictors, datasets
/// and search results without external dependencies. Numbers are stored
/// as double; object keys keep insertion order irrelevant (std::map).
///
/// A node is 16 bytes: a type tag plus one 8-byte payload. Booleans and
/// numbers live inline; a string, array or object sits behind one owning
/// pointer (deep copy, cheap move). Float tensors are not arrays of
/// nodes: io::detail::tensor_to_json packs each into one base64 string.
class Json {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  /// Deepest container nesting parse() accepts. Our own files nest fewer
  /// than ten levels deep; the cap turns a hostile "[[[[..." into a typed
  /// error instead of a stack overflow, and bounds the recursive
  /// destructor.
  static constexpr std::size_t kMaxDepth = 512;

  Json() : number_(0.0) {}
  explicit Json(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Json(double v) : type_(Type::kNumber), number_(v) {}
  explicit Json(int v) : Json(static_cast<double>(v)) {}
  explicit Json(std::size_t v) : Json(static_cast<double>(v)) {}
  explicit Json(std::string s);
  explicit Json(const char* s) : Json(std::string(s)) {}

  Json(const Json& other);
  Json(Json&& other) noexcept;
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json();

  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // --- accessors (throw std::runtime_error on type mismatch) ----------
  bool as_bool() const;
  double as_number() const;
  /// Like as_number(), but maps null to NaN — the reader-side half of
  /// the "non-finite doubles serialize as null" convention.
  double number_or_nan() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::map<std::string, Json>& as_object() const;

  // --- builders (throw std::runtime_error on type mismatch) -----------
  void push_back(Json value);                       // array
  void set(const std::string& key, Json value);     // object
  bool contains(const std::string& key) const;      // object
  const Json& at(const std::string& key) const;     // object
  const Json& at(std::size_t index) const;          // array
  std::size_t size() const;                         // array/object

  /// Compact serialization (no insignificant whitespace).
  std::string dump() const;

  /// Parse; throws std::runtime_error with position info on bad input.
  static Json parse(const std::string& text);

  // --- convenience for numeric vectors --------------------------------
  static Json from_doubles(const std::vector<double>& values);
  std::vector<double> to_doubles() const;

 private:
  void check_type(Type expected) const;
  void destroy() noexcept;

  Type type_ = Type::kNull;
  union {
    bool bool_;
    double number_;
    std::string* string_;
    std::vector<Json>* array_;
    std::map<std::string, Json>* object_;
  };
};

static_assert(sizeof(Json) == 16, "a JSON number must stay a 16-byte node");

/// Whole-file helpers; throw std::runtime_error on I/O failure. Writers
/// stream the compact form through a bounded buffer, so no whole-file
/// string is ever built.
void write_json_file(const std::string& path, const Json& value);
/// Crash-safe variant: writes `path + ".tmp"` then renames over `path`,
/// so readers never observe a torn file. Used for checkpoints.
void write_json_file_atomic(const std::string& path, const Json& value);
Json read_json_file(const std::string& path);

}  // namespace lightnas::io
