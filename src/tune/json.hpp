// Minimal JSON document model: the telemetry and trace dumps are small,
// schema'd documents, so a compact recursive-descent parser + writer beats
// an external dependency. Numbers are stored as double (every field we
// serialize fits in 53 bits) plus the original integer when exact.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace nemo::tune {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}                 // NOLINT
  Json(std::uint64_t u)                                             // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(u)), uint_(u),
        has_uint_(true) {}
  Json(std::int64_t i)                                              // NOLINT
      : Json(static_cast<std::uint64_t>(i < 0 ? 0 : i)) {
    if (i < 0) {
      has_uint_ = false;
      num_ = static_cast<double>(i);
    }
  }
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                      // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  // --- Accessors (loose: wrong-type reads return the fallback) -------------
  [[nodiscard]] bool as_bool(bool def = false) const {
    return type_ == Type::kBool ? bool_ : def;
  }
  [[nodiscard]] double as_double(double def = 0) const {
    return type_ == Type::kNumber ? num_ : def;
  }
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t def = 0) const {
    if (type_ != Type::kNumber) return def;
    if (has_uint_) return uint_;
    return num_ < 0 ? def : static_cast<std::uint64_t>(num_);
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  [[nodiscard]] const std::vector<Json>& items() const { return arr_; }
  void push_back(Json v) { arr_.push_back(std::move(v)); }

  /// Object field lookup; returns a shared null for missing keys.
  [[nodiscard]] const Json& operator[](const std::string& key) const;
  void set(const std::string& key, Json v);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& fields()
      const {
    return obj_;
  }

  // --- Serialization --------------------------------------------------------
  /// Pretty-printed with 2-space indentation (stable field order).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse; returns nullopt and fills `err` (if given) on malformed input.
  static std::optional<Json> parse(const std::string& text,
                                   std::string* err = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::uint64_t uint_ = 0;
  bool has_uint_ = false;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;  ///< Insertion-ordered.
};

}  // namespace nemo::tune
