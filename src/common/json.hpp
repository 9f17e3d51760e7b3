// The one JSON writer every artifact is rendered with, and the one whole-file
// write every artifact lands through.
//
// Json appends to a caller-owned string. Containers open with obj()/arr()
// and close with end(); key() names the next value inside an object. Commas
// are placed by the writer: it keeps two bits per nesting level, "this
// container is an object" and "it already has a member", so it allocates
// nothing beyond the output (nesting is limited to 63 levels). At depth 0
// successive values are comma-separated too, which is how a stream of array
// elements continues across writers.
//
// Strings are escaped by json_escape. raw() splices text that is already
// rendered: a pre-built value after key(), or object members (`"a":1,"b":2`)
// inside obj(). An empty raw() fragment writes nothing, not even a comma.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace migr::common {

/// Appends `s` as JSON string contents (no quotes): `"` and `\` escaped,
/// `\n` and `\t` by name, every other control byte as `\u00XX`.
void json_escape(std::string& out, std::string_view s);

class Json {
 public:
  explicit Json(std::string& out) noexcept : out_(out) {}

  Json& obj() { return open('{'); }
  Json& arr() { return open('['); }
  Json& end();
  Json& key(std::string_view k);

  Json& val(std::string_view s);
  Json& val(const char* s) { return val(std::string_view{s}); }  // not val(bool)
  Json& val(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  Json& val(T v) {
    return raw(std::to_string(v));
  }
  /// printf's `%.*f`.
  Json& fixed(double v, int decimals);
  Json& raw(std::string_view fragment);

 private:
  Json& open(char c);
  void sep();

  std::string& out_;
  int depth_ = 0;
  std::uint64_t objects_ = 0;     // bit d: the container at depth d is an object
  std::uint64_t has_member_ = 0;  // bit d: the container at depth d is non-empty
  bool after_key_ = false;        // the next value is a key's, so takes no comma
};

/// `x.write(j)` rendered into a string.
template <typename T>
std::string to_json(const T& x) {
  std::string out;
  Json j(out);
  x.write(j);
  return out;
}

/// Writes `body` to `path`, replacing it. Fails on an open error, a short
/// write or a failed close.
Status write_file(const std::string& path, std::string_view body);

}  // namespace migr::common
