#include "common/json.hpp"

#include <cstdio>

namespace migr::common {

void json_escape(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
    }
  }
}

void Json::sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  if ((has_member_ & bit) != 0) out_ += ',';
  has_member_ |= bit;
}

Json& Json::open(char c) {
  sep();
  out_ += c;
  ++depth_;
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  has_member_ &= ~bit;
  if (c == '{') {
    objects_ |= bit;
  } else {
    objects_ &= ~bit;
  }
  return *this;
}

Json& Json::end() {
  out_ += (objects_ & (std::uint64_t{1} << depth_)) != 0 ? '}' : ']';
  --depth_;
  return *this;
}

Json& Json::key(std::string_view k) {
  sep();
  out_ += '"';
  json_escape(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Json& Json::val(std::string_view s) {
  sep();
  out_ += '"';
  json_escape(out_, s);
  out_ += '"';
  return *this;
}

Json& Json::fixed(double v, int decimals) {
  // 309 integer digits for the largest double, the point and the decimals.
  char buf[352];
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return raw(std::string_view{buf, n < 0 ? 0 : static_cast<std::size_t>(n)});
}

Json& Json::raw(std::string_view fragment) {
  if (fragment.empty()) return *this;
  sep();
  out_ += fragment;
  return *this;
}

Status write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return err(Errc::internal, "cannot open " + path);
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != body.size()) return err(Errc::internal, "short write to " + path);
  if (!closed) return err(Errc::internal, "cannot close " + path);
  return Status::ok();
}

}  // namespace migr::common
