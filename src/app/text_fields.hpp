// Decimal fields of the app text protocol (registry.hpp, work_queue.hpp).
//
// Payloads are built by appending into one reused buffer and parsed in
// place over a non-owning view, so neither direction allocates per field.
// The parser keeps std::strtoull's reading of a field — leading
// whitespace skipped, an optional sign, saturation at UINT64_MAX — so every
// payload, truncated or malformed ones included, applies exactly what the
// strtoull-based parser applied; unlike strtoull it never reads past the
// view (a view is not NUL-terminated).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

namespace gmpx::app {

/// Append `v` in decimal.
inline void append_u64(std::string& out, uint64_t v) {
  char buf[std::numeric_limits<uint64_t>::digits10 + 1];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Sequential reader of unsigned decimal fields over one payload view.
class FieldReader {
 public:
  explicit FieldReader(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  /// Parse the next field and step past it and one trailing separator
  /// (' ', ':' or ',').  Returns false, consuming nothing, when no digits
  /// follow.
  bool next(uint64_t& out) {
    const char* s = p_;
    while (s != end_ && is_space(*s)) ++s;
    const bool neg = s != end_ && *s == '-';
    if (s != end_ && (*s == '+' || *s == '-')) ++s;
    uint64_t v = 0;
    const auto [digits_end, ec] = std::from_chars(s, end_, v);
    if (digits_end == s) return false;
    out = ec == std::errc::result_out_of_range ? std::numeric_limits<uint64_t>::max()
                                               : (neg ? 0 - v : v);
    s = digits_end;
    if (s != end_ && (*s == ' ' || *s == ':' || *s == ',')) ++s;
    p_ = s;
    return true;
  }

 private:
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  const char* p_;
  const char* end_;
};

}  // namespace gmpx::app
