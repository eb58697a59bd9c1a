#include "yanc/util/strings.hpp"

#include <cctype>
#include <limits>

namespace yanc {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_nonempty(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto& part : split(s, sep))
    if (!part.empty()) out.push_back(std::move(part));
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<std::uint64_t> parse_u64(std::string_view s) {
  s = trim(s);
  if (s.empty()) return Errc::invalid_argument;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return Errc::invalid_argument;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return Errc::overflow;
    v = v * 10 + digit;
  }
  return v;
}

Result<std::uint64_t> parse_hex_u64(std::string_view s) {
  s = trim(s);
  if (starts_with(s, "0x") || starts_with(s, "0X")) s.remove_prefix(2);
  if (s.empty() || s.size() > 16) return Errc::invalid_argument;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F')
      digit = c - 'A' + 10;
    else
      return Errc::invalid_argument;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  return v;
}

std::string to_hex(std::uint64_t v, int width_bytes) {
  static const char* digits = "0123456789abcdef";
  int chars = width_bytes * 2;
  std::string out(static_cast<std::size_t>(chars), '0');
  for (int i = chars - 1; i >= 0 && v; --i, v >>= 4)
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
  return out;
}

std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

namespace {

bool set_match(std::string_view set, char c, std::size_t* consumed) {
  // `set` starts just past '['.  Supports negation and a-z ranges.
  bool negate = false;
  std::size_t i = 0;
  if (i < set.size() && (set[i] == '!' || set[i] == '^')) {
    negate = true;
    ++i;
  }
  bool matched = false;
  bool closed = false;
  bool first = true;
  for (; i < set.size(); ++i) {
    if (set[i] == ']' && !first) {
      closed = true;
      ++i;
      break;
    }
    first = false;
    if (i + 2 < set.size() && set[i + 1] == '-' && set[i + 2] != ']') {
      if (c >= set[i] && c <= set[i + 2]) matched = true;
      i += 2;
    } else if (set[i] == c) {
      matched = true;
    }
  }
  if (!closed) return false;  // malformed set: treat as literal mismatch
  *consumed = i;
  return matched != negate;
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard matcher with backtracking on the most recent '*'.
  std::size_t p = 0, t = 0;
  std::size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '[') {
      std::size_t consumed = 0;
      if (set_match(pattern.substr(p + 1), text[t], &consumed)) {
        p += consumed + 1;
        ++t;
      } else if (star_p != std::string_view::npos) {
        p = star_p + 1;
        t = ++star_t;
      } else {
        return false;
      }
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace yanc
