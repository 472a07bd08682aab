#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace lfi {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

size_t SplitInto(std::string_view s, char sep, std::span<std::string_view> out) {
  size_t n = 0;
  size_t start = 0;
  while (n < out.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out[n++] = s.substr(start);
      break;
    }
    out[n++] = s.substr(start, pos - start);
    start = pos + 1;
  }
  return n;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  s = s.substr(0, s.find('\0'));  // a C string ends at its terminator
  if (s.empty()) {
    return std::nullopt;
  }
  bool negative = s[0] == '-';
  size_t skip = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  int base = 10;
  if (s.size() > skip + 2 && s[skip] == '0' && (s[skip + 1] == 'x' || s[skip + 1] == 'X')) {
    base = 16;
    skip += 2;
  }
  // The magnitude is unsigned, so from_chars rejects a second sign.
  std::string_view digits = s.substr(skip);
  uint64_t magnitude = 0;
  auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), magnitude, base);
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  constexpr uint64_t kMaxPositive = static_cast<uint64_t>(INT64_MAX);
  if (magnitude > kMaxPositive + (negative ? 1 : 0)) {
    return std::nullopt;
  }
  return negative ? static_cast<int64_t>(0 - magnitude) : static_cast<int64_t>(magnitude);
}

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer; a second pass only when the output does
  // not fit.
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0 && static_cast<size_t>(n) < sizeof buf) {
    out.assign(buf, static_cast<size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(items[i]);
  }
  return out;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lfi
