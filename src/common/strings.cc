#include "src/common/strings.h"

#include <string.h>  // strerror_r (POSIX declaration)

#include <algorithm>
#include <cctype>

namespace griddles::strings {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative matcher with backtracking over the most recent '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::optional<long long> parse_int(std::string_view text) {
  text = trim(text);
  long long value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  // gcc 12 lacks from_chars for double in some configs; use strtod.
  std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  std::string lower(trim(text));
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  return std::nullopt;
}

namespace {
std::string two_digits(long long v) {
  std::string s = std::to_string(v);
  return s.size() < 2 ? "0" + s : s;
}
}  // namespace

std::string format_hms(long long seconds) {
  const long long h = seconds / 3600;
  const long long m = (seconds % 3600) / 60;
  const long long s = seconds % 60;
  return two_digits(h) + ":" + two_digits(m) + ":" + two_digits(s);
}

std::string format_ms(long long seconds) {
  const long long m = seconds / 60;
  const long long s = seconds % 60;
  return two_digits(m) + ":" + two_digits(s);
}

namespace {
// Disambiguates the two strerror_r flavours: glibc's GNU variant returns
// the message pointer (possibly ignoring the buffer), the XSI variant
// returns an int and always fills the buffer.
const char* strerror_result(const char* returned, const char*) {
  return returned;
}
[[maybe_unused]] const char* strerror_result(int, const char* buffer) {
  return buffer;
}
}  // namespace

std::string errno_message(int errnum) {
  char buffer[256] = {};
  return strerror_result(::strerror_r(errnum, buffer, sizeof(buffer)),
                         buffer);
}

}  // namespace griddles::strings
