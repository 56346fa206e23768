// Checked argv parsing and file reading shared by the command-line tools.
//
// Every error prints "<tool>: <message>" on stderr and exits 2, the
// usage-error code of every tool.  Numbers are unsigned decimals bounded
// by the type they are stored in: strtoull alone accepts "-1" (wrapping
// it to 2^64-1), and a narrowing cast would turn 2^32+1 into 1.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

namespace latdiv::cli {

/// The value after the flag at argv[i], advancing i; exits 2 when the
/// flag is the last argument.
inline const char* next_arg(const char* tool, int argc, char** argv,
                            int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool, argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// Why `text` is not an unsigned decimal in [0, max], or kOk (and `out`
/// holds it).  Any '-' is refused and ERANGE catches values past 2^64-1.
enum class UintParse { kOk, kNotNumber, kOutOfRange };
inline UintParse parse_uint(const char* text, std::uint64_t max,
                            std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || std::strchr(text, '-') != nullptr) {
    return UintParse::kNotNumber;
  }
  if (errno == ERANGE || v > max) return UintParse::kOutOfRange;
  out = v;
  return UintParse::kOk;
}

/// Parses `text`, the value of `what` (a flag, or a positional argument's
/// name), into `out`: an unsigned decimal in [0, max of T] (parse_uint),
/// or exit 2.
template <typename T>
void uint_arg(const char* tool, const char* what, const char* text, T& out) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= sizeof(std::uint64_t));
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  std::uint64_t v = 0;
  switch (parse_uint(text, kMax, v)) {
    case UintParse::kOk:
      out = static_cast<T>(v);
      return;
    case UintParse::kNotNumber:
      std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", tool, what,
                   text);
      break;
    case UintParse::kOutOfRange:
      std::fprintf(stderr, "%s: %s value '%s' is out of range (max %llu)\n",
                   tool, what, text, static_cast<unsigned long long>(kMax));
      break;
  }
  std::exit(2);
}

/// Parses the value of the flag at argv[i] into `out`, advancing i
/// (uint_arg).
template <typename T>
void next_uint(const char* tool, int argc, char** argv, int& i, T& out) {
  const char* flag = argv[i];
  uint_arg(tool, flag, next_arg(tool, argc, argv, i), out);
}

/// The whole of the file at `path` into `out`; false when it cannot be
/// opened.
inline bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace latdiv::cli
