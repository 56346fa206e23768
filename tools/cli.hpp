// Checked argv parsing shared by the command-line tools.
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
#include <limits>
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

/// Parses the value of the flag at argv[i] into `out`, advancing i: an
/// unsigned decimal in [0, max of T], or exit 2.  Any '-' is refused and
/// ERANGE catches values past 2^64-1.
template <typename T>
void next_uint(const char* tool, int argc, char** argv, int& i, T& out) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= sizeof(std::uint64_t));
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  const char* flag = argv[i];
  const char* text = next_arg(tool, argc, argv, i);
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || std::strchr(text, '-') != nullptr) {
    std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", tool, flag,
                 text);
    std::exit(2);
  }
  if (errno == ERANGE || v > kMax) {
    std::fprintf(stderr, "%s: %s value '%s' is out of range (max %llu)\n",
                 tool, flag, text, static_cast<unsigned long long>(kMax));
    std::exit(2);
  }
  out = static_cast<T>(v);
}

}  // namespace latdiv::cli
