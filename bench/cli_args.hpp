// Flag-value parsing shared by the bench and example command lines.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sn::bench {

/// Whole-string unsigned parse (decimal, or hex with 0x) of a value in
/// [min, max]; exits 2 naming the flag on anything else, so "--repeats 3x"
/// cannot quietly read as 3 and "--stages x" cannot read as 0.
inline uint64_t parse_count(const char* flag, const char* text, uint64_t min, uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      v < min || v > max) {
    std::fprintf(stderr, "%s wants an integer >= %llu, got \"%s\"\n", flag,
                 static_cast<unsigned long long>(min), text);
    std::exit(2);
  }
  return v;
}

/// Whole command line of a bench that takes one optional `flag VALUE` pair:
/// returns VALUE, or nullptr when the flag is absent. Any other argument, or
/// the flag without its value, exits 2 — a typo must not run the whole bench
/// and quietly skip what the flag asked for.
inline const char* parse_single_flag(int argc, char** argv, const char* flag) {
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      std::exit(2);
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s wants a value\n", flag);
      std::exit(2);
    }
    value = argv[++i];
  }
  return value;
}

}  // namespace sn::bench
