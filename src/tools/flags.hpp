// flags.hpp — the checked numeric-flag parser of congen-run, congen-serve
// and congen-loadgen.
//
// Every numeric flag value is a plain decimal checked into a range; only
// the byte and fuel budgets (--max-*, congen-serve's --admission-heap)
// also take K/M/G (binary) suffixes. Signs, whitespace, trailing junk,
// overflow and out-of-range values are all rejected, and the tool exits
// 2 naming the flag: a malformed value never parses to 0, wraps, or
// truncates into range.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "runtime/governor.hpp"

namespace congen::tools {

inline constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Upper bound for the time flags: about 31 years, so steady_clock
/// deadline arithmetic in nanoseconds can never overflow.
inline constexpr std::uint64_t kMaxSeconds = 1'000'000'000;

/// Parse a plain decimal into [lo, hi], with an optional K/M/G suffix
/// when `suffixes` is set. Returns false, leaving `out` untouched, on
/// anything else.
inline bool parseNumber(const std::string& text, std::uint64_t& out, std::uint64_t lo,
                        std::uint64_t hi, bool suffixes = false) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  std::uint64_t scale = 1;
  if (suffixes) {
    if (*end == 'K' || *end == 'k') {
      scale = 1024, ++end;
    } else if (*end == 'M' || *end == 'm') {
      scale = 1024 * 1024, ++end;
    } else if (*end == 'G' || *end == 'g') {
      scale = 1024ULL * 1024 * 1024, ++end;
    }
  }
  if (*end != '\0' || raw > hi / scale) return false;
  const std::uint64_t value = static_cast<std::uint64_t>(raw) * scale;
  if (value < lo) return false;
  out = value;
  return true;
}

/// parseNumber, or exit 2 with "<tool>: bad <flag> value '<text>'".
inline std::uint64_t numberOrExit(const char* tool, const char* flag, const std::string& text,
                                  std::uint64_t lo, std::uint64_t hi, bool suffixes = false) {
  std::uint64_t v = 0;
  if (!parseNumber(text, v, lo, hi, suffixes)) {
    std::cerr << tool << ": bad " << flag << " value '" << text << "' (want " << lo << ".." << hi
              << ")\n";
    std::exit(2);
  }
  return v;
}

/// The --max-<budget>=N quota flags (K/M/G suffixes, 0 = unlimited).
/// Returns false when `arg` names no quota; exits 2 naming `arg` when
/// its value is bad.
inline bool parseQuotaFlag(const char* tool, const std::string& arg, governor::Limits& quotas) {
  using Slot = std::uint64_t governor::Limits::*;
  static const std::pair<std::string, Slot> kQuotas[] = {
      {"--max-heap=", &governor::Limits::maxHeapBytes},
      {"--max-fuel=", &governor::Limits::maxFuel},
      {"--max-pipes=", &governor::Limits::maxPipes},
      {"--max-coexprs=", &governor::Limits::maxCoexprs},
      {"--max-pipe-depth=", &governor::Limits::maxPipeDepth},
      {"--max-depth=", &governor::Limits::maxDepth},
  };
  for (const auto& [prefix, slot] : kQuotas) {
    if (arg.rfind(prefix, 0) != 0) continue;
    if (!parseNumber(arg.substr(prefix.size()), quotas.*slot, 0, kMaxU64, true)) {
      std::cerr << tool << ": bad value in " << arg << " (want e.g. 64M)\n";
      std::exit(2);
    }
    return true;
  }
  return false;
}

}  // namespace congen::tools
