// Small string toolkit used by the path resolver, the netfs schema engine
// (typed file parsing), and the shell utilities.  Parsing helpers return
// Result<> rather than throwing; the yanc FS is fed by untrusted file writes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/util/result.hpp"

namespace yanc {

/// Splits on a single character; empty fields are kept ("a//b" -> a,"",b).
std::vector<std::string> split(std::string_view s, char sep);

/// Splits and drops empty fields ("/a//b/" with '/' -> a,b).
std::vector<std::string> split_nonempty(std::string_view s, char sep);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parses a decimal unsigned integer; rejects junk, sign, overflow.
Result<std::uint64_t> parse_u64(std::string_view s);

/// Parses "0x..."-prefixed or plain hex.
Result<std::uint64_t> parse_hex_u64(std::string_view s);

/// Lower-case hex without prefix, zero-padded to width*2 chars.
std::string to_hex(std::uint64_t v, int width_bytes);

/// `prefix` followed by `n` in decimal ("f" and 7 give "f7"), the name of
/// one of a run of numbered objects.  Built by appending: GCC 12 reports a
/// false -Wrestrict at -O3 for `"f" + std::to_string(n)` in some loops.
std::string numbered(std::string_view prefix, std::uint64_t n);

/// Shell-style glob match supporting '*', '?' and '[set]'.  Used by the
/// find/grep utilities (§5.4) and by watch filters.
bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace yanc
