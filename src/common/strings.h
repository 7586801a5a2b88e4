#ifndef CHAINSPLIT_COMMON_STRINGS_H_
#define CHAINSPLIT_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace chainsplit {

/// Concatenates the string representations of all arguments, using
/// operator<<. StrCat("x=", 3, "!") == "x=3!".
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Joins `parts` with `sep`: StrJoin({"a","b"}, ",") == "a,b".
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` at every occurrence of `sep` (empty pieces kept).
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses all of `text` as a base-10 integer in [min, max] into
/// `*out`. False, leaving `*out` alone, on anything else: an empty
/// string, a sign or digit run followed by other characters, or a value
/// out of range.
bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out);

/// Reads the whole file at `path` into one string sized to the file.
/// NotFound if it cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace chainsplit

#endif  // CHAINSPLIT_COMMON_STRINGS_H_
