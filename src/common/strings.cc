#include "common/strings.h"

#include <sys/stat.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace chainsplit {

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return NotFoundError(StrCat("cannot open ", path));
  std::string out;
  struct stat st;
  if (fstat(fileno(file), &st) == 0 && st.st_size > 0) {
    out.resize(static_cast<size_t>(st.st_size));
  }
  out.resize(std::fread(out.data(), 1, out.size(), file));
  // Whatever the size did not cover: a file that grew, or a pipe.
  char buffer[4096];
  while (size_t n = std::fread(buffer, 1, sizeof(buffer), file)) {
    out.append(buffer, n);
  }
  const int error = std::ferror(file) ? errno : 0;
  std::fclose(file);
  if (error != 0) {
    return InternalError(
        StrCat("cannot read ", path, ": ", std::strerror(error)));
  }
  return out;
}

}  // namespace chainsplit
