#include "support/check.h"

#include <sstream>
#include <string_view>

namespace bfdn::detail {

namespace {

/// `file` (a __FILE__, usually absolute) as error text names it: the
/// path below the last `src/` directory ("recursive/bfdn_ell.cpp"), or
/// the bare file name for sources outside src/. Error bytes are then
/// the same for every build of one commit and never carry the build
/// machine's directory layout.
std::string_view source_relative(std::string_view file) {
  for (std::size_t pos = file.rfind("src/"); pos != std::string_view::npos;
       pos = pos == 0 ? std::string_view::npos : file.rfind("src/", pos - 1)) {
    if (pos == 0 || file[pos - 1] == '/') return file.substr(pos + 4);
  }
  const std::size_t slash = file.rfind('/');
  return slash == std::string_view::npos ? file : file.substr(slash + 1);
}

}  // namespace

void check_failed(const char* kind, const char* expr, const char* file,
                  int line, const std::string& message) {
  std::ostringstream oss;
  oss << kind << " failed: " << expr << " at " << source_relative(file)
      << ":" << line;
  if (!message.empty()) oss << " — " << message;
  throw CheckError(oss.str());
}

}  // namespace bfdn::detail
