#include "src/base/logging.h"

#include <cstdio>
#include <cstdlib>

namespace demeter {

CheckFailure::CheckFailure(const char* file, int line) : file_(file), line_(line) {}

CheckFailure::~CheckFailure() {
  // Strip the directory prefix for readability.
  const char* base = file_;
  for (const char* p = file_; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::fprintf(stderr, "[FATAL %s:%d] %s\n", base, line_, stream_.str().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace demeter
