// Invariant checking.
//
// DEMETER_CHECK(cond) aborts on violation in every build type: simulation
// invariants (page accounting, tree structure) must never be silently wrong,
// since every experiment result depends on them.

#ifndef DEMETER_SRC_BASE_LOGGING_H_
#define DEMETER_SRC_BASE_LOGGING_H_

#include <sstream>

namespace demeter {

// Internal: collects a failed check's message, then prints it as
// "[FATAL file:line] ..." and aborts on destruction.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line);
  ~CheckFailure();

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace demeter

#define DEMETER_CHECK(cond)                                                   \
  if (cond) {                                                                 \
  } else                                                                      \
    ::demeter::CheckFailure(__FILE__, __LINE__).stream() << "Check failed: " #cond " "

#define DEMETER_CHECK_EQ(a, b) DEMETER_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define DEMETER_CHECK_NE(a, b) DEMETER_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define DEMETER_CHECK_LE(a, b) DEMETER_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define DEMETER_CHECK_LT(a, b) DEMETER_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define DEMETER_CHECK_GE(a, b) DEMETER_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
#define DEMETER_CHECK_GT(a, b) DEMETER_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "

#endif  // DEMETER_SRC_BASE_LOGGING_H_
