#ifndef RSAFE_COMMON_LOG_H_
#define RSAFE_COMMON_LOG_H_

#include <sstream>
#include <stdexcept>
#include <string>

/**
 * @file
 * Minimal diagnostic logging and error-reporting helpers.
 *
 * Follows the gem5 distinction between @c panic (an internal simulator bug:
 * a state that should be impossible regardless of configuration) and
 * @c fatal (a user/configuration error that prevents the simulation from
 * continuing). Both throw typed exceptions so tests can assert on them.
 */

namespace rsafe {

/** Thrown by panic(): an internal invariant of the simulator was violated. */
class PanicError : public std::logic_error {
  public:
    explicit PanicError(const std::string& what) : std::logic_error(what) {}
};

/** Thrown by fatal(): the user asked for something unsatisfiable. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/** Report an internal simulator bug; never returns. */
[[noreturn]] void panic(const std::string& msg);

/** Report an unrecoverable user/configuration error; never returns. */
[[noreturn]] void fatal(const std::string& msg);

/** Emit a warning to stderr (does not stop the simulation). */
void warn(const std::string& msg);

namespace detail {

inline void
format_into(std::ostringstream&)
{
}

template <typename T, typename... Rest>
void
format_into(std::ostringstream& os, const T& value, const Rest&... rest)
{
    os << value;
    format_into(os, rest...);
}

}  // namespace detail

/** Concatenate a heterogeneous argument pack into a std::string. */
template <typename... Args>
std::string
strcat_args(const Args&... args)
{
    std::ostringstream os;
    detail::format_into(os, args...);
    return os.str();
}

}  // namespace rsafe

#endif  // RSAFE_COMMON_LOG_H_
