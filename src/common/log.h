// Lightweight leveled logging. Thread-safe: the bench harness runs
// simulations on worker threads, so each message is formatted into one
// buffer and written under a mutex (messages never interleave mid-line).
// Verbosity is a process-global knob the benches set to kWarning to keep
// table output clean.
#ifndef SRC_COMMON_LOG_H_
#define SRC_COMMON_LOG_H_

#include <cstdarg>
#include <string>

namespace lyra {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Sets the minimum level that is emitted. Defaults to kWarning.
void SetLogLevel(LogLevel level);

// Parses a level name ("debug", "info", "warning"/"warn", "error", "off")
// into *level; false on an unknown name. Backs --log-level flags and the
// LYRA_LOG_LEVEL environment variable.
bool ParseLogLevel(const std::string& name, LogLevel* level);

// printf-style logging at the given level.
void Logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace lyra

#define LYRA_LOG_DEBUG(...) ::lyra::Logf(::lyra::LogLevel::kDebug, __VA_ARGS__)
#define LYRA_LOG_INFO(...) ::lyra::Logf(::lyra::LogLevel::kInfo, __VA_ARGS__)
#define LYRA_LOG_WARNING(...) ::lyra::Logf(::lyra::LogLevel::kWarning, __VA_ARGS__)
#define LYRA_LOG_ERROR(...) ::lyra::Logf(::lyra::LogLevel::kError, __VA_ARGS__)

#endif  // SRC_COMMON_LOG_H_
