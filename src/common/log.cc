#include "src/common/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

namespace lyra {
namespace {

// Relaxed atomic: readers on worker threads race benignly with SetLogLevel,
// which only tests flip between runs.
std::atomic<LogLevel> g_level{LogLevel::kWarning};
std::mutex g_stderr_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

bool ParseLogLevel(const std::string& name, LogLevel* level) {
  if (name == "debug") {
    *level = LogLevel::kDebug;
  } else if (name == "info") {
    *level = LogLevel::kInfo;
  } else if (name == "warning" || name == "warn") {
    *level = LogLevel::kWarning;
  } else if (name == "error") {
    *level = LogLevel::kError;
  } else if (name == "off" || name == "none") {
    *level = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void Logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) <
      static_cast<int>(g_level.load(std::memory_order_relaxed))) {
    return;
  }
  // Format the whole line up front so concurrent loggers cannot interleave
  // fragments; the mutex serializes the single write per message.
  char stack_buf[512];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  va_end(args);

  std::vector<char> heap_buf;
  const char* body = stack_buf;
  if (needed >= static_cast<int>(sizeof(stack_buf))) {
    heap_buf.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, args_copy);
    body = heap_buf.data();
  }
  va_end(args_copy);

  std::lock_guard<std::mutex> lock(g_stderr_mutex);
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), needed < 0 ? fmt : body);
}

}  // namespace lyra

// Default ThreadSanitizer suppressions, compiled into every binary when the
// build is instrumented (LYRA_SANITIZE=thread) so ctest and CI need no
// TSAN_OPTIONS plumbing. Lives here rather than in its own translation unit
// because the linker would drop an unreferenced object from the static
// archive, and every binary links the logger.
//
// libstdc++ 12's std::atomic<std::shared_ptr> (_Sp_atomic) guards its
// pointer word with a lock bit in the refcount, but the reader's unlock is
// memory_order_relaxed, so the formal model sees no happens-before edge
// between a load()'s read of _M_ptr and a later store()'s swap of it even
// though the lock bit provides real mutual exclusion. TSan reports that
// missing edge as a race on every snapshot publish that overlaps a read.
// The report is confined to _Sp_atomic's own frames; suppress exactly those.
#if defined(__SANITIZE_THREAD__)
extern "C" const char* __tsan_default_suppressions() {
  return "race:_Sp_atomic\n";
}
#endif
