#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>

namespace simq {
namespace obs {

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder& FlightRecorder::Global() {
  // Intentionally leaked: signal handlers and std::terminate may dump
  // during (or after) static destruction, so the black box must never be
  // destroyed.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::Record(const char* type, const char* fields) {
  char line[kLineBytes];
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  timespec ts;
  long long ts_ms = 0;
  if (::clock_gettime(CLOCK_REALTIME, &ts) == 0) {
    ts_ms = static_cast<long long>(ts.tv_sec) * 1000 +
            ts.tv_nsec / 1000000;
  }
  int n;
  if (fields != nullptr && fields[0] != '\0') {
    n = std::snprintf(line, sizeof(line),
                      "{\"seq\":%llu,\"ts_ms\":%lld,\"ev\":\"%s\",%s}\n",
                      static_cast<unsigned long long>(seq), ts_ms, type,
                      fields);
  } else {
    n = std::snprintf(line, sizeof(line),
                      "{\"seq\":%llu,\"ts_ms\":%lld,\"ev\":\"%s\"}\n",
                      static_cast<unsigned long long>(seq), ts_ms, type);
  }
  if (n < 0) {
    return;
  }
  if (static_cast<size_t>(n) >= sizeof(line)) {
    // The fields fragment did not fit. Publish the envelope with a
    // truncation marker instead of a cut-off (invalid) JSON line.
    n = std::snprintf(
        line, sizeof(line),
        "{\"seq\":%llu,\"ts_ms\":%lld,\"ev\":\"%s\",\"truncated\":true}\n",
        static_cast<unsigned long long>(seq), ts_ms, type);
    if (n < 0 || static_cast<size_t>(n) >= sizeof(line)) {
      return;
    }
  }

  Slot& slot = slots_[seq % slots_.size()];
  // Seqlock write: odd marks in-progress, the final release store
  // publishes. Two writers meet on one slot when the later one laps the
  // ring while the earlier one is still copying. The compare-exchange
  // from even to odd lets exactly one of them own the slot; the other
  // drops its event, which the dump shows as a gap in "seq". A plain
  // store here would let both open the slot, leave the version odd at
  // rest and glue their bytes together.
  uint32_t v = slot.version.load(std::memory_order_relaxed);
  if ((v & 1u) != 0 ||
      !slot.version.compare_exchange_strong(v, v + 1,
                                            std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t words[kWords] = {};
  std::memcpy(words, line, static_cast<size_t>(n));
  for (size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.len.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);
}

void FlightRecorder::Recordf(const char* type, const char* fmt, ...) {
  char fields[kLineBytes];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(fields, sizeof(fields), fmt, args);
  va_end(args);
  if (n < 0) {
    return;
  }
  Record(type, fields);
}

bool FlightRecorder::ReadSlot(const Slot& slot, char* out,
                              size_t* len) const {
  const uint32_t v1 = slot.version.load(std::memory_order_acquire);
  if (v1 == 0 || (v1 & 1u) != 0) {
    return false;  // never written, or mid-write
  }
  const uint32_t n = slot.len.load(std::memory_order_relaxed);
  if (n == 0 || n > kLineBytes) {
    return false;
  }
  uint64_t words[kWords];
  for (size_t i = 0; i < kWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.version.load(std::memory_order_relaxed) != v1) {
    return false;  // torn by a concurrent writer
  }
  std::memcpy(out, words, n);
  *len = n;
  return true;
}

void FlightRecorder::DumpToFd(int fd) const {
  // Oldest first: walk the last `capacity` sequence numbers. A slot may
  // have been overwritten by a newer event since `head` was sampled; the
  // line's own "seq" field keeps the output self-describing either way.
  const uint64_t head = seq_.load(std::memory_order_acquire);
  const uint64_t span =
      head < slots_.size() ? head : static_cast<uint64_t>(slots_.size());
  char line[kLineBytes];
  for (uint64_t s = head - span; s < head; ++s) {
    const Slot& slot = slots_[s % slots_.size()];
    size_t len = 0;
    if (!ReadSlot(slot, line, &len)) {
      continue;
    }
    size_t sent = 0;
    while (sent < len) {
      const ssize_t w = ::write(fd, line + sent, len - sent);
      if (w <= 0) {
        return;
      }
      sent += static_cast<size_t>(w);
    }
  }
}

std::string FlightRecorder::DumpJsonl() const {
  const uint64_t head = seq_.load(std::memory_order_acquire);
  const uint64_t span =
      head < slots_.size() ? head : static_cast<uint64_t>(slots_.size());
  std::string out;
  out.reserve(static_cast<size_t>(span) * 96);
  char line[kLineBytes];
  for (uint64_t s = head - span; s < head; ++s) {
    size_t len = 0;
    if (ReadSlot(slots_[s % slots_.size()], line, &len)) {
      out.append(line, len);
    }
  }
  return out;
}

void FlightRecorder::SetCrashDumpPath(const std::string& path) {
  const size_t n = path.size() < sizeof(crash_path_) - 1
                       ? path.size()
                       : sizeof(crash_path_) - 1;
  std::memcpy(crash_path_, path.data(), n);
  crash_path_[n] = '\0';
}

bool FlightRecorder::DumpToCrashPath() const {
  if (crash_path_[0] == '\0') {
    return false;
  }
  const int fd = ::open(crash_path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  DumpToFd(fd);
  ::fsync(fd);
  ::close(fd);
  return true;
}

namespace {

FlightRecorder* g_crash_recorder = nullptr;
std::terminate_handler g_prev_terminate = nullptr;

// Fatal path: dump the black box, then die with the original signal.
// SA_RESETHAND restored the default disposition on entry, so the
// re-raise terminates with the correct exit status. Everything here is
// async-signal-safe (atomic loads + open/write/fsync).
void FatalSignalHandler(int sig) {
  FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr) {
    recorder->DumpToCrashPath();
  }
  ::raise(sig);
}

// On-demand path: dump and keep flying.
void DumpSignalHandler(int /*sig*/) {
  FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr) {
    recorder->DumpToCrashPath();
  }
}

[[noreturn]] void TerminateWithDump() {
  FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr) {
    recorder->DumpToCrashPath();
  }
  if (g_prev_terminate != nullptr) {
    g_prev_terminate();
  }
  std::abort();
}

}  // namespace

void FlightRecorder::InstallCrashHandlers(FlightRecorder* recorder) {
  g_crash_recorder = recorder;
  static bool installed = false;
  if (installed) {
    return;
  }
  installed = true;

  struct sigaction fatal;
  std::memset(&fatal, 0, sizeof(fatal));
  fatal.sa_handler = FatalSignalHandler;
  sigemptyset(&fatal.sa_mask);
  fatal.sa_flags = SA_RESETHAND;  // one shot: the re-raise is default
  const int fatal_signals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};
  for (const int sig : fatal_signals) {
    ::sigaction(sig, &fatal, nullptr);
  }

  struct sigaction dump;
  std::memset(&dump, 0, sizeof(dump));
  dump.sa_handler = DumpSignalHandler;
  sigemptyset(&dump.sa_mask);
  dump.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &dump, nullptr);

  g_prev_terminate = std::set_terminate(TerminateWithDump);
}

}  // namespace obs
}  // namespace simq
