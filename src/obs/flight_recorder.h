/// Black-box flight recorder: an always-on, fixed-size ring of the most
/// recent structured events (query admissions and finishes with resource
/// usage, mutations, recompaction publishes, terminations, connection
/// open/close, checkpoints), dumpable as JSONL at any moment -- on demand
/// (the shell's `.flight`, HTTP /flightrecorder, SIGUSR1) and
/// automatically from the fatal-signal / std::terminate path, so every
/// crash leaves a readable record of the seconds before it next to the
/// WAL.
///
/// Design constraints, in order:
///
///  * Recording is lock-free and bounded. A writer formats its line into
///    a stack buffer, takes a sequence number with one fetch_add, and
///    owns that number's slot by compare-exchanging its version from even
///    to odd; the release store of the next even version publishes (a
///    seqlock per slot). When a writer laps the ring while an earlier one
///    is still copying into the same slot, the one that finds the version
///    odd drops its event instead of sharing the slot -- the dump shows
///    the drop as a gap in "seq". No mutex, no allocation after
///    construction, ~one memcpy of <= kLineBytes.
///  * Dumping from a fatal context is async-signal-safe. The crash-path
///    dump reads slot memory and calls only open()/write()/fsync():
///    torn slots (version mismatch across the copy) are skipped, never
///    blocked on. The on-demand dump is the same walk without the
///    signal-safety restriction.
///  * Every published slot is one complete JSON object. Lines carry a
///    monotone "seq" so a reader can order events and detect the ring's
///    wrap losses; over-long field fragments are truncated at a quote
///    boundary and closed, so truncation never yields invalid JSON.
///
/// One recorder per process is the intended shape (a black box records
/// the aircraft, not the instrument): Global() is that instance, and
/// ServiceOptions::flight_recorder defaults to it. Tests that need
/// isolation construct their own.

#ifndef SIMQ_OBS_FLIGHT_RECORDER_H_
#define SIMQ_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace simq {
namespace obs {

class FlightRecorder {
 public:
  /// Bytes per slot line, including the trailing '\n'. Sized so a query
  /// finish event with its full ResourceUsage fragment fits; an
  /// oversized fields fragment is truncated cleanly.
  static constexpr size_t kLineBytes = 320;
  static constexpr size_t kDefaultCapacity = 4096;  // slots (~1.5 MiB)

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder (never destroyed; safe from atexit and
  /// signal handlers).
  static FlightRecorder& Global();

  /// Records one event. `type` is the event name ("query", "mutation",
  /// "recompact", "conn", "checkpoint", "stall", ...; catalog in
  /// docs/OBSERVABILITY.md); `fields` is a pre-rendered JSON fragment
  /// (`"key":value,...`, no surrounding braces, may be empty). The line
  /// published is {"seq":N,"ts_ms":...,"ev":"type",fields}.
  void Record(const char* type, const char* fields);

  /// printf-style convenience for the fields fragment.
  void Recordf(const char* type, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  /// All currently published events, oldest first, one JSON object per
  /// line. Allocates; not for signal handlers.
  std::string DumpJsonl() const;

  /// Async-signal-safe dump: walks the ring with atomic loads and writes
  /// complete lines to `fd` with write(). Skips slots that are mid-write.
  void DumpToFd(int fd) const;

  /// Where the fatal path writes its dump. Stored in a fixed buffer so
  /// the signal handler needs no allocation; empty disables the
  /// automatic crash dump. Call before InstallCrashHandlers.
  void SetCrashDumpPath(const std::string& path);
  const char* crash_dump_path() const { return crash_path_; }

  /// Opens crash_dump_path (O_CREAT|O_TRUNC) and dumps; fsyncs before
  /// closing. Async-signal-safe; no-op when the path is unset. Returns
  /// true when a dump was written.
  bool DumpToCrashPath() const;

  /// Installs handlers that dump `recorder` before dying: SIGSEGV,
  /// SIGBUS, SIGILL, SIGFPE, SIGABRT re-raise after dumping so the exit
  /// status is preserved; std::terminate dumps then aborts; SIGUSR1
  /// dumps on demand and continues. Idempotent; the recorder must
  /// outlive the process (use Global()).
  static void InstallCrashHandlers(FlightRecorder* recorder);

  int64_t events_recorded() const {
    return static_cast<int64_t>(seq_.load(std::memory_order_relaxed));
  }
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kWords = kLineBytes / sizeof(uint64_t);

  /// A per-slot seqlock. The line bytes live in relaxed atomic words (not
  /// a plain char array) so the concurrent dump walk is free of formal
  /// data races -- same machine code as a memcpy on every target we
  /// build, but clean under TSan and the standard.
  struct alignas(64) Slot {
    std::atomic<uint32_t> version{0};  // odd while being written
    std::atomic<uint32_t> len{0};      // published line length
    std::atomic<uint64_t> words[kWords] = {};
  };

  /// Copies a consistent published line out of `slot`; false if the slot
  /// is empty or was torn by a concurrent writer.
  bool ReadSlot(const Slot& slot, char* out, size_t* len) const;

  std::atomic<uint64_t> seq_{0};
  std::vector<Slot> slots_;
  char crash_path_[512] = {0};
};

}  // namespace obs
}  // namespace simq

#endif  // SIMQ_OBS_FLIGHT_RECORDER_H_
