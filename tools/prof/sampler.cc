// picloud_prof — a SIGPROF stack sampler loaded with LD_PRELOAD
// (DESIGN.md §12.3).
//
//   LD_PRELOAD=build/tools/prof/libpicloud_prof.so build/examples/flash_crowd
//   python3 tools/prof/report.py picloud_prof.<pid>.stacks
//
// From load to exit, a POSIX timer on the monotonic clock sends the process
// SIGPROF every 250 us, and the handler copies the interrupted call stack
// (return addresses, innermost first) into a fixed buffer. At exit the
// library writes the samples and the process's executable mappings to
// picloud_prof.<pid>.stacks in the working directory; report.py symbolizes
// them with nm. The simulator is single-threaded, so a wall-clock timer
// samples its CPU time; a sample that finds the buffer full is dropped and
// counted.
//
// The handler calls backtrace(), which glibc does not list as
// async-signal-safe: its first call loads the unwinder, so the library
// calls it once before arming the timer, and after that it neither
// allocates nor locks on the paths this program samples.
#if !defined(__x86_64__) || !defined(__linux__)
#error "picloud_prof reads the x86-64 Linux signal context"
#endif

#include <execinfo.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr long kIntervalNs = 250'000;
constexpr std::size_t kMaxSamples = 1 << 15;
constexpr int kMaxDepth = 128;

struct Sample {
  int depth;
  void* frames[kMaxDepth];
};

Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};
timer_t g_timer;
bool g_armed = false;

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t index = g_count.load(std::memory_order_relaxed);
  if (index >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  void* frames[kMaxDepth + 8];
  const int n = backtrace(frames, kMaxDepth + 8);
  // Start at the interrupted instruction: skip this handler and the signal
  // trampoline.
  const auto* uc = static_cast<const ucontext_t*>(context);
  void* const pc = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
  int first = 0;
  while (first < n && frames[first] != pc) ++first;
  if (first == n) first = n < 2 ? n : 2;
  Sample& sample = g_samples[index];
  sample.depth = n - first < kMaxDepth ? n - first : kMaxDepth;
  std::memcpy(sample.frames, frames + first,
              static_cast<std::size_t>(sample.depth) * sizeof(void*));
  g_count.store(index + 1, std::memory_order_relaxed);
}

__attribute__((constructor)) void start_sampling() {
  void* warm[4];
  (void)backtrace(warm, 4);  // loads the unwinder outside the handler

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;

  struct sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &event, &g_timer) != 0) return;
  struct itimerspec spec;
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = kIntervalNs;
  spec.it_value = spec.it_interval;
  g_armed = timer_settime(g_timer, 0, &spec, nullptr) == 0;
}

__attribute__((destructor)) void write_samples() {
  if (!g_armed) return;
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);

  char path[64];
  std::snprintf(path, sizeof(path), "picloud_prof.%ld.stacks",
                static_cast<long>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  const std::size_t count = g_count.load();
  std::fprintf(out, "# picloud_prof interval_ns=%ld samples=%zu dropped=%zu\n",
               kIntervalNs, count, g_dropped.load());
  // Executable mappings, so report.py can turn addresses into symbols.
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      unsigned long start = 0, end = 0, offset = 0;
      char perms[8] = {};
      int path_at = 0;
      if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
                      &offset, &path_at) < 4) {
        continue;
      }
      if (perms[2] != 'x' || line[path_at] != '/') continue;
      std::fprintf(out, "map %lx %lx %lx %s", start, end, offset,
                   line + path_at);
    }
    std::fclose(maps);
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::fputs("sample", out);
    for (int d = 0; d < g_samples[i].depth; ++d) {
      std::fprintf(out, " %lx",
                   reinterpret_cast<unsigned long>(g_samples[i].frames[d]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
