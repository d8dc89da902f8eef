/**
 * @file
 * hostprof: a program-counter sampler preloaded into one process.
 *
 *     LD_PRELOAD=libhostprof.so HOSTPROF_OUT=samples.txt PROGRAM ARGS...
 *
 * At load it arms setitimer(ITIMER_PROF) with a 1 ms interval of the
 * CPU time the process spends, in user or kernel mode, and the SIGPROF
 * handler stores the interrupted program counter and the id of the
 * thread it interrupted. The kernel checks the timer on its scheduler
 * tick, so a sample may stand for more than 1 ms (4 ms at 250 Hz). At
 * exit each sample is attributed to the loaded object whose executable
 * segment holds it (dl_iterate_phdr), and written as one
 * "object-path<TAB>hex-address<TAB>tid" line, the address relative to
 * the object's link-time base, to $HOSTPROF_OUT (default
 * hostprof.out). A sample outside every object is written as
 * "?<TAB>1<TAB>tid", and samples past the buffer as "?<TAB>N". The
 * last lines "=pid<TAB>P" and "=cpu_ns<TAB>N" give the process id (the
 * main thread's tid) and the process's CPU time.
 * tools/hostprof/hostprof.py runs a command this way and symbolizes
 * the lines.
 *
 * Nothing is instrumented, so time in libm, libc or libstdc++ is
 * sampled like time in the program itself. gprof (-pg) cannot do that:
 * it attributes only functions compiled with -pg.
 *
 * The timer is per process: it measures this process and nothing else.
 * The sampler also removes LD_PRELOAD and HOSTPROF_OUT from the
 * environment at load, so a child the process starts is not sampled
 * and cannot overwrite the parent's samples.
 */

#include <link.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr long kIntervalUs = 1000;

/** One sample: where the timer interrupted which thread. */
struct Sample
{
    std::uintptr_t pc;
    pid_t tid;
};

/** Samples; written only by the signal handler. */
Sample samples[kMaxSamples];
/** Whether sample i fell inside a loaded object; set at exit. */
bool placed[kMaxSamples];
std::atomic<std::size_t> taken{0};
/** Where the samples go, read from the environment at load. */
char outPath[4096] = "hostprof.out";

void
onProf(int, siginfo_t *, void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "hostprof: unsupported architecture"
#endif
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = {pc, static_cast<pid_t>(syscall(SYS_gettid))};
}

__attribute__((constructor)) void
startSampling()
{
    const char *name = std::getenv("HOSTPROF_OUT");
    if (name && *name && std::strlen(name) < sizeof outPath)
        std::strcpy(outPath, name);
    unsetenv("HOSTPROF_OUT");
    unsetenv("LD_PRELOAD");
    struct sigaction action = {};
    action.sa_sigaction = onProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    const itimerval every = {{0, kIntervalUs}, {0, kIntervalUs}};
    setitimer(ITIMER_PROF, &every, nullptr);
}

/** dl_iterate_phdr state: where to write, which samples to place. */
struct Writer
{
    std::FILE *out = nullptr;
    std::size_t count = 0;
};

int
writeObject(dl_phdr_info *info, std::size_t, void *data)
{
    Writer &w = *static_cast<Writer *>(data);
    // The main program reports an empty name.
    char exe[4096];
    const char *path = info->dlpi_name;
    if (!path || !*path) {
        const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (n <= 0)
            return 0;
        exe[n] = '\0';
        path = exe;
    }
    for (int h = 0; h < info->dlpi_phnum; ++h) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[h];
        if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X))
            continue;
        const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
        const std::uintptr_t hi = lo + ph.p_memsz;
        for (std::size_t i = 0; i < w.count; ++i) {
            const std::uintptr_t pc = samples[i].pc;
            if (pc >= lo && pc < hi) {
                std::fprintf(w.out, "%s\t%jx\t%d\n", path,
                             static_cast<std::uintmax_t>(pc -
                                                         info->dlpi_addr),
                             static_cast<int>(samples[i].tid));
                placed[i] = true;
            }
        }
    }
    return 0;
}

__attribute__((destructor)) void
stopSampling()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    Writer w;
    w.out = std::fopen(outPath, "w");
    if (!w.out)
        return;
    const std::size_t total = taken.load(std::memory_order_relaxed);
    w.count = total < kMaxSamples ? total : kMaxSamples;
    dl_iterate_phdr(writeObject, &w);
    // Samples outside every object (the vDSO, generated code) and
    // samples past the buffer are still counted in the total.
    for (std::size_t i = 0; i < w.count; ++i) {
        if (!placed[i])
            std::fprintf(w.out, "?\t1\t%d\n",
                         static_cast<int>(samples[i].tid));
    }
    if (total > w.count)
        std::fprintf(w.out, "?\t%zu\n", total - w.count);
    std::fprintf(w.out, "=pid\t%d\n", static_cast<int>(getpid()));
    timespec cpu = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    std::fprintf(w.out, "=cpu_ns\t%jd\n",
                 static_cast<std::intmax_t>(cpu.tv_sec) * 1000000000 +
                     cpu.tv_nsec);
    std::fclose(w.out);
}

} // namespace
