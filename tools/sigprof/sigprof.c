/* A sampling profiler for machines without `perf`: an LD_PRELOAD library
 * that interrupts the process on a CPU-time timer and records where it was.
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=prof.txt LD_PRELOAD=$PWD/sigprof.so BINARY ARGS...
 * On exit it writes /proc/self/maps, a line "--", then one sampled
 * instruction pointer per line (hex); sigprof.py symbolizes them. x86-64
 * Linux only. 1 kHz; samples past the buffer are dropped (~70 minutes). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES]; /* preallocated: the handler only stores */
static unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    /* Atomic: with several threads two handlers can run at once. */
    unsigned long i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fputs("--\n", out);
    for (unsigned long i = 0; i < count && i < MAX_SAMPLES; i++) fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
