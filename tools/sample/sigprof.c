/* LD_PRELOAD sampler: a SIGPROF every 4 ms of process CPU time, backtrace()
 * into a preallocated buffer, dumped with /proc/self/maps at exit.
 * Build and use: see README.md beside this file. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

#define DEPTH 64
#define MAX_SAMPLES (1 << 16)

static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static int taken;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = backtrace(frames[i], DEPTH);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[256];
    const char *out = getenv("SIGPROF_OUT");
    snprintf(path, sizeof path, "%s.%d", out ? out : "sigprof.out", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('S', f);
        for (int j = 0; j < depth[i]; j++)
            fprintf(f, " %p", frames[i][j]);
        fputc('\n', f);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, f);
    fclose(f);
}
