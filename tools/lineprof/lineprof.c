// SIGPROF sampler for tools/lineprof/lineprof.py, loaded with LD_PRELOAD.
//
// setitimer(ITIMER_PROF) on its own process asks for SIGPROF every
// millisecond of CPU time (the kernel delivers at most one per scheduler
// tick); the handler records the interrupted program counter. At exit the
// samples and /proc/self/maps go to "$LINEPROF_OUT.<pid>", one
// "map <maps line>" or "pc <hex>" per line.

#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1ul << 20)  // over 17 CPU-minutes; later samples are dropped

static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)ctx;
#if defined(__x86_64__)
  unsigned long pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  unsigned long pc = (unsigned long)uc->uc_mcontext.pc;
#else
#error "lineprof: unsupported architecture"
#endif
  unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) {
    samples[i] = pc;
  }
}

__attribute__((constructor)) static void lineprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void lineprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* prefix = getenv("LINEPROF_OUT");
  if (prefix == NULL) {
    return;
  }
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld", prefix, (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    return;
  }
  char line[4096];
  FILE* maps = fopen("/proc/self/maps", "r");
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  if (maps != NULL) {
    fclose(maps);
  }
  unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (unsigned long i = 0; i < n; ++i) {
    fprintf(out, "pc %lx\n", samples[i]);
  }
  fclose(out);
}
