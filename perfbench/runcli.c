/* Runs a CLI command once per trailing argument, one process at a time,
   as a user's shell would, and reports what each run cost.

     runcli PROGRAM ARG... -- LAST_ARG...

   runs PROGRAM ARG... LAST_ARG for each LAST_ARG in turn, with stderr
   sent to /dev/null.  For each run it writes one line
   "WALL_NS CPU_US MAXRSS_KB STATUS NBYTES" to stdout, followed by the
   NBYTES bytes the run printed.

   The kernel's ru_maxrss of a child starts at the high-water mark of
   the process that forked it, so a child of the Python driver would
   report the driver's memory.  This launcher stays at about 1 MB, so
   the figure is the child's own. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static long long now_ns(void) {
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec * 1000000000LL + t.tv_nsec;
}

static void die(const char *what) {
  perror(what);
  exit(1);
}

int main(int argc, char **argv) {
  int sep = 1;
  while (sep < argc && strcmp(argv[sep], "--") != 0) sep++;
  if (sep < 2 || sep >= argc) {
    fprintf(stderr, "usage: runcli PROGRAM ARG... -- LAST_ARG...\n");
    return 2;
  }
  int nfixed = sep - 1;
  char **cmd = calloc(nfixed + 2, sizeof *cmd);
  size_t cap = 1 << 16, len;
  char *buf = malloc(cap);
  if (cmd == NULL || buf == NULL) die("malloc");
  memcpy(cmd, argv + 1, nfixed * sizeof *cmd);

  for (int i = sep + 1; i < argc; i++) {
    cmd[nfixed] = argv[i];
    int fd[2];
    if (pipe(fd) != 0) die("pipe");
    long long t0 = now_ns();
    pid_t pid = fork();
    if (pid < 0) die("fork");
    if (pid == 0) {
      /* Dies with the launcher, so a killed run leaves no process. */
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      int null = open("/dev/null", O_WRONLY);
      if (null < 0 || dup2(fd[1], 1) < 0 || dup2(null, 2) < 0) _exit(126);
      close(fd[0]);
      close(fd[1]);
      close(null);
      execv(cmd[0], cmd);
      _exit(127);
    }
    close(fd[1]);
    len = 0;
    for (;;) {
      if (len == cap && (buf = realloc(buf, cap *= 2)) == NULL) die("realloc");
      ssize_t n = read(fd[0], buf + len, cap - len);
      if (n > 0)
        len += n;
      else if (n == 0)
        break;
      else if (errno != EINTR)
        die("read");
    }
    close(fd[0]);
    int status;
    struct rusage ru;
    while (wait4(pid, &status, 0, &ru) < 0)
      if (errno != EINTR) die("wait4");
    long long wall = now_ns() - t0;
    long cpu = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L + ru.ru_utime.tv_usec +
               ru.ru_stime.tv_usec;
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    printf("%lld %ld %ld %d %zu\n", wall, cpu, ru.ru_maxrss, code, len);
    fwrite(buf, 1, len, stdout);
  }
  return fflush(stdout) == 0 ? 0 : 1;
}
