/* Clocks and process counters the benchmark reads for itself, so that its
   timings do not depend on the TSC calibration of the program under test. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>
#ifdef __linux__
#include <sched.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define PERFBENCH_X86 1
#endif

intnat perfbench_now_ns_untagged(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_untagged(unit));
}

/* (user + system CPU microseconds, peak resident set in KiB) */
value perfbench_rusage(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(r);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  long cpu_us = (long)ru.ru_utime.tv_sec * 1000000L + ru.ru_utime.tv_usec
                + (long)ru.ru_stime.tv_sec * 1000000L + ru.ru_stime.tv_usec;
  r = caml_alloc_tuple(2);
  Store_field(r, 0, Val_long(cpu_us));
  Store_field(r, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(r);
}

value perfbench_nproc(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}

/* Restrict the calling thread to one CPU; threads it creates inherit the
   mask.  False where unsupported. */
value perfbench_pin_to_cpu(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}

/* CPUID brand string, or "unknown" off x86. */
value perfbench_cpu_model(value unit)
{
  (void)unit;
  char brand[49];
  memset(brand, 0, sizeof brand);
#ifdef PERFBENCH_X86
  unsigned int regs[12];
  if (__get_cpuid_max(0x80000000, NULL) >= 0x80000004) {
    __get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]);
    __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]);
    __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11]);
    memcpy(brand, regs, 48);
  }
#endif
  if (brand[0] == 0) strcpy(brand, "unknown");
  return caml_copy_string(brand);
}

/* CPUID leaf 0x80000007, EDX bit 8. */
value perfbench_invariant_tsc(value unit)
{
  (void)unit;
#ifdef PERFBENCH_X86
  unsigned int a, b, c, d;
  if (__get_cpuid_max(0x80000000, NULL) >= 0x80000007
      && __get_cpuid(0x80000007, &a, &b, &c, &d))
    return Val_bool((d >> 8) & 1);
#endif
  return Val_false;
}
