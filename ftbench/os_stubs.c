/* CPU affinity and CPU time of the calling thread, for Affinity.ml and
   Trace.ml. */

#define _GNU_SOURCE
#include <sched.h>
#include <errno.h>
#include <string.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

/* The CPUs the calling thread may run on, in increasing order. */
value ftbench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith(strerror(errno));
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  cpus = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* Let the calling thread run only on the CPUs listed. */
value ftbench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) caml_invalid_argument("Affinity.set");
    CPU_SET(c, &set);
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith(strerror(errno));
  CAMLreturn(Val_unit);
}

/* The calling thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
   Allocates nothing and raises nothing, so it is declared [@@noalloc]. */
value ftbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return Val_long(-1);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
