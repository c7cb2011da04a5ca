#include <time.h>
#include <caml/mlvalues.h>

/* Monotonic nanoseconds as an untagged native int: no allocation, so
   timing a call from inside the simulator leaves its GC counts alone. */
intnat e2e_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value e2e_clock_ns_byte(value unit)
{
  return Val_long(e2e_clock_ns(unit));
}
