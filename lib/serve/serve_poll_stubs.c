/* poll(2) readiness wait for Serve.Evloop.
 *
 * poll has no FD_SETSIZE (1024) limit, so a node serving hundreds of
 * clients on top of its mesh never meets a descriptor-count cliff.  The
 * stub copies the interest arrays into a C pollfd array (on the stack
 * for up to STACK_FDS descriptors), releases the OCaml runtime for the
 * wait, and writes one revents bit set per fd into the caller's array
 * (bit 0 = readable, bit 1 = writable).  It allocates nothing on the
 * OCaml heap.
 *
 * On Unix a Unix.file_descr is an immediate int, so the fd array is
 * read with Int_val directly; no conversion module is needed.
 */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

#define STACK_FDS 64

/* serve_poll_wait fds events revents count timeout_ms
 *
 * The first [count] entries of [fds] and [events] are the interest;
 * events bit 0 asks for POLLIN, bit 1 for POLLOUT.  Fills the first
 * [count] entries of [revents]: bit 0 is set when the fd is readable (or
 * hung up / in error — the caller's read will surface the close), bit 1
 * when writable.  Returns the number of ready fds; EINTR reports as 0,
 * like a timeout.
 */
CAMLprim value serve_poll_wait(value v_fds, value v_events, value v_revents,
                               value v_count, value v_timeout)
{
  CAMLparam5(v_fds, v_events, v_revents, v_count, v_timeout);
  long n = Long_val(v_count);
  int timeout = Int_val(v_timeout);
  struct pollfd stack[STACK_FDS];
  struct pollfd *pfd = stack;
  long i;
  int rc;

  if (n < 0 || (mlsize_t) n > Wosize_val(v_fds)
      || (mlsize_t) n > Wosize_val(v_events)
      || (mlsize_t) n > Wosize_val(v_revents))
    caml_invalid_argument("Serve.Evloop: poll: count out of range");
  if (n > STACK_FDS) {
    pfd = (struct pollfd *) malloc(n * sizeof(struct pollfd));
    if (pfd == NULL) caml_failwith("Serve.Evloop: poll: out of memory");
  }
  for (i = 0; i < n; i++) {
    int ev = Int_val(Field(v_events, i));
    pfd[i].fd = Int_val(Field(v_fds, i));
    pfd[i].events =
      (short) (((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
    pfd[i].revents = 0;
  }

  caml_release_runtime_system();
  rc = poll(pfd, (nfds_t) n, timeout);
  caml_acquire_runtime_system();

  if (rc < 0 && errno != EINTR) {
    if (pfd != stack) free(pfd);
    caml_failwith("Serve.Evloop: poll failed");
  }
  if (rc < 0) rc = 0;

  /* Immediate ints: no write barrier needed. */
  for (i = 0; i < n; i++) {
    int out = 0;
    if (rc > 0) {
      short rev = pfd[i].revents;
      if (rev & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) out |= 1;
      if (rev & (POLLOUT | POLLERR | POLLHUP)) out |= 2;
    }
    Field(v_revents, i) = Val_int(out);
  }
  if (pfd != stack) free(pfd);
  CAMLreturn(Val_int(rc));
}
