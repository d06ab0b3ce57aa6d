/* poll(2) readiness wait for Serve.Evloop.
 *
 * poll has no FD_SETSIZE (1024) limit, so a node serving hundreds of
 * clients on top of its mesh never meets a descriptor-count cliff.  The
 * stub copies the interest arrays into a C pollfd array, releases the
 * OCaml runtime for the wait, and hands back one revents bit set per fd
 * (bit 0 = readable, bit 1 = writable).
 *
 * On Unix a Unix.file_descr is an immediate int, so the fd array is
 * read with Int_val directly; no conversion module is needed.
 */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

/* serve_poll_wait fds events timeout_ms
 *
 * [fds] and [events] have the same length; events bit 0 asks for POLLIN,
 * bit 1 for POLLOUT.  Returns a fresh int array of result bits: bit 0 is
 * set when the fd is readable (or hung up / in error — the caller's read
 * will surface the close), bit 1 when writable.  EINTR reports as "no fd
 * ready", like a timeout.
 */
CAMLprim value serve_poll_wait(value v_fds, value v_events, value v_timeout)
{
  CAMLparam3(v_fds, v_events, v_timeout);
  CAMLlocal1(v_res);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout);
  struct pollfd *pfd = NULL;
  mlsize_t i;
  int rc;

  if (n > 0) {
    pfd = (struct pollfd *) malloc(n * sizeof(struct pollfd));
    if (pfd == NULL) caml_failwith("Serve.Evloop: poll: out of memory");
    for (i = 0; i < n; i++) {
      int ev = Int_val(Field(v_events, i));
      pfd[i].fd = Int_val(Field(v_fds, i));
      pfd[i].events =
        (short) (((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
      pfd[i].revents = 0;
    }
  }

  caml_release_runtime_system();
  rc = poll(pfd, (nfds_t) n, timeout);
  caml_acquire_runtime_system();

  if (rc < 0 && errno != EINTR) {
    free(pfd);
    caml_failwith("Serve.Evloop: poll failed");
  }

  v_res = caml_alloc(n, 0);
  for (i = 0; i < n; i++) {
    int out = 0;
    if (rc > 0) {
      short rev = pfd[i].revents;
      if (rev & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) out |= 1;
      if (rev & (POLLOUT | POLLERR | POLLHUP)) out |= 2;
    }
    Store_field(v_res, i, Val_int(out));
  }
  free(pfd);
  CAMLreturn(v_res);
}
