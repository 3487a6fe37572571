"""One forked process per usable core, with results merged in submission order.

Callers split their work into independent units and read the results back in
the order the units were given, so every output is the same for any core
count. The function and the units reach the workers by fork inheritance, as
arguments of the worker process, which the ``fork`` context never pickles:
large read-only inputs bound into the function cost nothing per unit. Only
the results are pickled.
"""

from __future__ import annotations

import os


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows): run serially
        return 1


def _keep_worker_heap() -> None:
    """Workers keep freed heap pages instead of returning them.

    Setting either glibc threshold turns off the dynamic rule that trims each
    residual's freed temporaries, so both are set. It must not raise: it runs
    before the worker can report an error.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc (TypeError: Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit ceiling for its dynamic value
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's own rule sets it


def _workers(n_units: int) -> int:
    """Processes :func:`ordered_map` uses for ``n_units`` units; 1 runs them in-process.

    Daemonic processes, which include the pool's own workers, may not have
    children, so there the map runs in-process too.
    """
    workers = min(_usable_cores(), n_units)
    if workers <= 1:
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else workers


def split(items) -> list:
    """``items`` cut into contiguous chunks, one per process :func:`ordered_map` would use."""
    n = _workers(len(items))
    size, extra = divmod(len(items), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _serve(fn, units, conn) -> None:
    """Worker body: send ``(True, fn(unit))`` per unit, or ``(False, error)`` and stop."""
    _keep_worker_heap()
    for unit in units:
        try:
            result = (True, fn(unit))
        except Exception as exc:  # sent to the parent, which raises it
            conn.send((False, exc))
            return
        conn.send(result)


def ordered_map(fn, units):
    """Yield ``fn(unit)`` for each of the ``units`` list, in order.

    Worker ``j`` of ``w`` takes units ``j, j + w, ...`` and sends each result
    down its own pipe, which the caller's thread reads when it reaches that
    unit. A worker waits while its unread result fills the pipe, so about
    two units per worker are in flight, and the caller holds no result it
    has not asked for. The first unit to raise, in order, stops the workers
    and its exception propagates as the serial loop would raise it. A caller
    that may stop reading early closes the generator to stop the workers.
    """
    workers = _workers(len(units))
    if workers <= 1:
        yield from map(fn, units)
        return
    # Imported here so that commands which never fork do not load it.
    import multiprocessing

    # fork, not spawn: workers share the imported numpy and ``fn``'s
    # inputs instead of re-importing or unpickling them, and callers need no
    # __main__ guard. The parent starts no thread of its own.
    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for j in range(workers):
            recv_end, send_end = fork.Pipe(duplex=False)
            conns.append(recv_end)
            proc = fork.Process(target=_serve, args=(fn, units[j::workers], send_end), daemon=True)
            proc.start()
            procs.append(proc)
            send_end.close()  # so a dead worker reads as EOF, and later workers do not inherit it
        for i in range(len(units)):
            proc, conn = procs[i % workers], conns[i % workers]
            try:
                ok, value = conn.recv()
            except EOFError:  # the worker died without reporting an error
                proc.join()
                raise ChildProcessError(f"worker process exited with code {proc.exitcode}") from None
            if not ok:
                raise value
            yield value
    finally:
        for proc in procs:
            proc.terminate()  # a worker left behind by an error may be blocked sending
            proc.join()
        for conn in conns:
            conn.close()
