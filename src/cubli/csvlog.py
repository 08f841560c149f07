"""A run's log as CSV: the one formatter, the file that replaces the output
path only once it is whole, and the writer that formats a run's rows on a
second core while the run steps.
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat

import numpy as np

from . import sim

HEADER = ",".join(sim.TimeSeries.COLUMNS)
CSV_BLOCK_ROWS = 1024  # rows turned into Python floats at a time, so memory stays flat


def blocks(ts: sim.TimeSeries):
    """ts's TimeSeries.COLUMNS arrays, CSV_BLOCK_ROWS rows at a time."""
    columns = [getattr(ts, name) for name in sim.TimeSeries.COLUMNS]
    for lo in range(0, len(ts.t), CSV_BLOCK_ROWS):
        yield [c[lo : lo + CSV_BLOCK_ROWS] for c in columns]


def logged_blocks(sc: sim.Scenario, log, fd: int):
    """Each block of the rows that sim.run logs into log, its (8, steps + 1)
    array, once the row count that ends it arrives on the pipe fd, with its
    derived columns (sim.time_series)."""
    lo = 0
    with open(fd, "rb") as counts:
        while count := counts.read(8):
            hi = int.from_bytes(count, "little")
            yield from blocks(sim.time_series(sc, log[:, lo:hi], lo))
            lo = hi


def write(path: str, row_blocks) -> None:
    """The one CSV formatter: write the header, then each block of rows, given
    as its TimeSeries.COLUMNS arrays, to path, with full double precision
    (shortest round-trip repr)."""
    # repr'd a column at a time; a tau_applied cell with its tau_cmd's bits reuses that string
    cmd, applied = sim.TimeSeries.COLUMNS.index("tau_cmd"), sim.TimeSeries.COLUMNS.index("tau_applied")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(HEADER + "\n")
        for block in row_blocks:
            equal = (block[cmd].view(np.int64) == block[applied].view(np.int64)).tolist()
            values = [c.tolist() for c in block]
            cells = [map(repr, v) for v in values]  # lazy, so a block's strings are never all alive
            cells[cmd] = list(map(repr, values[cmd]))
            cells[applied] = (text if eq else repr(v) for text, eq, v in zip(cells[cmd], equal, values[applied]))
            handle.writelines(",".join(row) + "\n" for row in zip(*cells))


@contextlib.contextmanager
def replacing(path: str):
    """Yield a temporary path beside path, for a file that replaces path once
    the block ends without an error, and is removed whatever happens, so a
    file at path is left as it was until then.

    As with open(path, "w"), a symlink is written through, a file there keeps
    its mode and a new one gets the umask's, and an error names path.  A
    directory, or a path ending in a separator, is yielded as it is, so the
    open fails at once with open's own IsADirectoryError.  Unlike open, the
    file at path is a new one: another hard link to the old file keeps the
    old bytes, the new file is owned by the user who writes it, and a
    read-only file is replaced wherever its directory is writable.
    """
    target = os.path.realpath(path)
    if path.endswith(os.sep) or os.path.isdir(target):
        yield path
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        yield tmp
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except OSError as err:
        if err.filename != tmp:
            raise
        raise type(err)(err.errno, err.strerror, path) from None
    finally:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # never made: its directory is not one
            os.remove(tmp)


def run_writing(sc: sim.Scenario, path: str) -> sim.TimeSeries:
    """sim.run(sc), with its CSV written to path by write.

    With a second usable core and a fork to be had, a writer forked before the
    first step (sim.forked) formats each block of CSV_BLOCK_ROWS rows once the
    run has logged it, so the formatting overlaps the run: the run's progress
    hook sends each row count down a pipe, and the writer reads the rows from
    the run's shared log.  Otherwise the formatter runs after the run.  An error of
    the run wins over the writer's, and the writer is killed and reaped however
    the run ends.
    """
    with contextlib.ExitStack() as stack:
        report = counts = None  # the forked writer's report, and the pipe the run's row counts go down

        def progress(log, logged):
            nonlocal report, counts
            if report is not None:
                with contextlib.suppress(BrokenPipeError):  # the writer has ended; it reports why after the run
                    counts.write(logged.to_bytes(8, "little"))
            elif logged == 0 and sim.usable_cores() > 1:
                read, write_end = os.pipe()
                counts = stack.enter_context(open(write_end, "wb", buffering=0))

                def write_here():  # in the forked writer
                    os.close(write_end)  # its copy of the write end, so that the run's close ends the rows
                    yield write(path, logged_blocks(sc, log, read))

                report = stack.enter_context(sim.forked(write_here))
                os.close(read)

        ts = sim.run(sc, progress, CSV_BLOCK_ROWS)
        if report is None:
            write(path, blocks(ts))
        else:
            counts.close()  # the end of the rows: the writer formats the last block and reports
            next(report)
    return ts
