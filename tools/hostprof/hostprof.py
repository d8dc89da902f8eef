#!/usr/bin/env python3
"""Profile one command with the hostprof sampler and print its hot spots.

Runs COMMAND with ``libhostprof.so`` preloaded, which samples the
program counter on a CPU-time timer (``setitimer(ITIMER_PROF)``: 1 ms
asked, one scheduler tick at the coarsest). Then it symbolizes the
samples: ``addr2line`` names addresses in objects with a symbol table,
and the dynamic symbols (``nm -D``) name the rest. Time inside a
stripped libm or libc is therefore counted, per object and per
function. gprof cannot show that time at all: it only sees functions
built with -pg, so a simulator spending a sixth of its time in libm's
pow looks, under gprof, as if that time belonged to nobody.

Usage:
    hostprof.py --lib build/tools/hostprof/libhostprof.so [--top N] \\
        [--repeat N] [--addresses N] -- COMMAND [ARGS...]

``--repeat N`` runs COMMAND N times and pools the samples, for commands
too short to collect many.

``--addresses N`` also prints the N hottest raw addresses inside each
unnamed region ("?? (after SYMBOL)") of a stripped library, so the
hot code can be disassembled with
``objdump -d --start-address=ADDR --stop-address=ADDR+64 LIB``.
On Debian's glibc 2.36 (x86-64), "?? (after
__nss_database_lookup@GLIBC_2.2.5)" is glibc's internal AVX-512
``memmove``: time there is mostly small (64-128-byte) copies
stalled on their source load.

The report also splits the samples by thread: each thread's share and
its top functions. The main thread is the one whose tid equals the
process id; the others are named "thread N", N counting their tids in
ascending order (Linux hands tids out in creation order), so
``--repeat`` pools each role across runs.

COMMAND's stdout and stderr go to stderr; the report goes to stdout.
Only COMMAND's own process is measured. Samples are self time. Without
debug info an inlined callee is charged to the function it was inlined
into; with -g, addr2line names the inlined function itself.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import os
import pathlib
import subprocess
import sys
import tempfile


MAIN_THREAD = "main"
PER_THREAD_TOP = 10


def read_samples(paths: list[pathlib.Path]
                 ) -> tuple[dict[str, list[tuple[int, str]]],
                            collections.Counter[str | None], int]:
    """{object path: [(address, thread), ...]}, unplaced samples per
    thread (None: past the sample buffer, no tid kept) and CPU ns.

    Each file is one run. A thread is named by its role in its run:
    MAIN_THREAD where its tid is the run's pid, else "thread N" by the
    rank of its tid among the run's other tids.
    """
    by_object: dict[str, list[tuple[int, str]]] = (
        collections.defaultdict(list))
    unplaced: collections.Counter[str] = collections.Counter()
    cpu_ns = 0
    for path in paths:
        placed: list[tuple[str, int, int]] = []
        lost: list[tuple[int, int | None]] = []
        pid = None
        for line in path.read_text().splitlines():
            fields = line.split("\t")
            if fields[0] == "?":
                lost.append((int(fields[1]),
                             int(fields[2]) if len(fields) > 2 else None))
            elif fields[0] == "=cpu_ns":
                cpu_ns += int(fields[1])
            elif fields[0] == "=pid":
                pid = int(fields[1])
            else:
                placed.append((fields[0], int(fields[1], 16),
                               int(fields[2])))
        tids = ({tid for _, _, tid in placed} |
                {tid for _, tid in lost if tid is not None})
        others = sorted(tids - {pid})
        names = {tid: f"thread {rank}"
                 for rank, tid in enumerate(others, start=1)}
        names[pid] = MAIN_THREAD
        names[None] = None
        for obj, addr, tid in placed:
            by_object[obj].append((addr, names[tid]))
        for n, tid in lost:
            unplaced[names[tid]] += n
    return by_object, unplaced, cpu_ns


def addr2line(obj: str, addrs: list[int]) -> list[str]:
    """Function name per address ("??" where addr2line has none)."""
    proc = subprocess.run(["addr2line", "-f", "-C", "-e", obj],
                          input="".join(f"{a:x}\n" for a in addrs),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 * len(addrs):
        return ["??"] * len(addrs)
    return lines[0::2]


def symbols(obj: str, dynamic: bool) -> list[tuple[int, int, str]]:
    """Sorted (start, end, name) of @p obj's function symbols."""
    proc = subprocess.run(["nm", *(["-D"] if dynamic else []), "-C", "-S",
                           "--defined-only", obj],
                          capture_output=True, text=True)
    table = []
    for line in proc.stdout.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "TtWwiI":
            start, size = int(parts[0], 16), int(parts[1], 16)
            table.append((start, start + size, parts[3]))
    return sorted(table)


def symbolize(obj: str, addrs: list[int]) -> list[str]:
    """Function name per address of @p obj.

    An object with a symbol table goes through addr2line, which also
    names inlined functions when the object has debug info. A stripped
    system library (libc, libm) keeps only its dynamic symbols; an
    address outside all of them is internal code, named after the
    exported function it follows (glibc's pow@@GLIBC_2.29 is a short
    wrapper, so its work shows as "?? (after pow@@GLIBC_2.29)").
    """
    unique = sorted(set(addrs))
    if symbols(obj, dynamic=False):
        names = dict(zip(unique, addr2line(obj, unique)))
    else:
        table = symbols(obj, dynamic=True)
        starts = [t[0] for t in table]
        names = {}
        for a in unique:
            i = bisect.bisect_right(starts, a) - 1
            if i < 0:
                names[a] = "??"
            elif a < table[i][1]:
                names[a] = table[i][2]
            else:
                names[a] = f"?? (after {table[i][2]})"
    return [names[a] for a in addrs]


def unnamed_hot_addresses(names: list[str], addrs: list[int], count: int
                          ) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(region, samples, [(address, samples), ...]) per unnamed region.

    A region is every address symbolize() named "??..."; regions come
    hottest first, each with its @p count hottest addresses.
    """
    per_region: dict[str, collections.Counter[int]] = (
        collections.defaultdict(collections.Counter))
    for name, addr in zip(names, addrs):
        if name.startswith("??"):
            per_region[name][addr] += 1
    regions = [(name, sum(hits.values()), hits.most_common(count))
               for name, hits in per_region.items()]
    return sorted(regions, key=lambda r: (-r[1], r[0]))


def report(paths: list[pathlib.Path], top: int, addresses: int = 0) -> None:
    by_object, unplaced, cpu_ns = read_samples(paths)
    total = sum(unplaced.values()) + sum(len(h) for h in by_object.values())
    if total == 0:
        print("hostprof: no samples (the command used too little CPU)")
        return
    per_function: collections.Counter[tuple[str, str]] = collections.Counter()
    per_object: collections.Counter[str] = collections.Counter()
    per_thread: collections.Counter[str] = collections.Counter(
        {thread: n for thread, n in unplaced.items() if thread is not None})
    thread_functions: dict[str, collections.Counter[tuple[str, str]]] = (
        collections.defaultdict(collections.Counter))
    unnamed = []
    for obj, hits in by_object.items():
        short = os.path.basename(obj)
        per_object[short] += len(hits)
        addrs = [addr for addr, _ in hits]
        names = symbolize(obj, addrs)
        for name, (_, thread) in zip(names, hits):
            per_function[(name, short)] += 1
            per_thread[thread] += 1
            thread_functions[thread][(name, short)] += 1
        if addresses > 0:
            unnamed += [(short, *region) for region in
                        unnamed_hot_addresses(names, addrs, addresses)]

    def line(n: int, label: str) -> str:
        return f"{100.0 * n / total:6.2f} %  {n:8d}  {label}"

    print(f"hostprof: {total} samples over {cpu_ns / 1e9:.3f} s of CPU "
          f"(one per {cpu_ns / 1e6 / total:.2f} ms)")
    print("\nper object")
    for short, n in per_object.most_common():
        print("  " + line(n, short))
    lost = sum(unplaced.values())
    if lost:
        print("  " + line(lost, "(outside every object, or past the "
                                "sample buffer)"))
    print(f"\ntop {top} functions (self time)")
    for (name, short), n in per_function.most_common(top):
        print("  " + line(n, f"{name}  [{short}]"))
    # Each simulateServing call runs its own trace producer, so a
    # driver serving many points has many short-lived threads: list
    # them, but give top functions for the main thread and the rest
    # pooled.
    main_n = per_thread.pop(MAIN_THREAD, 0)
    others = sorted(per_thread.items(), key=lambda t: (-t[1], t[0]))
    rest = f"other threads ({len(others)})"
    print(f"\nper thread ({MAIN_THREAD}: the thread whose tid is the pid)")
    print("  " + line(main_n, MAIN_THREAD))
    if others:
        print("  " + line(sum(n for _, n in others), rest))
        for thread, n in others[:PER_THREAD_TOP]:
            print("    " + line(n, thread))
        if len(others) > PER_THREAD_TOP:
            print(f"    ({len(others) - PER_THREAD_TOP} more)")
    for label, threads in ((MAIN_THREAD, [MAIN_THREAD]),
                           (rest, [t for t, _ in others])):
        functions: collections.Counter[tuple[str, str]] = (
            collections.Counter())
        for thread in threads:
            functions.update(thread_functions[thread])
        if not functions:
            continue
        print(f"\ntop {PER_THREAD_TOP} functions of {label} (self time)")
        for (name, short), n in functions.most_common(PER_THREAD_TOP):
            print("  " + line(n, f"{name}  [{short}]"))
    if unnamed:
        print(f"\nhottest {addresses} addresses per unnamed region")
    for short, name, n, hits in sorted(unnamed, key=lambda r: -r[2]):
        print("  " + line(n, f"{name}  [{short}]"))
        for addr, k in hits:
            print(f"      {100.0 * k / total:6.2f} %  {k:8d}  {addr:#x}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lib", type=pathlib.Path, required=True,
                        help="the libhostprof.so to preload")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the command this many times")
    parser.add_argument("--addresses", type=int, default=0,
                        help="print this many hottest raw addresses per "
                             "unnamed region of a stripped library")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    if not command:
        parser.error("no command to profile")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.addresses < 0:
        parser.error("--addresses must be >= 0")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i in range(args.repeat):
            paths.append(pathlib.Path(tmp) / f"samples.{i}.txt")
            env = dict(os.environ, LD_PRELOAD=str(args.lib.resolve()),
                       HOSTPROF_OUT=str(paths[-1]))
            status = status or subprocess.run(
                command, env=env, stdout=sys.stderr,
                stderr=sys.stderr).returncode
            if not paths[-1].exists():
                print("hostprof: the command wrote no samples",
                      file=sys.stderr)
                return 1
        report(paths, args.top, args.addresses)
    return status


if __name__ == "__main__":
    sys.exit(main())
