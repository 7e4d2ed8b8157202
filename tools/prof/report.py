#!/usr/bin/env python3
"""Where a PiCloud-Sim process spent its time, from picloud_prof samples.

Usage:

    python3 tools/prof/report.py picloud_prof.<pid>.stacks [more.stacks ...]
    python3 tools/prof/report.py --lib build/tools/prof/libpicloud_prof.so \\
        --run build/examples/flash_crowd [--require-dispatch]

The first form reads the files the sampler (tools/prof/sampler.cc) wrote at
exit; several files (repetitions of one workload) are pooled. The second
runs the command once under the sampler, in a temporary directory, and reads
what it wrote.

Only samples taken inside event dispatch count: those with the event loop
(Simulation::run_until, run or step) or an EventQueue fire thunk on the
stack; the loop is the reliable mark, because a thunk that ends in a tail
call leaves no frame. That leaves out building the cloud and perfbench's
host-speed probe. The report prints four tables over those samples:

  * leaf      — the innermost frame (where the CPU was);
  * inclusive — every function on the stack, counted once per sample;
  * module    — the src/<module> of the innermost picloud frame, so time in
                libc or libstdc++ is charged to the project code that
                called it, and a std::function invoker or event thunk
                that runs a lambda is charged to the lambda's class;
                "class" refines it to <module>::<class>.

Symbols come from `nm -C -S` on each mapped executable, so a function the
compiler inlined is charged to its caller; read the files before the
binary is rebuilt, because the addresses belong to the build that ran. An
address at or past the end of the nearest sized symbol before it (code a
stripped library does not export, such as libc's memmove loops) is charged
to the file's name, as an address outside every symbol is. With
--require-dispatch the exit status is 1 when no sample was taken inside
event dispatch.
"""

import argparse
import bisect
import collections
import glob
import os
import re
import subprocess
import sys
import tempfile

DISPATCH = re.compile(
    r"picloud::sim::(Simulation::(run_until|run|step)\b|EventQueue::.*::fire_)")
PROJECT = re.compile(r"^picloud::(\w+)::")


class Symbols:
    """Address -> function name for one mapped ELF file; without a path,
    an empty table for add_nm()."""

    def __init__(self, path=None):
        self.addrs = []
        self.ends = []  # one past the symbol's last byte; None if unsized
        self.names = []
        self.relative = False
        if path is None:
            return
        with open(path, "rb") as f:
            header = f.read(18)
        # e_type 3 (ET_DYN): addresses are relative to the load base.
        self.relative = len(header) == 18 and header[16] == 3
        # A stripped library (libc) keeps only its dynamic symbols.
        for flags in (["-C"], ["-C", "-D"]):
            try:
                out = subprocess.run(
                    ["nm", "-n", "-S", "--defined-only"] + flags + [path],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True).stdout
            except OSError:
                out = ""
            self.add_nm(out)
            if self.addrs:
                break

    def add_nm(self, text):
        """Adds the function symbols of `nm -n -S` output: lines of
        "address size type name", the size left out when it is zero."""
        for line in text.splitlines():
            fields = line.split(" ", 3)
            if len(fields) == 4 and len(fields[1]) > 1:
                addr, size, kind, name = fields
                end = int(addr, 16) + int(size, 16)
            else:
                fields = line.split(" ", 2)
                if len(fields) < 3:
                    continue
                addr, kind, name = fields
                end = None
            if kind in "TtWwiI":
                self.addrs.append(int(addr, 16))
                self.ends.append(end)
                self.names.append(
                    name.replace("(anonymous namespace)", "{anon}"))

    def lookup(self, addr):
        """The function at addr: the nearest symbol at or before it, unless
        addr is at or past that symbol's end. None when no symbol covers
        it."""
        i = bisect.bisect_right(self.addrs, addr) - 1
        if i < 0 or (self.ends[i] is not None and addr >= self.ends[i]):
            return None
        return self.names[i]


class Process:
    """One stacks file: its mappings and raw samples."""

    def __init__(self, path):
        self.maps = []  # (start, end, offset, path)
        self.samples = []
        with open(path) as f:
            for line in f:
                fields = line.split()
                if not fields:
                    continue
                if fields[0] == "map":
                    self.maps.append((int(fields[1], 16), int(fields[2], 16),
                                      int(fields[3], 16), fields[4]))
                elif fields[0] == "sample":
                    self.samples.append([int(a, 16) for a in fields[1:]])

    def symbolize(self, cache):
        starts = [m[0] for m in self.maps]
        memo = {}

        def name(addr):
            if addr in memo:
                return memo[addr]
            i = bisect.bisect_right(starts, addr) - 1
            result = "??"
            if i >= 0 and addr < self.maps[i][1]:
                start, _, offset, path = self.maps[i]
                if path not in cache:
                    cache[path] = Symbols(path) if os.path.exists(path) \
                        else None
                syms = cache[path]
                if syms is not None:
                    local = addr - start + offset if syms.relative else addr
                    found = syms.lookup(local)
                    result = found if found else os.path.basename(path)
            memo[addr] = result
            return result

        stacks = []
        for sample in self.samples:
            # A caller's address is a return address: look up the call.
            stacks.append([name(a if d == 0 else a - 1)
                           for d, a in enumerate(sample)])
        return stacks


def short(name):
    """A function name without its return type and argument list."""
    depth = 0
    start = 0
    for i, c in enumerate(name):
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1  # what came before was a return type
        elif c == "(" and depth == 0 and i > 0:
            return name[start:i]
    return name[start:]


# A lambda named in a template argument (a std::function invoker or an
# EventQueue fire thunk): its body, often inlined there, belongs to the
# function that wrote it.
LAMBDA = re.compile(r"picloud::(\w+)::(\w+)::~?\w+\([^()]*\)(?: const)?::\{lambda")


def owner(stack):
    """(module, class) of the innermost picloud frame: the module is the
    namespace under picloud::, the class the next name (for a free function
    in an anonymous namespace, the function). A frame that runs a lambda
    counts for the lambda's class."""
    for frame in stack:
        m = LAMBDA.search(frame)
        if m and not frame.startswith("picloud::" + m.group(1) + "::" +
                                      m.group(2)):
            return m.group(1), m.group(1) + "::" + m.group(2)
        name = short(frame)
        m = PROJECT.match(name)
        if m:
            parts = name[len(m.group(0)):].split("::")
            if parts[0] == "{anon}" and len(parts) > 1:
                parts = parts[1:]
            return m.group(1), m.group(1) + "::" + parts[0].split("<")[0]
    return "(none)", "(none)"


def table(title, counts, total, limit):
    print(f"\n{title} (share of {total} dispatch samples)")
    for key, n in counts.most_common(limit):
        print(f"  {100.0 * n / total:6.1f}%  {n:7d}  {key}")


def report(paths, limit):
    cache = {}
    stacks = []
    for path in paths:
        stacks.extend(Process(path).symbolize(cache))
    dispatch = [s for s in stacks if any(DISPATCH.search(f) for f in s)]
    print(f"{len(stacks)} samples in {len(paths)} file(s); "
          f"{len(dispatch)} inside event dispatch")
    if not dispatch:
        return 0
    leaf = collections.Counter(short(s[0]) for s in dispatch)
    inclusive = collections.Counter()
    for s in dispatch:
        inclusive.update({short(f) for f in s})
    modules = collections.Counter()
    classes = collections.Counter()
    for s in dispatch:
        module, cls = owner(s)
        modules[module] += 1
        classes[cls] += 1
    total = len(dispatch)
    table("module (innermost picloud frame)", modules, total, limit)
    table("class (innermost picloud frame)", classes, total, limit)
    table("leaf", leaf, total, limit)
    table("inclusive", inclusive, total, limit)
    return len(dispatch)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stacks", nargs="*", help="picloud_prof.*.stacks")
    parser.add_argument("--lib", help="libpicloud_prof.so, for --run")
    parser.add_argument("--run", nargs=argparse.REMAINDER,
                        help="command to run under the sampler")
    parser.add_argument("--limit", type=int, default=15,
                        help="rows per table")
    parser.add_argument("--require-dispatch", action="store_true",
                        help="exit 1 if no sample is inside event dispatch")
    args = parser.parse_args()

    if args.run:
        if not args.lib:
            parser.error("--run needs --lib")
        lib = os.path.abspath(args.lib)
        command = [os.path.abspath(args.run[0])] + args.run[1:]
        with tempfile.TemporaryDirectory() as workdir:
            env = dict(os.environ, LD_PRELOAD=lib)
            subprocess.run(command, cwd=workdir, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            paths = glob.glob(os.path.join(workdir, "picloud_prof.*.stacks"))
            if not paths:
                print("the sampler wrote no stacks file", file=sys.stderr)
                return 1
            found = report(paths, args.limit)
    else:
        if not args.stacks:
            parser.error("give stacks files or --run")
        found = report(args.stacks, args.limit)
    return 1 if args.require_dispatch and found == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
