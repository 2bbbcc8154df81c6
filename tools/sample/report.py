#!/usr/bin/env python3
"""Shares of sigprof.c dumps: self, inclusive, and "under function X".

    report.py DUMP... BINARY [--under SUBSTRING] [--only PREFIX] [--top N]

Several dumps (say, one per run of the same binary) are merged: each is
symbolised against its own memory maps and their counts are summed.

A sample counts once for every distinct function on its stack (inclusive)
and once for its innermost one (self); with --under, only samples whose
stack contains SUBSTRING count, and the inclusive table lists what runs
below it. With --only, frames whose symbol does not start with PREFIX (or,
for `<T as Trait>::f` impls, contain it) are dropped from every stack first,
so `--only dai_` charges std/hashbrown wrappers to the crate function that
called them. Shares are of all samples taken, across every dump.
"""
import collections
import os
import re
import subprocess
import sys


def read_dump(dump, binary):
    """The dump's samples as stacks, innermost first: offsets into `binary`
    (ints) or "[library]" names, resolved against the dump's own maps."""
    samples, maps = [], []
    for line in open(dump):
        if line.startswith("S "):
            # The first two frames are the handler and the signal trampoline.
            samples.append([int(a, 16) for a in line.split()[3:]])
        elif "-" in line.split(" ")[0]:
            span, _perms, offset, _dev, _inode, *path = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            maps.append((lo, hi, int(offset, 16), path[0] if path else "[anon]"))
    # A PIE binary's addresses are relative to its lowest mapping minus that
    # mapping's file offset.
    own = [m for m in maps if os.path.realpath(m[3]) == binary]
    base = min(own)[0] - min(own)[2] if own else 0

    def locate(addr, innermost):
        # Every frame but the interrupted one is a return address: the call
        # is at addr - 1.
        addr -= 0 if innermost else 1
        for lo, hi, _off, path in maps:
            if lo <= addr < hi:
                if os.path.realpath(path) == binary:
                    return addr - base
                return "[" + os.path.basename(path) + "]"
        return "[unmapped]"

    return [[locate(a, i == 0) for i, a in enumerate(s)] for s in samples]


def main():
    args = sys.argv[1:]
    opt = {"--under": None, "--only": None, "--top": "30"}
    for flag in opt:
        if flag in args:
            at = args.index(flag)
            opt[flag] = args[at + 1]
            del args[at : at + 2]
    if len(args) < 2:
        sys.exit(__doc__)
    *dumps, binary = args
    binary = os.path.realpath(binary)
    stacks = [stack for dump in dumps for stack in read_dump(dump, binary)]
    wanted = sorted({f for s in stacks for f in s if isinstance(f, int)})
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="\n".join(hex(a) for a in wanted), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    names, cur = {}, None  # address -> functions, innermost inline first
    for i, line in enumerate(out):
        if line.startswith("0x"):
            cur, start = names.setdefault(int(line, 16), []), i
        elif (i - start) % 2 == 1:
            cur.append(re.sub(r"::h[0-9a-f]{16}$", "", line))

    self_n, incl_n, total = collections.Counter(), collections.Counter(), len(stacks)
    for stack in stacks:
        funcs = [f for a in stack for f in (names.get(a, ["??"]) if isinstance(a, int) else [a])]
        if opt["--only"]:
            only = opt["--only"]
            funcs = [f for f in funcs if f.startswith(only) or (f[0] == "<" and only in f)]
            funcs = funcs or ["[elsewhere]"]
        if opt["--under"]:
            hits = [i for i, f in enumerate(funcs) if opt["--under"] in f]
            if not hits:
                continue
            funcs = funcs[: hits[-1] + 1]
        self_n[funcs[0]] += 1
        incl_n.update(set(funcs))
    for title, table in (("self", self_n), ("inclusive", incl_n)):
        print(f"-- {title}, share of {total} samples" + (f", under {opt['--under']}" if opt["--under"] else ""))
        for func, n in table.most_common(int(opt["--top"])):
            print(f"{100 * n / total:6.1f}%  {n:6d}  {func}")


if __name__ == "__main__":
    main()
