#!/usr/bin/env python3
"""lineprof: where a program's CPU time goes, by source line.

Usage, from the root of a litegpu source tree:

  python3 tools/lineprof/lineprof.py [--top N] [--runs N] -- <program> [args...]

e.g. on a Release build with debug info (-O3 -g):

  cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-g
  cmake --build build-prof --target litegpu_cli
  python3 tools/lineprof/lineprof.py -- ./build-prof/litegpu run \\
      examples/scenarios/serve.json --json --threads 1

It compiles lineprof.c (a SIGPROF sampler) with `cc`, runs the program
under LD_PRELOAD with its standard output discarded (--runs times, one
after another, default once), and attributes every sample of every run:
  - in the program's own executable, to the innermost inline frame that
    addr2line places under a `src/` directory, so a sample inside an
    inlined std::pop_heap lands on the simulator line that called it; a
    sample with no such frame goes to its function;
  - in a shared library, to the library (e.g. `[libm.so.6]`).
gprof cannot do this: it charges all of an inlined body to one symbol.

The sampler asks for a sample per millisecond of CPU time, but the kernel
delivers at most one per scheduler tick (250 Hz on a CONFIG_HZ=250
kernel), so profile at least a second of CPU time in all: a short
program needs --runs (a 0.2 s run yields about 50 samples). Prints the
total sample count and the top lines by share. Exits nonzero if
the program fails or no sample lands on a `src/` line (e.g. a build without
-g).
"""

import argparse
import bisect
import collections
import os
import shutil
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def load_segments(path):
    """PT_LOAD (file offset, vaddr, size) triples of a 64-bit ELF file."""
    with open(path, "rb") as f:
        data = f.read(1 << 16)
    if data[:4] != b"\x7fELF" or data[4] != 2:
        return []
    phoff, = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", data, phoff + i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def read_dump(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("pc "):
                pcs.append(int(line[3:], 16))
            elif line.startswith("map "):
                fields = line[4:].split(maxsplit=5)
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) > 5 else ""
                maps.append((start, end, int(fields[2], 16), name))
    maps.sort()
    return maps, pcs


def src_label(frames):
    """First (innermost) inline frame under src/, as src/...:line."""
    for _, location in frames:
        cut = location.rfind("/src/")
        if cut >= 0 and not location.endswith(":?"):
            return location[cut + 1:].split(" ")[0]
    return None


def symbolize(exe, vaddrs):
    """vaddr -> [(function, file:line)], innermost inline frame first."""
    proc = subprocess.run(
        ["addr2line", "-e", exe, "-a", "-i", "-f", "-C"],
        input="".join("%x\n" % a for a in vaddrs), capture_output=True, text=True,
        check=True)
    frames, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = frames.setdefault(int(lines[i], 16), [])
            i += 1
        else:
            current.append((lines[i], lines[i + 1] if i + 1 < len(lines) else "??:?"))
            i += 2
    return frames


def attribute(exe, dumps):
    counts = collections.Counter()
    exe_samples = collections.Counter()  # vaddr in exe -> samples
    segments = load_segments(exe)
    for maps, pcs in dumps:
        starts = [m[0] for m in maps]
        for pc in pcs:
            k = bisect.bisect_right(starts, pc) - 1
            if k < 0 or pc >= maps[k][1] or not maps[k][3]:
                counts["[unmapped]"] += 1
                continue
            start, _, offset, name = maps[k]
            if os.path.realpath(name) != exe:
                counts["[%s]" % os.path.basename(name)] += 1
                continue
            file_offset = pc - start + offset
            for p_offset, p_vaddr, p_filesz in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    exe_samples[p_vaddr + file_offset - p_offset] += 1
                    break
            else:
                counts["[%s]" % os.path.basename(name)] += 1
    frames = symbolize(exe, sorted(exe_samples)) if exe_samples else {}
    src_samples = 0
    for vaddr, n in exe_samples.items():
        stack = frames.get(vaddr, [])
        label = src_label(stack)
        if label is not None:
            src_samples += n
        else:
            function = stack[-1][0] if stack else "??"
            label = "[%s] %s" % (os.path.basename(exe), function.split("<")[0].split("(")[0])
        counts[label] += n
    return counts, src_samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=25, help="lines to print")
    parser.add_argument("--runs", type=int, default=1,
                        help="run the program this many times and pool the samples")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no program given")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    exe = shutil.which(command[0])
    if exe is None:
        parser.error("program not found: %s" % command[0])
    exe = os.path.realpath(exe)

    with tempfile.TemporaryDirectory(prefix="lineprof.") as tmp:
        sampler = os.path.join(tmp, "lineprof.so")
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", sampler,
                        os.path.join(HERE, "lineprof.c")], check=True)
        env = dict(os.environ, LD_PRELOAD=sampler,
                   LINEPROF_OUT=os.path.join(tmp, "samples"))
        for _ in range(args.runs):
            status = subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode
            if status != 0:
                print("lineprof: the program exited with status %d" % status, file=sys.stderr)
                return 1
        dumps = [read_dump(os.path.join(tmp, f)) for f in sorted(os.listdir(tmp))
                 if f.startswith("samples.")]

    counts, src_samples = attribute(exe, dumps)
    total = sum(counts.values())
    print("%d samples over %d run(s), %d (%.1f%%) on src/ lines" %
          (total, args.runs, src_samples, 100.0 * src_samples / max(1, total)))
    for label, n in counts.most_common(args.top):
        print("%7d %6.2f%%  %s" % (n, 100.0 * n / total, label))
    if src_samples == 0:
        print("lineprof: no sample landed on a src/ line (built without -g?)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
