#!/usr/bin/env python3
"""Symbolize a sigprof.so dump (see sigprof.c) and print where the samples fall.

    sigprof.py BINARY DUMP [--chains] [--under FUNC] [--top N]

Samples inside BINARY are resolved with `addr2line -f -i -C` (the release
profile keeps `debug = true`), so code inlined into a hot function is charged
to its own source line. Default: aggregate by the innermost frame that is not
standard-library code (`Version::exists` inlined into `apply_write` counts for
the `apply_write` line that called it), as `function file:line`. `--chains`
aggregates by the whole inlined-frame chain, innermost first. `--under FUNC`
keeps only samples with FUNC somewhere in the chain and gives shares of that
subset; only inlined callers are in a chain (the sampler records the
instruction pointer, not the stack). Samples in other objects (libm, libc)
are grouped by object name.
"""
import argparse
import collections
import os
import subprocess


def load(dump):
    maps, samples, in_samples = [], [], False
    for line in open(dump):
        line = line.strip()
        if line == "--":
            in_samples = True
        elif in_samples:
            samples.append(int(line, 16))
        elif line:
            f = line.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
    return maps, samples


def symbolize(binary, offsets):
    """offset -> list of (function, file:line, is_std) frames, innermost first."""
    if not offsets:
        return {}
    out = subprocess.run(
        ["addr2line", "-e", binary, "-f", "-i", "-C", "-a"] + [hex(o) for o in offsets],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            where = out[i + 1].split(" (discriminator")[0]
            std = where.startswith("/rustc/")
            current.append((out[i], "/".join(where.split("/")[-2:]), std))
            i += 2
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("dump")
    ap.add_argument("--chains", action="store_true", help="aggregate by inlined-frame chain")
    ap.add_argument("--under", metavar="FUNC", help="only samples with FUNC in their chain")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()

    maps, samples = load(args.dump)
    real = os.path.realpath(args.binary)
    # The load base: the mapping of the binary with file offset 0.
    base = min((lo for lo, _, off, path in maps if os.path.realpath(path) == real and off == 0),
               default=None)
    if base is None:
        raise SystemExit(f"{args.binary} is not mapped in {args.dump}")
    in_binary, elsewhere = collections.Counter(), collections.Counter()
    for ip in samples:
        for lo, hi, _, path in maps:
            if lo <= ip < hi:
                if os.path.realpath(path) == real:
                    in_binary[ip - base] += 1
                else:
                    elsewhere[os.path.basename(path)] += 1
                break
        else:
            elsewhere["[unmapped]"] += 1

    frames = symbolize(args.binary, sorted(in_binary))
    totals = collections.Counter()
    for off, n in in_binary.items():
        chain = frames[off]
        if args.under and not any(args.under in fn for fn, _, _ in chain):
            continue
        own = [f for f in chain if not f[2]] or chain
        shown = chain if args.chains else own[:1]
        totals[" <- ".join(f"{fn} {where}" for fn, where, _ in shown)] += n
    if not args.under:
        totals.update(elsewhere)
    total = sum(totals.values())
    print(f"{total} samples" + (f" under {args.under}" if args.under else ""))
    for key, n in totals.most_common(args.top):
        print(f"{n:7d} {100.0 * n / total:5.1f}%  {key}")


if __name__ == "__main__":
    main()
