#!/usr/bin/env bash
# Build colt-perf offline and run it; see README.md beside this file.
#
#   run.sh [--seed N] [--workload W] [--quick] [--check-repeat]      the full protocol
#   run.sh --workload W --seed N --seconds S --trace 0|1              one process, one workload
#
# Results go to stdout (one line per metric; a single run ends with one
# JSON object) and to out/ beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# The crate locks its own (path-only) dependency set; nothing is fetched.
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2

# The allocator keeps freed memory instead of returning it to the kernel
# (no trimming, no per-allocation mmap below 32 MB). With glibc's defaults
# every index build and every repeated set-up page-faults its memory back
# in, and a page fault costs what the host makes it cost at that moment:
# on the shared virtual machines this runs on it was the largest single
# source of run-to-run noise; see README.md, "Bounds and noise".
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1099511627776"

mkdir -p "$here/out"
bin="$target/release/colt-perf"
case " $* " in
*" --trace 1 "*)
  # A traced run's fully recorded rounds print every event to stderr, as
  # the program does under COLT_OBS=full; show that only if the run fails.
  log="$here/out/stderr.log"
  "$bin" --out "$here/out" "$@" 2>"$log" || { code=$?; tail -n 50 "$log" >&2; exit "$code"; }
  ;;
*)
  exec "$bin" --out "$here/out" "$@"
  ;;
esac
