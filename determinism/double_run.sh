#!/bin/sh
# Double-run determinism check.
#
# usage: double_run.sh NAME PROGRAM [ARG...]
#
# Runs PROGRAM twice with the event-queue tie-race sanitizer on
# (AMOEBA_TIE_CHECK=1), each run in a fresh directory NAME.1 / NAME.2
# holding its stdout.txt and every file the program wrote (BENCH_*
# copies, --out trace dumps), and fails unless the two directories are
# byte-identical.
set -eu
name=$1
shift
prog=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
shift
for run in 1 2; do
  rm -rf "$name.$run"
  mkdir "$name.$run"
  (cd "$name.$run" && AMOEBA_TIE_CHECK=1 "$prog" "$@" > stdout.txt)
done
diff -r "$name.1" "$name.2"
