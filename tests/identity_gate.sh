#!/bin/sh
# Identity gates, registered with ctest under the `gate` label: runs of
# one build that must print the same bytes, whatever the worker count
# or the SIMD dispatch. They compare a build with itself, not with a
# golden, so every compiler runs them.
#
#   identity_gate.sh GATE RUBIK_CLI PROGRAM...
#
# Gates:
#   bench_jobs     A one-shot rubik_cli run must succeed; then each
#                  PROGRAM (every bench binary) at --fast --csv, and a
#                  capped rubik_cli fleet, at --jobs 1 against --jobs 4:
#                  the worker count may change wall-clock only.
#   simd_dispatch  Each PROGRAM at --fast --csv with RUBIK_SIMD=scalar
#                  against RUBIK_SIMD=auto (every vector kernel is
#                  pinned bitwise to the scalar reference), and
#                  --simd=scalar against RUBIK_SIMD=scalar.
#   thermal_jobs   PROGRAM (ext_thermal) at --fast --csv, and a
#                  rubik_cli --thermal run with the rubik-thermal
#                  controller, at --jobs 1 against --jobs 4.
set -eu

[ $# -ge 2 ] || {
    echo "usage: $0 GATE RUBIK_CLI PROGRAM..." >&2
    exit 2
}
gate=$1
cli=$2
shift 2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "identity gate $gate: $*" >&2
    exit 1
}

# same WHAT A B: the files A and B must be byte-identical.
same() {
    cmp "$2" "$3" || fail "$1"
}

# jobs_identical NAME COMMAND...: COMMAND prints the same bytes with
# --jobs 1 and with --jobs 4.
jobs_identical() {
    name=$1
    shift
    "$@" --jobs 1 > "$work/serial.csv"
    "$@" --jobs 4 > "$work/parallel.csv"
    same "$name: --jobs changed output" "$work/serial.csv" \
        "$work/parallel.csv"
}

case $gate in
bench_jobs)
    "$cli" --app masstree --load 0.4 --policy rubik --csv > /dev/null
    for bench in "$@"; do
        jobs_identical "$(basename "$bench")" "$bench" --fast --csv
    done
    jobs_identical fleet "$cli" fleet --app masstree --policy rubik \
        --cores 48,96 --budget-frac 0.6,0.9 --epochs 4 --requests 300 --csv
    ;;
simd_dispatch)
    for bench in "$@"; do
        name=$(basename "$bench")
        RUBIK_SIMD=scalar "$bench" --fast --csv > "$work/scalar.csv"
        RUBIK_SIMD=auto "$bench" --fast --csv > "$work/native.csv"
        same "$name: SIMD dispatch changed output" \
            "$work/scalar.csv" "$work/native.csv"
        "$bench" --fast --csv --simd=scalar > "$work/flag.csv"
        same "$name: --simd=scalar != RUBIK_SIMD=scalar" \
            "$work/scalar.csv" "$work/flag.csv"
    done
    ;;
thermal_jobs)
    for bench in "$@"; do
        jobs_identical "$(basename "$bench")" "$bench" --fast --csv
    done
    jobs_identical "rubik_cli --thermal" "$cli" --loads 0.3,0.6 \
        --policy rubik-thermal --thermal --tj 60 --requests 2000 \
        --seed 42 --csv
    ;;
*)
    fail "unknown gate"
    ;;
esac
