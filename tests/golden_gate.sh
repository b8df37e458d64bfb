#!/bin/sh
# Golden gates, registered with ctest under the `golden` label: each
# gate regenerates a committed golden under tests/golden/ with the
# commands docs/reproducing.md gives and byte-compares the result.
#
#   golden_gate.sh GATE RUBIK_CLI GOLDEN_DIR
#
# Gates:
#   sweep_baselines  the baseline policies (fixed, static, dynamic,
#                    adrenaline, pegasus) over the five apps, once in
#                    process at --jobs 4 and once through the
#                    orchestrator (subprocess batch children, exit
#                    wake-ups, trace-aligned batches, the fsync'd
#                    ledger), each against sweep_baselines_fast.csv.
#   sweep_rubik      rubik and boost over the five apps at --jobs 1,
#                    at --jobs 4 (cells start longest trace first and
#                    finish out of index order) and through the
#                    orchestrator's batch children, each against
#                    sweep_rubik_fast.csv.
#
# Both grids run loads 0.3 and 0.7, so every latency bound generates
# its own 50%-load trace; a grid with load 0.5 hands that trace to its
# 0.5 cells instead (tests/sweep_test.cc covers that path).
set -eu

[ $# -eq 3 ] || { echo "usage: $0 GATE RUBIK_CLI GOLDEN_DIR" >&2; exit 2; }
gate=$1
cli=$2
golden=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "golden gate $gate: $*" >&2
    exit 1
}

case $gate in
sweep_baselines)
    printf '%s\n' \
        'apps = masstree,moses,shore,specjbb,xapian' \
        'loads = 0.3,0.7' \
        'policies = fixed,static,dynamic,adrenaline,pegasus' \
        'seeds = 42' \
        'requests = 4000' > "$work/baselines.spec"
    "$cli" sweep --spec "$work/baselines.spec" --jobs 4 \
        > "$work/baselines.csv"
    cmp "$golden/sweep_baselines_fast.csv" "$work/baselines.csv" \
        || fail "baseline policies diverged from golden"
    "$cli" sweep --spec "$work/baselines.spec" \
        --out "$work/baselines_orch.csv" --schedule dynamic \
        --backend subprocess --shards 4 --jobs 1
    cmp "$golden/sweep_baselines_fast.csv" "$work/baselines_orch.csv" \
        || fail "orchestrated baselines diverged from golden"
    ;;
sweep_rubik)
    printf '%s\n' \
        'apps = masstree,moses,shore,specjbb,xapian' \
        'loads = 0.3,0.7' \
        'policies = rubik,boost' \
        'seeds = 42' \
        'requests = 4000' > "$work/rubik.spec"
    for jobs in 1 4; do
        "$cli" sweep --spec "$work/rubik.spec" --jobs "$jobs" \
            > "$work/rubik.csv"
        cmp "$golden/sweep_rubik_fast.csv" "$work/rubik.csv" \
            || fail "rubik sweep (--jobs $jobs) diverged from golden"
    done
    "$cli" sweep --spec "$work/rubik.spec" \
        --out "$work/rubik_orch.csv" --schedule dynamic \
        --backend subprocess --shards 4 --jobs 1
    cmp "$golden/sweep_rubik_fast.csv" "$work/rubik_orch.csv" \
        || fail "orchestrated rubik sweep diverged from golden"
    ;;
*)
    fail "unknown gate"
    ;;
esac
