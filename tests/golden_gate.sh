#!/bin/sh
# Golden gates, registered with ctest under the `golden` label: each
# gate regenerates a committed golden under tests/golden/ with the
# commands docs/reproducing.md gives and byte-compares the result.
#
#   golden_gate.sh GATE PROGRAM GOLDEN_DIR [OUT_DIR]
#
# Gates:
#   sweep_baselines  PROGRAM is rubik_cli. The baseline policies
#                    (fixed, static, dynamic, adrenaline, pegasus) over
#                    the five apps, once in process at --jobs 4 and
#                    once through the orchestrator (subprocess batch
#                    children, exit wake-ups, trace-aligned batches,
#                    the fsync'd ledger), each against
#                    sweep_baselines_fast.csv.
#   sweep_rubik      PROGRAM is rubik_cli. rubik and boost over the
#                    five apps at --jobs 1, at --jobs 4 (cells start
#                    longest trace first and finish out of index order)
#                    and through the orchestrator's batch children,
#                    each against sweep_rubik_fast.csv.
#   rubik_decisions  PROGRAM is rubik_cli. The chained decision hashes
#                    of rubik, rubik-nofb and boost over the five apps
#                    at loads 0.3 and 0.7, against
#                    rubik_decisions_fast.csv: work the controllers
#                    skip must never move a decision.
#   cli_oneshot      PROGRAM is rubik_cli. A one-shot Rubik run at
#                    loads 0.3 and 0.6 with thermal modeling off,
#                    against the pre-thermal cli_oneshot_fast.csv.
#   bench            PROGRAM is a bench binary, run at full size
#                    (--csv --jobs 4) against NAME.csv, where NAME is
#                    PROGRAM's file name.
#   bench_fast       The same bench at --fast, against NAME_fast.csv.
#
# Every gate runs its routes (worker counts, the orchestrator) in a
# temporary directory and byte-compares them with each other first:
# routes that disagree fail the gate and keep nothing. Output that all
# routes agree on but that diverges from the golden stays in OUT_DIR
# (default: the current directory) under the golden's file name, for
# inspection and for tools/regen_goldens, which copies it over the
# golden. So regeneration never accepts a nondeterministic output.
#
# Both sweep grids run loads 0.3 and 0.7, so every latency bound
# generates its own 50%-load trace; a grid with load 0.5 hands that
# trace to its 0.5 cells instead (tests/sweep_test.cc covers that path).
set -eu

[ $# -eq 3 ] || [ $# -eq 4 ] || {
    echo "usage: $0 GATE PROGRAM GOLDEN_DIR [OUT_DIR]" >&2
    exit 2
}
gate=$1
program=$2
golden=$3
out=${4:-.}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "golden gate $gate: $*" >&2
    exit 1
}

# verdict GOLDEN FILE...: the FILEs (one per route) must be identical,
# and match the committed GOLDEN; what diverges from it stays in OUT_DIR.
verdict() {
    name=$1
    shift
    rm -f "$out/$name"
    for file in "$@"; do
        cmp "$1" "$file" || fail "routes disagree:" \
            "$(basename "$1") and $(basename "$file")"
    done
    if ! cmp "$golden/$name" "$1"; then
        mkdir -p "$out"
        cp "$1" "$out/$name"
        fail "$name diverged from golden (kept $out/$name)"
    fi
}

case $gate in
sweep_baselines)
    printf '%s\n' \
        'apps = masstree,moses,shore,specjbb,xapian' \
        'loads = 0.3,0.7' \
        'policies = fixed,static,dynamic,adrenaline,pegasus' \
        'seeds = 42' \
        'requests = 4000' > "$work/baselines.spec"
    "$program" sweep --spec "$work/baselines.spec" --jobs 4 \
        > "$work/in_process.csv"
    "$program" sweep --spec "$work/baselines.spec" \
        --out "$work/orchestrated.csv" --schedule dynamic \
        --backend subprocess --shards 4 --jobs 1
    verdict sweep_baselines_fast.csv "$work/in_process.csv" \
        "$work/orchestrated.csv"
    ;;
sweep_rubik)
    printf '%s\n' \
        'apps = masstree,moses,shore,specjbb,xapian' \
        'loads = 0.3,0.7' \
        'policies = rubik,boost' \
        'seeds = 42' \
        'requests = 4000' > "$work/rubik.spec"
    for jobs in 1 4; do
        "$program" sweep --spec "$work/rubik.spec" --jobs "$jobs" \
            > "$work/jobs$jobs.csv"
    done
    "$program" sweep --spec "$work/rubik.spec" \
        --out "$work/orchestrated.csv" --schedule dynamic \
        --backend subprocess --shards 4 --jobs 1
    verdict sweep_rubik_fast.csv "$work/jobs1.csv" "$work/jobs4.csv" \
        "$work/orchestrated.csv"
    ;;
rubik_decisions)
    # A run that fails prints no rows, so the cmp catches it too.
    for app in masstree moses shore specjbb xapian; do
        for policy in rubik rubik-nofb boost; do
            "$program" --app "$app" --loads 0.3,0.7 --policy "$policy" \
                --requests 4000 --seed 42 --decision-hash --csv
        done
    done | awk 'NR == 1 || !/^app,/' > "$work/rubik_decisions.csv"
    verdict rubik_decisions_fast.csv "$work/rubik_decisions.csv"
    ;;
cli_oneshot)
    "$program" --loads 0.3,0.6 --policy rubik --requests 2000 --seed 42 \
        --jobs 4 --csv > "$work/oneshot.csv"
    verdict cli_oneshot_fast.csv "$work/oneshot.csv"
    ;;
bench | bench_fast)
    name=$(basename "$program")
    set -- --csv --jobs 4
    if [ "$gate" = bench_fast ]; then
        name=${name}_fast
        set -- --fast "$@"
    fi
    "$program" "$@" > "$work/$name.csv"
    verdict "$name.csv" "$work/$name.csv"
    ;;
*)
    fail "unknown gate"
    ;;
esac
