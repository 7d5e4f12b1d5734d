#!/usr/bin/env bash
# End-to-end smoke test of `pipefail serve` through a corrupt publish.
#
# Serves one snapshot twice with hot-reload armed: once as `--snapshot
# FILE` and once as `--snapshot-dir DIR` over a directory holding only
# that file. Both are one-shard fleets, so they must answer byte-identical
# bodies while healthy, degrade identically when a truncated file is
# renamed over the watched path, and heal identically when a valid file
# is published again.
#
# Usage: scripts/cli_serve_smoke.sh [path/to/pipefail]
# (default: target/release/pipefail; build it with `cargo build --release`).
set -euo pipefail

BIN=$(realpath "${1:-target/release/pipefail}")
WORK=$(mktemp -d)
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$BIN" generate --scale 0.05 --seed 7 --out "$WORK/data" >/dev/null
"$BIN" snapshot --data "$WORK/data/region_a" --out "$WORK/a.pfsnap" >/dev/null
cp "$WORK/a.pfsnap" "$WORK/good.pfsnap"
mkdir "$WORK/dir"
cp "$WORK/a.pfsnap" "$WORK/dir/a.pfsnap"

export PIPEFAIL_HTTP_RELOAD_SECS=0.2
"$BIN" serve --snapshot "$WORK/a.pfsnap" --addr 127.0.0.1:0 >"$WORK/file.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN" serve --snapshot-dir "$WORK/dir" --addr 127.0.0.1:0 >"$WORK/dir.log" 2>&1 &
PIDS="$PIDS $!"

# The bound address a server printed on startup.
addr_of() {
    for _ in $(seq 100); do
        local addr
        addr=$(sed -n 's#^serving on http://\([^ ]*\) .*#\1#p' "$WORK/$1.log")
        if [ -n "$addr" ]; then
            echo "$addr"
            return
        fi
        sleep 0.1
    done
    echo "server '$1' never started:" >&2
    cat "$WORK/$1.log" >&2
    exit 1
}
FILE=$(addr_of file)
DIR=$(addr_of dir)

# Body followed by a status line.
fetch() { curl -s -w '\n%{http_code}' "http://$1$2"; }
status() { curl -s -o /dev/null -w '%{http_code}' "http://$1$2"; }

# Both servers must answer `path` with the same status and body, and that
# status must be `want`.
same() {
    local path=$1 want=$2 a b
    a=$(fetch "$FILE" "$path")
    b=$(fetch "$DIR" "$path")
    if [ "$a" != "$b" ]; then
        printf 'FAIL %s differs\n--snapshot:\n%s\n--snapshot-dir:\n%s\n' "$path" "$a" "$b" >&2
        exit 1
    fi
    if [ "${a##*$'\n'}" != "$want" ]; then
        printf 'FAIL %s answered %s, want %s:\n%s\n' "$path" "${a##*$'\n'}" "$want" "$a" >&2
        exit 1
    fi
    echo "ok   $path -> $want on both"
}

# Give both servers up to 10 s to answer /healthz with `want`; the
# assertions that follow report any server that did not.
await_healthz() {
    for _ in $(seq 100); do
        if [ "$(status "$FILE" /healthz)" = "$1" ] && [ "$(status "$DIR" /healthz)" = "$1" ]; then
            return
        fi
        sleep 0.1
    done
}

# Rename `src` over both watched snapshot paths.
publish() {
    cp "$1" "$WORK/a.tmp" && mv "$WORK/a.tmp" "$WORK/a.pfsnap"
    cp "$1" "$WORK/dir/a.tmp" && mv "$WORK/dir/a.tmp" "$WORK/dir/a.pfsnap"
}

echo "== healthy"
same "/top?k=5" 200
same /model 200
healthy_top=$(fetch "$FILE" "/top?k=5")

echo "== truncated publish"
head -c "$(($(stat -c %s "$WORK/good.pfsnap") / 2))" "$WORK/good.pfsnap" >"$WORK/truncated"
publish "$WORK/truncated"
await_healthz 503
same "/top?k=5" 503
same /healthz 503

echo "== valid re-publish"
publish "$WORK/good.pfsnap"
await_healthz 200
same "/top?k=5" 200
same /healthz 200
if [ "$(fetch "$FILE" "/top?k=5")" != "$healthy_top" ]; then
    echo "FAIL the healed ranking differs from the original" >&2
    exit 1
fi
echo "cli serve smoke: ok"
