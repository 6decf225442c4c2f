#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash ledgerbench/run.sh --workload star-local --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .ledgerbench/ in the
# checkout. Without the rest of the repository next to it the build fails,
# and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.ledgerbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

# The revision recorded with each run: the git commit when there is one,
# and always a digest of the Go sources the binary is built from.
src="$(cd "$root" && find . -path ./.ledgerbench -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
	| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
commit="src-$src"
if [ -d "$root/.git" ] && rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	commit="$rev+$commit"
fi

(cd "$here" && go build -o "$out/ledgerbench" .) >&2
cd "$root"
# The runtime re-picks the starting goroutine stack size at every GC from
# the stacks it scanned. Where the GC cycles fall then decides whether a
# set-up's 128 new recipients start on big enough stacks, and star-local's
# set-up time flipped between about 0.3 and 0.6 ms from run to run. A fixed
# starting size makes runs comparable.
export GODEBUG="adaptivestackstart=0${GODEBUG:+,$GODEBUG}"
exec "$out/ledgerbench" -commit "$commit" -spans-dir "$out/spans" "$@"
