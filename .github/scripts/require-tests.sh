#!/usr/bin/env bash
# require-tests.sh PKG REGEX
#
# Fails unless every |-separated alternative of REGEX names at least
# one test, benchmark or fuzz target in PKG. `go test -run REGEX`
# passes with "no tests to run" when REGEX matches nothing, so without
# this check a renamed test would silently drop out of a named CI gate.
set -euo pipefail
pkg=$1
regex=$2
IFS='|' read -ra alts <<< "$regex"
for alt in "${alts[@]}"; do
	listed=$(go test -list "$alt" "$pkg")
	if ! grep -qE '^(Test|Benchmark|Fuzz)' <<< "$listed"; then
		echo "no test in $pkg matches '$alt' (from '$regex')" >&2
		exit 1
	fi
done
