#!/usr/bin/env bash
# No fused multiply-add anywhere in internal/. The Go spec lets a compiler
# fuse x*y + z into one FMA instruction, across statements, whenever it likes;
# only an explicit float64(x*y) forces the product to round first. gc never
# fuses on amd64 but does on arm64 and ppc64le, so a worker on those
# architectures would compute DOUBLE MACs, LRN sums, interval bounds and the
# Neyman allocation scores with one rounding fewer, and its reports would
# differ from an amd64 worker's without anything noticing. This script
# cross-compiles ./internal/... for both (no download: the toolchain builds
# any GOARCH) with -gcflags=-S and fails, listing the source lines, on any
# FMADD/FMSUB/FNMADD/FNMSUB (arm64) or FMADD/FMSUB/FNMADD/FNMSUB[S] (ppc64le)
# instruction.
#
#   scripts/check_nofma.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
for arch in arm64 ppc64le; do
	asm="$(GOOS=linux GOARCH="$arch" CGO_ENABLED=0 go build -gcflags=-S ./internal/... 2>&1)" || {
		printf '%s\n' "$asm" >&2
		exit 1
	}
	# Each instruction line reads "\t0x0123 00291 (path/file.go:NN)\tFMADDD\t…".
	fused="$(printf '%s\n' "$asm" | grep -E '\)[[:space:]]+F(N)?M(ADD|SUB)[A-Z]*[[:space:]]' || true)"
	if [ -n "$fused" ]; then
		printf '%s: fused multiply-adds at\n' "$arch" >&2
		printf '%s\n' "$fused" | sed -E 's/.*\(([^)]*)\).*/  \1/' | sort -u >&2
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "no fused multiply-adds in ./internal/... (arm64, ppc64le)"
exit "$status"
