#!/usr/bin/env bash
# Fails when the simulator's hot path stops inlining
# stats.(*TimeWeighted).Observe: Observe must stay within the compiler's
# inlining budget, and the compiler must inline it into (*Center).Submit,
# start and CompleteService (DESIGN.md §3). Run from the repository root
# (make inline-check); GO picks the go command.
set -euo pipefail

go=${GO:-go}
src=internal/sim/center.go
out=$("$go" build -gcflags=-m ./internal/stats ./internal/sim 2>&1)
fail=0

if ! grep -q 'can inline (\*TimeWeighted)\.Observe' <<<"$out"; then
	echo "inline-check: (*TimeWeighted).Observe no longer inlines:"
	"$go" build -gcflags=-m=2 ./internal/stats 2>&1 | grep 'inline (\*TimeWeighted)\.Observe' || true
	fail=1
fi

# Lines of $src where the compiler inlined Observe.
sites=$(grep -E "^$src:[0-9]+:[0-9]+: inlining call to stats\.\(\*TimeWeighted\)\.Observe" <<<"$out" | cut -d: -f2 || true)

for fn in Submit start CompleteService; do
	read -r first last < <(awk -v fn="$fn" '
		index($0, "func (c *Center) " fn "(") == 1 { s = NR }
		s && /^}/ { print s, NR; exit }' "$src") || true
	if [[ -z ${first:-} ]]; then
		echo "inline-check: (*Center).$fn not found in $src"
		fail=1
		continue
	fi
	if ! awk -v a="$first" -v b="$last" '$1 >= a && $1 <= b { found = 1 } END { exit !found }' <<<"$sites"; then
		echo "inline-check: stats.(*TimeWeighted).Observe is not inlined into (*Center).$fn"
		fail=1
	fi
done

if ((fail == 0)); then
	echo "inline-check: (*TimeWeighted).Observe inlines into (*Center).Submit, start and CompleteService"
fi
exit "$fail"
