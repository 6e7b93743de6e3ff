#!/usr/bin/env bash
# Lists every top-level non-test function or method of this module that no
# main package links, and fails on any that scripts/deadcode.allow does not
# name (or on an allowlist line that names nothing dead any more).
#
# Reachability is the linker's own: every main package is built with
# -ldflags=-dumpdep, which prints each edge of the linker's reachability
# graph, and with -gcflags=all=-l, so that a call the compiler would
# inline still names its callee. A declared function counts as reached if
# any binary links it; a generic one if any instantiation is linked.
#
# Allowlist lines are `SYMBOL  # reason`, SYMBOL written as the report
# prints it (e.g. icebergcube/internal/wal.(*FaultFS).Crash). A SYMBOL
# ending in `*` is a prefix: icebergcube/internal/oracle.* covers the
# whole package. Needs only the Go toolchain. Usage: bash scripts/deadcode.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/deadcode.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reached symbols. A main package's own symbols are named main.X by the
# linker; rename them to the package path so two mains never alias.
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	if ! go build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/bin" "$pkg" 2>"$tmp/dep"; then
		grep -v ' -> ' "$tmp/dep" >&2
		exit 1
	fi
	sed -n 's/^.* -> //p' "$tmp/dep" | sed "s|^main\.|$pkg.|" >>"$tmp/edges"
done
# Drop type arguments: (*Tree[go.shape.int]).Get is (*Tree).Get.
awk '{ out = ""; d = 0
	for (i = 1; i <= length($0); i++) { c = substr($0, i, 1)
		if (c == "[") d++; else if (c == "]") d--; else if (d == 0) out = out c }
	print out }' "$tmp/edges" | sort -u >"$tmp/reached"

# Declared top-level functions and methods of the non-test files (gofmt
# puts every top-level func at column 0 with its receiver and name on the
# first line). init functions are reached by construction and skipped.
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r pkg file; do
		awk -v pkg="$pkg" '
			/^func \(/ {
				# (t *Tree[K, V]) Get -> (*Tree).Get; (DirFS) Remove -> DirFS.Remove
				s = $0; sub(/^func \(/, "", s); typ = s; sub(/\).*/, "", typ)
				sub(/^[A-Za-z_0-9]+ /, "", typ); sub(/\[.*/, "", typ)
				if (sub(/^\*/, "", typ)) typ = "(*" typ ")"
				sub(/^[^)]*\) /, "", s); match(s, /^[A-Za-z_0-9]+/)
				print pkg "." typ "." substr(s, 1, RLENGTH); next }
			/^func [A-Za-z_0-9]+/ {
				match($0, /^func [A-Za-z_0-9]+/); name = substr($0, 6, RLENGTH - 5)
				if (name != "init") print pkg "." name }' "$file"
	done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/dead"

# Split the dead list into allowlisted and not, and find stale allowlist lines.
awk -v stale="$tmp/stale" '
	FILENAME == ARGV[1] { sub(/[ \t]*#.*/, ""); if ($0 != "") { pat[++n] = $0; used[n] = 0 }; next }
	{ ok = 0
	  for (i = 1; i <= n; i++) {
		p = pat[i]
		if ((substr(p, length(p)) == "*" && index($0, substr(p, 1, length(p) - 1)) == 1) || $0 == p) { ok = 1; used[i] = 1 }
	  }
	  if (!ok) print }
	END { for (i = 1; i <= n; i++) if (!used[i]) print pat[i] > stale }
' "$allow" "$tmp/dead" >"$tmp/unlisted"

echo "deadcode: $(wc -l <"$tmp/declared") functions declared, $(wc -l <"$tmp/dead") linked by no binary, $(($(wc -l <"$tmp/dead") - $(wc -l <"$tmp/unlisted"))) of them allowlisted"
status=0
if [ -s "$tmp/unlisted" ]; then
	echo "deadcode: linked by no binary and not in $allow (delete, or allowlist with a reason):"
	sed 's/^/  /' "$tmp/unlisted"
	status=1
fi
if [ -s "$tmp/stale" ]; then
	echo "deadcode: $allow lines that match nothing dead (remove them):"
	sed 's/^/  /' "$tmp/stale"
	status=1
fi
exit $status
