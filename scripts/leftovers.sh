#!/usr/bin/env bash
# Lists the processes a build, test or benchmark of this checkout left
# running, and exits 1 if there are any. A process counts when its working
# directory is inside the checkout, its executable lives under the
# checkout (including .bench_build/) or under $TMPDIR/go-build* (go test
# and go run binaries), or it is named benchmark, icecube, icecluster,
# cubebench or *.test. Run it as `make leftovers`.
set -u
root=$(cd "$(dirname "$0")/.." && pwd -P)
tmp=${TMPDIR:-/tmp}
tmp=${tmp%/}

# stat prints a process's parent pid and process group, from the fields
# of /proc/PID/stat that follow the parenthesised command name.
stat() {
	local line
	read -r line <"/proc/$1/stat" 2>/dev/null || return 1
	set -- ${line##*) }
	echo "$2 $3"
}

# The pids are listed before the loop runs, so the helpers it forks are
# never candidates. Skipped are this shell's ancestors and every process
# in one of their process groups: the pipeline that launched this shell
# (say, `… | tee log`) is not a leftover.
declare -A mine groups
p=$$
while [ -n "$p" ] && [ "$p" -gt 0 ] && read -r ppid pgid < <(stat "$p"); do
	mine[$p]=1
	groups[$pgid]=1
	p=$ppid
done

found=0
for d in /proc/[0-9]*; do
	pid=${d#/proc/}
	[ -n "${mine[$pid]:-}" ] && continue
	read -r _ pgid < <(stat "$pid") || continue
	[ -n "${groups[$pgid]:-}" ] && continue
	cwd=$(readlink "$d/cwd" 2>/dev/null) || cwd=
	exe=$(readlink "$d/exe" 2>/dev/null) || exe=
	exe=${exe% (deleted)}
	name=$(cat "$d/comm" 2>/dev/null) || continue
	hit=
	case "$cwd/" in "$root"/*) hit="cwd in checkout" ;; esac
	case "$exe" in "$root"/* | "$tmp"/go-build*) hit="${hit:-executable under checkout or go-build}" ;; esac
	for n in "${exe##*/}" "$name"; do
		case "$n" in benchmark | icecube | icecluster | cubebench | *.test) hit="${hit:-named $n}" ;; esac
	done
	[ -z "$hit" ] && continue
	found=1
	printf '%s\t%s\t%s\t%s\n' "$pid" "$name" "${exe:--}" "$hit"
done
exit $found
