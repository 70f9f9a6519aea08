#!/usr/bin/env bash
# Documentation drift check (CI-blocking): ARCHITECTURE.md's wire-
# protocol table and the serving endpoint tables must stay in lockstep
# with the code, cited documents must exist, and cited ptsbench flags
# must be real.
#
#  1. Every Tag* constant declared in internal/core/messages.go (plus
#     the reserved pvm.TagExit) must appear as a `| `Tag...` |` table
#     row in ARCHITECTURE.md.
#  2. Every Tag* named in an ARCHITECTURE.md table row must still
#     exist in the code — removed messages cannot linger in the doc.
#  3. Every route registered in internal/serve/http.go's Handler must
#     appear as a `| `METHOD /path` |` table row in BOTH README.md and
#     ARCHITECTURE.md.
#  4. Every endpoint named in such a table row must still be a
#     registered route — removed endpoints cannot linger in the docs.
#  5. Every NAME.md cited by a *.go file, README.md or ARCHITECTURE.md
#     must exist: as a path from the repo root or from the citing
#     file's directory, or, for a bare name, anywhere in the repo.
#     CHANGES.md and ROADMAP.md describe history and are not scanned.
#  6. Every `ptsbench -<flag>` cited by README.md, ARCHITECTURE.md,
#     doc.go or results/*.md (the flags that follow "ptsbench" on the
#     same line, with their arguments) must be listed by
#     `go run ./cmd/ptsbench -h`.
#  7. Every `With...` option named in README.md, ARCHITECTURE.md or
#     doc.go (bare, or qualified as `pts.With...`) must be a func
#     declared in package pts. Identifiers qualified by another package
#     (`context.WithTimeout`) are not options and are skipped.
#
# Usage: scripts/check-docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# Tags declared in the protocol (the const block's identifiers).
code_tags=$(grep -oE '^	Tag[A-Za-z0-9]+' internal/core/messages.go | tr -d '\t' | sort -u)
code_tags="$code_tags
TagExit"

for tag in $code_tags; do
  if ! grep -qE "^\| \`$tag\` \|" ARCHITECTURE.md; then
    echo "FAIL: $tag is in the protocol but has no table row in ARCHITECTURE.md"
    fail=1
  fi
done

# Tags documented in ARCHITECTURE.md table rows.
doc_tags=$(grep -oE '^\| `Tag[A-Za-z0-9]+` \|' ARCHITECTURE.md | grep -oE 'Tag[A-Za-z0-9]+' | sort -u)
for tag in $doc_tags; do
  if [ "$tag" = "TagExit" ]; then
    grep -q "TagExit" internal/pvm/pvm.go && continue
  fi
  if ! grep -qE "^	$tag( |$)" internal/core/messages.go; then
    echo "FAIL: ARCHITECTURE.md documents $tag, which no longer exists in internal/core/messages.go"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "ARCHITECTURE.md's wire-protocol table is out of sync with the code."
  exit 1
fi
n=$(echo "$code_tags" | wc -l | tr -d ' ')
echo "PASS: all $n protocol tags documented in ARCHITECTURE.md, no stale rows"

# Serving endpoints: the route patterns registered in Handler() are the
# source of truth.
code_routes=$(grep -oE 'HandleFunc\("(GET|POST|PUT|PATCH|DELETE) [^"]+"' internal/serve/http.go \
  | sed -E 's/HandleFunc\("//; s/"$//' | sort -u)
if [ -z "$code_routes" ]; then
  echo "FAIL: no routes found in internal/serve/http.go (check pattern extraction)"
  exit 1
fi

for doc in README.md ARCHITECTURE.md; do
  while IFS= read -r route; do
    if ! grep -qF "| \`$route\` |" "$doc"; then
      echo "FAIL: route '$route' is registered but has no endpoint-table row in $doc"
      fail=1
    fi
  done <<< "$code_routes"

  doc_routes=$(grep -oE '^\| `(GET|POST|PUT|PATCH|DELETE) [^`]+` \|' "$doc" \
    | sed -E 's/^\| `//; s/` \|$//' | sort -u)
  while IFS= read -r route; do
    [ -z "$route" ] && continue
    if ! grep -qF "\"$route\"" internal/serve/http.go; then
      echo "FAIL: $doc documents endpoint '$route', which is not a registered route"
      fail=1
    fi
  done <<< "$doc_routes"
done

if [ "$fail" -ne 0 ]; then
  echo "The serving endpoint tables are out of sync with internal/serve/http.go."
  exit 1
fi
r=$(echo "$code_routes" | wc -l | tr -d ' ')
echo "PASS: all $r serving endpoints documented in README.md and ARCHITECTURE.md, no stale rows"

# Citations of markdown documents.
all_md=$(find . -name '*.md' -not -path './.git/*' | sed 's|^\./||')
cited=0
while IFS= read -r src; do
  dir=$(dirname "$src")
  for name in $(grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b' "$src" | sort -u); do
    cited=$((cited + 1))
    [ -f "$name" ] || [ -f "$dir/$name" ] && continue
    if [[ "$name" != */* ]] && grep -qE "(^|/)${name//./\\.}\$" <<< "$all_md"; then
      continue
    fi
    echo "FAIL: $src cites $name, which does not exist in the repo"
    fail=1
  done
done < <(find . -name '*.go' -not -path './.git/*' | sed 's|^\./||' | sort; echo README.md; echo ARCHITECTURE.md)

if [ "$fail" -ne 0 ]; then
  echo "State the fact inline or cite a document that exists."
  exit 1
fi
echo "PASS: all $cited markdown citations in *.go, README.md and ARCHITECTURE.md resolve"

# ptsbench flags cited in the docs.
bench_flags=$(go run ./cmd/ptsbench -h 2>&1 | grep -oE '^  -[a-z][a-z0-9-]*' | sed 's/^  //' | sort -u || true)
if [ -z "$bench_flags" ]; then
  echo "FAIL: go run ./cmd/ptsbench -h listed no flags"
  exit 1
fi
cited=0
for src in README.md ARCHITECTURE.md doc.go results/*.md; do
  for f in $(grep -oE 'ptsbench( +-[a-z][a-z0-9-]*( +[^ `-][^ `]*)?)+' "$src" \
      | grep -oE ' -[a-z][a-z0-9-]*' | sed 's/^ //' | sort -u); do
    cited=$((cited + 1))
    [ "$f" = "-h" ] || [ "$f" = "-help" ] && continue
    if ! grep -qxF -- "$f" <<< "$bench_flags"; then
      echo "FAIL: $src cites ptsbench $f, which go run ./cmd/ptsbench -h does not list"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "Cite only flags ptsbench has."
  exit 1
fi
echo "PASS: all $cited ptsbench flag citations in README.md, ARCHITECTURE.md, doc.go and results/*.md exist"

# Solve options cited in the docs.
pts_opts=$(grep -hoE '^func With[A-Za-z0-9_]+' $(ls *.go | grep -v '_test\.go$') | sed 's/^func //' | sort -u)
cited=0
for src in README.md ARCHITECTURE.md doc.go; do
  for tok in $(grep -oE '[A-Za-z0-9_.]*With[A-Z][A-Za-z0-9_]*' "$src" | sort -u); do
    case "$tok" in
      pts.With*) opt=${tok#pts.} ;;
      With*) opt=$tok ;;
      *) continue ;; # another package's identifier, or part of a longer name
    esac
    cited=$((cited + 1))
    if ! grep -qxF -- "$opt" <<< "$pts_opts"; then
      echo "FAIL: $src names $tok, which is not a func in package pts"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "Name only options package pts declares."
  exit 1
fi
echo "PASS: all $cited option names in README.md, ARCHITECTURE.md and doc.go are funcs in package pts"
