#!/usr/bin/env python3
"""Documentation lint for CI (the `docs` job in .github/workflows/ci.yml).

Three checks, stdlib only:

1. Markdown link check: every relative link target in the repo's *.md
   files (root, docs/, examples/) must exist. External (http/https/
   mailto) links and pure #anchors are skipped; a `#fragment` suffix on
   a relative link is stripped before the existence check.

2. Header doc check: every public header under src/service/, src/index/,
   src/filter/, src/net/, and src/core/ must open with a file-level doc
   comment
   (`///`) -- the convention that carries the thread-safety contracts
   (see DESIGN.md).

3. Symbol check: every `Type::member` inside an inline code span of
   DESIGN.md, docs/*.md and examples/README.md (fenced blocks skipped)
   must name a type and a member that appear together in one file under
   src/, so a doc that still names a deleted option or class fails. In a
   chain `A::B::c` each adjacent pair is checked. ROADMAP.md and
   CHANGES.md are history and are not checked.

Exits nonzero with one line per violation.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) -- excluding images is unnecessary; image targets must
# exist too. Inline code spans are stripped first so `[i](x)`-looking
# code does not trip the matcher.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
FENCE_RE = re.compile(r"^\s*(```|~~~)")

DOC_HEADER_DIRS = [
    "src/service", "src/index", "src/filter", "src/net", "src/core",
    "src/obs"
]

# A `Type::member` chain inside an inline code span.
SYMBOL_RE = re.compile(r"\b[A-Za-z_]\w*(?:::[A-Za-z_~]\w*)+")
IDENT_RE = re.compile(r"[A-Za-z_~]\w*")


def markdown_files():
    roots = [REPO, os.path.join(REPO, "docs"), os.path.join(REPO, "examples")]
    seen = set()
    for root in roots:
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if name.endswith(".md") and os.path.isfile(path):
                seen.add(path)
    return sorted(seen)


def check_links():
    errors = []
    for path in markdown_files():
        rel = os.path.relpath(path, REPO)
        in_fence = False
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(CODE_SPAN_RE.sub("", line)):
                    if target.startswith(("http://", "https://", "mailto:", "#")):
                        continue
                    clean = target.split("#", 1)[0]
                    if not clean:
                        continue
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), clean))
                    if not os.path.exists(resolved):
                        errors.append(
                            f"{rel}:{lineno}: broken link '{target}'")
    return errors


def check_header_docs():
    errors = []
    for directory in DOC_HEADER_DIRS:
        full = os.path.join(REPO, directory)
        for name in sorted(os.listdir(full)):
            if not name.endswith(".h"):
                continue
            path = os.path.join(full, name)
            rel = os.path.relpath(path, REPO)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    if not stripped.startswith("///"):
                        errors.append(
                            f"{rel}: missing file-level doc comment "
                            "(first non-blank line must start with ///)")
                    break
                else:
                    errors.append(f"{rel}: empty header")
    return errors


def symbol_doc_files():
    files = [os.path.join(REPO, "DESIGN.md"),
             os.path.join(REPO, "examples", "README.md")]
    docs = os.path.join(REPO, "docs")
    files += [os.path.join(docs, name) for name in sorted(os.listdir(docs))
              if name.endswith(".md")]
    return [path for path in files if os.path.isfile(path)]


def source_identifiers():
    """The identifiers of each file under src/, one set per file."""
    per_file = []
    for root, _, names in os.walk(os.path.join(REPO, "src")):
        for name in sorted(names):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                per_file.append(set(IDENT_RE.findall(handle.read())))
    return per_file


def check_doc_symbols():
    sources = source_identifiers()
    errors = []
    for path in symbol_doc_files():
        rel = os.path.relpath(path, REPO)
        in_fence = False
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for span in CODE_SPAN_RE.findall(line):
                    for chain in SYMBOL_RE.findall(span):
                        parts = chain.split("::")
                        for owner, member in zip(parts, parts[1:]):
                            if not any(owner in ids and member in ids
                                       for ids in sources):
                                errors.append(
                                    f"{rel}:{lineno}: `{chain}`: no file "
                                    f"under src/ names both {owner} and "
                                    f"{member}")
    return errors


def main():
    errors = check_links() + check_header_docs() + check_doc_symbols()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("check_docs: all markdown links resolve, all public headers "
          "in " + " + ".join(DOC_HEADER_DIRS) +
          " carry file-level doc comments, and every Type::member the "
          "docs name appears in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
