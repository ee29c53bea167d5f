#!/usr/bin/env python3
"""Whole-program thread-affinity checker (PR 10, layer 2).

The runtime documents thread ownership with three lexical annotations
(src/common/affinity.h):

  BD_NODE_THREAD    runs only on the owning node's SEDA loop thread
  BD_WORKER_THREAD  runs only on a MatchExecutor pool worker
  BD_ANY_THREAD     safe from any thread (reactor callbacks, deliver())

Runtime asserts catch violations that actually execute; this checker catches
the ones that don't. It parses every translation unit under src/, extracts
function definitions and a call graph, then verifies that no annotated
function can reach an annotated function of the *other* affinity through any
chain of unannotated helpers:

  NODE   may reach NODE, ANY
  WORKER may reach WORKER, ANY
  ANY    may reach ANY only (an ANY caller cannot assume either thread)

Legitimate hand-offs cross threads through an explicit boundary construct —
a task or closure handed to another thread rather than a direct call. Calls
that appear lexically inside the argument list of one of these are not call
graph edges (the closure runs on the far side of the hand-off):

  offload( inject( post( submit( enqueue( push( try_push(
  std::thread( / std::thread{

Audited hand-off sites that the construct list cannot express carry a
waiver comment on the call line or the line above:

  // bd-affinity: boundary

Call resolution (no libclang in the container, so this is deliberately a
heuristic single-pass parser over the preprocessed-ish text):

  * `foo(...)` unqualified: the caller class's own method `foo`, else a
    free function `foo`.
  * `X::foo(...)`: class X's method `foo`, else free `foo` (X a namespace).
  * `recv.foo(...)` / `recv->foo(...)`: `recv` is resolved through the
    caller's parameters, local declarations, then the caller class's
    fields; the receiver's class is the first *project* class named in the
    declared type (so `std::vector<CoverTable>` resolves to CoverTable).
    If the receiver class declares no body for `foo`, the call is treated
    as virtual and links to every project class's `foo` (the receiver was
    still resolved, so std types never enter this fallback).
  * Unresolvable receivers (std containers, call-chain receivers) create
    no edge; the runtime BD_ASSERT_* checks remain the net under those.

Exit codes: 0 clean, 1 violations found, 2 usage or internal error.
"""

import argparse
import json
import os
import re
import sys
from collections import defaultdict

AFFINITIES = ("BD_NODE_THREAD", "BD_WORKER_THREAD", "BD_ANY_THREAD")
WAIVER = "bd-affinity: boundary"

BOUNDARY_CALLS = (
    "offload",
    "inject",
    "post",
    "submit",
    "enqueue",
    "push",
    "try_push",
)

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast", "assert",
    "defined", "decltype", "new", "delete", "noexcept", "throw", "case",
    "static_assert", "alignas", "typeid", "co_await", "co_return", "else",
    "do",
}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q:
                    j += 1
                    break
                j += 1
            out.append(q + " " * (max(0, j - i - 2)) + (q if j <= n else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def find_matching(text, open_idx, open_ch, close_ch):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


class Function:
    def __init__(self, cls, base, affinity, path, line, params, body):
        self.cls = cls            # enclosing/qualifying class or None
        self.base = base
        self.qual = f"{cls}::{base}" if cls else base
        self.affinity = affinity
        self.path = path
        self.line = line
        self.params = params      # raw parameter list text
        self.body = body
        self.calls = []           # list of (kind, receiver, name, line)

    def __repr__(self):
        return f"{self.qual}@{self.path}:{self.line}"


SIG_NAME = re.compile(r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*$")
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch", "do", "else"}
CLASS_OPEN = re.compile(
    r"\b(class|struct)\s+(?:BD_\w+(?:\(\s*\"[^\"]*\"\s*\))?\s+)?"
    r"([A-Za-z_]\w*)[^;{()]*$"
)
FIELD_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|const\s+)*"
    r"([A-Za-z_][\w:]*(?:<[^;=]*>)?)\s*[&*]?\s+(\w+)\s*"
    r"(?:BD_GUARDED_BY\([^)]*\)\s*|BD_PT_GUARDED_BY\([^)]*\)\s*)?"
    r"(?:=[^;]*|\{[^;]*\})?;\s*$"
)


def parse_file(path, text):
    """Extracts function definitions, class fields, and declared affinities."""
    clean = strip_comments_and_strings(text)
    funcs = []
    fields = defaultdict(dict)   # class -> {field: type text}
    decls = {}                   # "Class::name" or "name" -> affinity
    # context stack entries: (kind, name) pushed per '{'
    stack = []

    def cur_class():
        for kind, name in reversed(stack):
            if kind == "class":
                return name
        return None

    i, n = 0, len(clean)
    stmt_start = 0  # start of the current statement (for field decls)
    while i < n:
        c = clean[i]
        if c == ";":
            stmt = re.sub(
                r"\b(?:public|private|protected)\s*:", " ",
                clean[stmt_start:i + 1],
            )
            cls = cur_class()
            if cls:
                for a in AFFINITIES:
                    if re.search(rf"\b{a}\b", stmt):
                        m = re.search(r"\b([A-Za-z_]\w*)\s*\(", stmt)
                        if m:
                            decls[f"{cls}::{m.group(1)}"] = a
                        break
                else:
                    m = FIELD_DECL.match(stmt.replace("\n", " "))
                    if m and "(" not in m.group(1):
                        fields[cls][m.group(2)] = m.group(1)
            else:
                for a in AFFINITIES:
                    if re.search(rf"\b{a}\b", stmt):
                        m = re.search(r"\b([A-Za-z_]\w*)\s*\(", stmt)
                        if m:
                            decls.setdefault(m.group(1), a)
            stmt_start = i + 1
            i += 1
            continue
        if c == "(":
            close = find_matching(clean, i, "(", ")")
            if close == -1:
                break
            pre = clean[:i].rstrip()
            m = SIG_NAME.search(pre)
            name = m.group(1).replace(" ", "") if m else ""
            base = name.split("::")[-1] if name else ""
            j = close + 1
            while j < n and clean[j] not in "{};=":
                j += 1
            if (
                j < n
                and clean[j] == "{"
                and base
                and base not in NOT_FUNCTIONS
            ):
                end = find_matching(clean, j, "{", "}")
                if end == -1:
                    break
                line = clean.count("\n", 0, i) + 1
                sig_text = clean[stmt_start:i]
                affinity = None
                for a in AFFINITIES:
                    if re.search(rf"\b{a}\b", sig_text):
                        affinity = a
                parts = name.split("::")
                if len(parts) >= 2:
                    cls = parts[-2]
                else:
                    cls = cur_class()
                params = clean[i + 1:close]
                # ctor-init suffix can contain calls; fold it into the body
                body = clean[close + 1:j] + clean[j:end + 1]
                funcs.append(
                    Function(cls, base, affinity, path, line, params, body)
                )
                i = end + 1
                stmt_start = i
                continue
            i = close + 1
            continue
        if c == "{":
            pre = clean[stmt_start:i].rstrip()
            m = re.search(r"\bnamespace\s+([\w:]+)?\s*$", pre)
            if m:
                stack.append(("ns", m.group(1) or "<anon>"))
            else:
                m = CLASS_OPEN.search(pre)
                if m:
                    stack.append(("class", m.group(2)))
                else:
                    stack.append(("block", ""))
            i += 1
            stmt_start = i
            continue
        if c == "}":
            if stack:
                stack.pop()
            i += 1
            stmt_start = i
            continue
        i += 1
    return funcs, fields, decls


def boundary_spans(body):
    spans = []
    for m in re.finditer(r"\b(" + "|".join(BOUNDARY_CALLS) + r")\s*\(", body):
        close = find_matching(body, m.end() - 1, "(", ")")
        if close != -1:
            spans.append((m.end(), close))
    for m in re.finditer(r"\bstd\s*::\s*thread\s*[({]", body):
        opener = body[m.end() - 1]
        close = (
            find_matching(body, m.end() - 1, "(", ")")
            if opener == "("
            else find_matching(body, m.end() - 1, "{", "}")
        )
        if close != -1:
            spans.append((m.end(), close))
    return spans


CALL = re.compile(
    r"(?:(\w+)\s*(?:\[[^\][]*\])?\s*(\.|->)\s*|(\w+)\s*::\s*)?"
    r"\b([A-Za-z_]\w*)\s*\("
)
LOCAL_DECL = re.compile(
    r"\b(?:const\s+)?([A-Za-z_][\w:]*(?:<[^<>;=]*>)?)\s*[&*]?\s+"
    r"(\w+)\s*(?:[=({:;]|$)"
)


def extract_calls(fn, waived_lines):
    spans = boundary_spans(fn.body)

    def in_boundary(pos):
        return any(a <= pos < b for a, b in spans)

    for m in CALL.finditer(fn.body):
        recv, arrow, scope, name = m.group(1), m.group(2), m.group(3), m.group(4)
        if name in KEYWORDS:
            continue
        if in_boundary(m.start(4)):
            continue
        line = fn.line + fn.body.count("\n", 0, m.start(4))
        if line in waived_lines or (line - 1) in waived_lines:
            continue
        if recv:
            fn.calls.append(("member", recv, name, line))
        elif scope:
            fn.calls.append(("scoped", scope, name, line))
        else:
            fn.calls.append(("plain", None, name, line))


def gather_sources(root):
    src = os.path.join(root, "src")
    cpps, headers = [], []
    ccdb = os.path.join(root, "build", "compile_commands.json")
    if os.path.isfile(ccdb):
        try:
            with open(ccdb) as f:
                for entry in json.load(f):
                    p = os.path.normpath(
                        os.path.join(entry.get("directory", ""), entry["file"])
                    )
                    if p.startswith(src) and p.endswith(".cpp"):
                        cpps.append(p)
        except (json.JSONDecodeError, KeyError):
            pass
    if not cpps:
        for dirpath, _, names in os.walk(src):
            cpps.extend(
                os.path.join(dirpath, f) for f in names if f.endswith(".cpp")
            )
    for dirpath, _, names in os.walk(src):
        headers.extend(
            os.path.join(dirpath, f) for f in names if f.endswith(".h")
        )
    return sorted(set(cpps)), sorted(set(headers))


class Program:
    def __init__(self):
        self.functions = []
        self.fields = defaultdict(dict)
        self.decls = {}
        self.by_method = defaultdict(list)   # (cls, name) -> [Function]
        self.by_free = defaultdict(list)     # name -> [Function]
        self.by_name = defaultdict(list)     # name -> [Function] (methods)
        self.classes = set()

    def index(self):
        for fn in self.functions:
            if fn.affinity is None:
                fn.affinity = self.decls.get(fn.qual) or (
                    None if fn.cls else self.decls.get(fn.base)
                )
            if fn.cls:
                self.by_method[(fn.cls, fn.base)].append(fn)
                self.by_name[fn.base].append(fn)
                self.classes.add(fn.cls)
            else:
                self.by_free[fn.base].append(fn)
        self.classes.update(self.fields.keys())

    def first_project_class(self, type_text):
        for word in re.findall(r"[A-Za-z_]\w*", type_text or ""):
            if word in self.classes:
                return word
        return None

    def resolve_receiver(self, fn, recv):
        if recv == "this":
            return fn.cls
        m = re.search(
            rf"([A-Za-z_][\w:]*(?:<[^<>]*>)?)\s*[&*]?\s+{recv}\s*(?:,|$|=)",
            fn.params,
        )
        if m:
            return self.first_project_class(m.group(1))
        for dm in LOCAL_DECL.finditer(fn.body):
            if dm.group(2) == recv:
                cls = self.first_project_class(dm.group(1))
                if cls:
                    return cls
        if fn.cls and recv in self.fields.get(fn.cls, {}):
            return self.first_project_class(self.fields[fn.cls][recv])
        if recv in self.classes:
            return recv
        return None

    def targets(self, fn, kind, recv, name):
        if kind == "plain":
            if fn.cls and (fn.cls, name) in self.by_method:
                return self.by_method[(fn.cls, name)]
            return self.by_free.get(name, [])
        if kind == "scoped":
            if (recv, name) in self.by_method:
                return self.by_method[(recv, name)]
            return self.by_free.get(name, [])
        cls = self.resolve_receiver(fn, recv)
        if cls is None:
            return []
        if (cls, name) in self.by_method:
            return self.by_method[(cls, name)]
        # Known project class without a body for `name`: virtual dispatch —
        # link to every project override. std types never reach here.
        return self.by_name.get(name, [])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--root",
        default=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        ),
        help="repository root (default: two levels above this script)",
    )
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"bd_affinity_check: no src/ under {args.root}", file=sys.stderr)
        return 2

    cpps, headers = gather_sources(args.root)
    prog = Program()
    for path in headers + cpps:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        funcs, fields, decls = parse_file(path, text)
        waived = {
            i + 1 for i, line in enumerate(text.split("\n")) if WAIVER in line
        }
        for fn in funcs:
            extract_calls(fn, waived)
        prog.functions.extend(funcs)
        for cls, fmap in fields.items():
            prog.fields[cls].update(fmap)
        prog.decls.update(decls)
    prog.index()

    compatible = {
        "BD_NODE_THREAD": {"BD_NODE_THREAD", "BD_ANY_THREAD"},
        "BD_WORKER_THREAD": {"BD_WORKER_THREAD", "BD_ANY_THREAD"},
        "BD_ANY_THREAD": {"BD_ANY_THREAD"},
    }

    violations = []
    for root_fn in prog.functions:
        if root_fn.affinity is None:
            continue
        allowed = compatible[root_fn.affinity]
        seen = {id(root_fn)}
        stack = [(root_fn, [root_fn.qual])]
        while stack:
            fn, trail = stack.pop()
            for kind, recv, name, line in fn.calls:
                for callee in prog.targets(fn, kind, recv, name):
                    if id(callee) in seen:
                        continue
                    seen.add(id(callee))
                    step = trail + [
                        f"{callee.qual} ({callee.path}:{callee.line})"
                    ]
                    if callee.affinity is not None:
                        if callee.affinity not in allowed:
                            violations.append(
                                (root_fn, callee, fn.path, line, step)
                            )
                        continue  # annotated: contract re-rooted there
                    stack.append((callee, step))

    if args.verbose:
        annotated = sum(1 for f in prog.functions if f.affinity)
        edges = sum(len(f.calls) for f in prog.functions)
        print(
            f"bd_affinity_check: {len(prog.functions)} functions "
            f"({annotated} annotated), {edges} call sites, "
            f"{len(cpps)} TUs, {len(headers)} headers"
        )

    if violations:
        for root_fn, callee, path, line, trail in violations:
            rel = os.path.relpath(path, args.root)
            print(
                f"{rel}:{line}: error: {root_fn.affinity} function "
                f"'{root_fn.qual}' reaches {callee.affinity} function "
                f"'{callee.qual}' without a hand-off boundary"
            )
            for hop in trail:
                print(f"    via {hop}")
        print(f"bd_affinity_check: {len(violations)} violation(s)")
        return 1

    print("bd_affinity_check: OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(2)
